"""Factoring tame maps into affine and triangular pieces and back."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from tameplane import (
    AffineAuto,
    AmalgamWord,
    ElemAuto,
    NotAnAutomorphism,
    PlaneAuto,
    Poly1,
    Poly2,
    PrimeField,
    ProjPoint,
    QQ,
    RationalFunctionField,
    amalgam,
    borel_escape_witness,
    compose_all,
    in_borel,
    invert,
    normal_form,
    shear_decompose,
    shear_recompose,
    vdk_factor,
    word_from_json,
    word_of_atoms,
    word_to_json,
)
from tameplane.amalgam import _in_normal_form, _vdk_atoms
from tameplane.sampling import random_shear_pairs, random_tame_atoms, random_tame_auto
from tameplane.textio import ParseError, format_auto, parse_auto

from conftest import F2, F5, FIELDS, QZ, nonzero_scalars, poly1, scalars
from oracles import (
    evaluate_poly2,
    free_reduce,
    invert_through_normal_form,
    is_reduced,
    random_congruence_borel,
    random_origin_special_borel,
)

F5Z = RationalFunctionField(F5)


class TestInvert:
    def test_worked_example(self):
        assert format_auto(invert(parse_auto(QQ, "y + x^2, x"))) == "y, x - y^2"

    def test_two_sided_inverse(self):
        rng = random.Random(7)
        for field in (QQ, F5):
            for _ in range(15):
                g = random_tame_auto(field, rng)
                gi = invert(g)
                assert g.compose(gi).is_identity()
                assert gi.compose(g).is_identity()

    def test_rejects_noninvertible_maps(self):
        for bad in ("x^2, y", "x, x", "x + y, x + y"):
            with pytest.raises(NotAnAutomorphism):
                invert(parse_auto(QQ, bad))

    @pytest.mark.parametrize("field", [QQ, F5, QZ, F5Z], ids=["q", "fp5", "q-of-z", "fp5-of-z"])
    def test_agrees_with_the_inverse_through_the_normal_form(self, field):
        rng = random.Random(59)
        for _ in range(8):
            g = random_tame_auto(field, rng, max_factors=4, degree_budget=6)
            assert invert(g) == invert_through_normal_form(g)
            # one shear per run of peels along one l, so the kinds alternate
            atoms = _vdk_atoms(g)
            assert all(type(a) is not type(b) for a, b in zip(atoms, atoms[1:]))

    def test_inverts_the_peel_without_normalizing(self, monkeypatch):
        def refuse(field, atoms):
            raise AssertionError("invert pushed a word down")
        monkeypatch.setattr(amalgam, "word_of_atoms", refuse)
        assert format_auto(invert(parse_auto(QQ, "y + x^2 + x^3, x"))) == "y, x - y^2 - y^3"


class TestVdkFactor:
    def test_affine_factors_to_single_atom(self):
        word = vdk_factor(parse_auto(QQ, "y + 1, x - 2"))
        assert len(word) <= 1
        assert word.recompose() == parse_auto(QQ, "y + 1, x - 2")

    def test_triangular_affine_factors_to_tail_only(self):
        word = vdk_factor(parse_auto(QQ, "2*x + 1, 3*y - x"))
        assert word.factors == ()
        assert word.recompose() == parse_auto(QQ, "2*x + 1, 3*y - x")

    def test_nonlinear_triangular_splits_off_a_shear(self):
        # the affine-triangular tail absorbs everything of degree <= 1
        word = vdk_factor(parse_auto(QQ, "2*x + 1, y + x^3"))
        assert word.factor_kinds() == ("shear",)
        assert word.recompose() == parse_auto(QQ, "2*x + 1, y + x^3")

    def test_round_trip_on_random_products(self):
        rng = random.Random(23)
        for field in (QQ, F5):
            for _ in range(20):
                g = random_tame_auto(field, rng)
                assert vdk_factor(g).recompose() == g

    def test_degree_is_the_product_of_shear_degrees(self):
        tall = ElemAuto.shear(QQ, Poly1.monomial(QQ, 3, Fraction(1)))
        wide = ElemAuto.shear(QQ, Poly1.monomial(QQ, 2, Fraction(1)))
        flip = AffineAuto(QQ, ((0, 1), (1, 0)))
        g = compose_all(tall.to_plane(), flip.to_plane(), wide.to_plane())
        word = vdk_factor(g)
        product = 1
        for atom in (*word.factors, word.tail):
            if isinstance(atom, ElemAuto):
                product *= max(atom.f.degree(), 1)
        assert g.max_degree() == product == 6

    def test_rejects_a_nontame_looking_input_shape(self):
        # not an automorphism at all: the jacobian vanishes
        with pytest.raises(NotAnAutomorphism):
            vdk_factor(PlaneAuto(Poly2.x(QQ), Poly2.x(QQ)))

    @pytest.mark.parametrize("bad", ["x, y^2", "x + y, x + y", "x^2 + y, y^3"])
    def test_rejects_tame_maps_composed_with_a_non_automorphism(self, bad):
        # no jacobian is computed, so degree reduction itself must refuse
        # every such composite, on either side of the tame map
        rng = random.Random(31)
        for field in (QQ, F5):
            h = parse_auto(field, bad)
            for _ in range(10):
                g = random_tame_auto(field, rng)
                for composite in (g.compose(h), h.compose(g)):
                    for fn in (vdk_factor, invert):
                        with pytest.raises(NotAnAutomorphism):
                            fn(composite)

    def test_rejects_a_unit_jacobian_non_automorphism_in_characteristic_p(self):
        # jacobian 1 + 5 x^4 = 1 over F5, yet the map has no polynomial inverse
        bad = parse_auto(F5, "x + x^5, y")
        assert bad.jacobian() == Poly2.one(F5)
        for fn in (vdk_factor, invert):
            with pytest.raises(NotAnAutomorphism):
                fn(bad)


    @pytest.mark.parametrize("text, message", [
        ("x + y^2, y + x^2", "degree reduction stuck at degrees (2, 2)"),
        # a constant component has degree below 1, so nothing peels along it
        ("1, y^2", "degree reduction stuck at degrees (0, 2)"),
        ("x + y, x + y", "affine remainder is singular"),
        # q has no term at 2 * lead(x + y) = (2, 0), so c = 0 and the degree stays
        ("x + y, y^2", "degree reduction stuck at degrees (1, 2)"),
    ])
    def test_refusals_name_where_reduction_stopped(self, text, message):
        for fn in (vdk_factor, invert):
            with pytest.raises(NotAnAutomorphism) as info:
                fn(parse_auto(QQ, text))
            assert str(info.value) == message


class TestNormalForm:
    def test_idempotent(self):
        rng = random.Random(29)
        for _ in range(10):
            word = vdk_factor(random_tame_auto(QQ, rng))
            once = normal_form(word)
            assert normal_form(once) == once

    def test_two_constructions_agree(self):
        # same element assembled two ways: directly, and with a cancelling
        # pad of triangular atoms spliced into the middle
        rng = random.Random(31)
        for _ in range(10):
            atoms = random_tame_atoms(QQ, rng, max_factors=4)
            direct = word_of_atoms(QQ, atoms)
            pad = ElemAuto(QQ, Fraction(3), Fraction(0), Fraction(1), Poly1.zero(QQ))
            cut = rng.randint(0, len(atoms))
            padded = [*atoms[:cut], pad, pad.inverse(), *atoms[cut:]]
            assert word_of_atoms(QQ, padded) == direct

    def test_normal_form_preserves_the_element(self):
        rng = random.Random(37)
        for _ in range(10):
            word = vdk_factor(random_tame_auto(F5, rng))
            assert normal_form(word).recompose() == word.recompose()

    @pytest.mark.parametrize("field", [QQ, F5, F2], ids=["q", "fp5", "fp2"])
    def test_normal_forms_are_reduced(self, field):
        rng = random.Random(41)
        for _ in range(60):
            word = word_of_atoms(field, random_tame_atoms(field, rng))
            assert is_reduced(word)
            assert is_reduced(normal_form(word))
            factored = vdk_factor(word.recompose())
            assert is_reduced(factored)
            assert factored == word

    def test_input_checks(self):
        word = vdk_factor(parse_auto(QQ, "y + x^2, x"))
        tail = ElemAuto.identity(QQ)
        for bad, error in (
            (PlaneAuto(Poly2.x(QQ), Poly2.y(QQ)), TypeError),
            (AffineAuto(QQ, ((1, 1), (1, 1))), NotAnAutomorphism),
            (ElemAuto(QQ, 0, 0, 1, Poly1.zero(QQ)), NotAnAutomorphism),
        ):
            with pytest.raises(error):
                word_of_atoms(QQ, [*word.factors, bad, word.tail])
            with pytest.raises(error):
                normal_form(AmalgamWord(QQ, (*word.factors, bad), tail))
        # a bad tail goes to the push-down too, which refuses it
        for bad, error in (
            (ElemAuto(QQ, 1, 0, 0, Poly1.zero(QQ)), NotAnAutomorphism),
            (PlaneAuto(Poly2.x(QQ), Poly2.y(QQ)), TypeError),
        ):
            with pytest.raises(error):
                normal_form(AmalgamWord(QQ, word.factors, bad))

    @pytest.mark.parametrize("field", FIELDS, ids=["q", "fp5", "q-of-z"])
    def test_reduced_words_are_their_own_normal_form(self, field):
        rng = random.Random(61)
        for _ in range(12):
            atoms = random_tame_atoms(field, rng, max_factors=4, degree_budget=6)
            for word in (word_of_atoms(field, atoms),
                         vdk_factor(compose_all(*(a.to_plane() for a in atoms)))):
                assert _in_normal_form(word) and is_reduced(word)
                assert normal_form(word) is word

    def test_structural_check_agrees_with_the_oracle_on_mangled_words(self):
        rng = random.Random(67)
        f = QQ
        x2 = Poly1.monomial(f, 2, f.one)
        mangles = [
            AffineAuto(f, ((0, 2), (1, 0))),
            AffineAuto(f, ((0, 1), (1, 3)), (1, 0)),
            ElemAuto.shear(f, x2 + Poly1.gen(f)),
            ElemAuto(f, 2, 0, 1, x2),
        ]
        checked = 0
        for _ in range(30):
            word = word_of_atoms(f, random_tame_atoms(f, rng))
            shuffled = list(word.factors)
            rng.shuffle(shuffled)
            cut = rng.randint(0, len(word))
            candidates = [AmalgamWord(f, tuple(shuffled), word.tail)]
            candidates += [AmalgamWord(f, (*word.factors[:cut], bad, *word.factors[cut:]), word.tail)
                           for bad in mangles]
            for w in candidates:
                assert _in_normal_form(w) == is_reduced(w)
                out = normal_form(w)
                assert is_reduced(out) and out.recompose() == w.recompose()
                if not is_reduced(w):
                    checked += 1
                    assert out == word_of_atoms(f, [*w.factors, w.tail])
        assert checked >= 4 * 30
        # words the push-down refuses: a zero-scaling tail, a plane map as a factor
        for w in (AmalgamWord(f, (), ElemAuto(f, 1, 0, 0, Poly1.zero(f))),
                  AmalgamWord(f, (PlaneAuto(Poly2.x(f), Poly2.y(f)),), ElemAuto.identity(f))):
            assert not _in_normal_form(w) and not is_reduced(w)

    def test_adjacent_affine_factors_are_not_reduced(self):
        swap = AffineAuto(QQ, ((0, 1), (1, 0)))
        tail = ElemAuto.identity(QQ)
        assert is_reduced(AmalgamWord(QQ, (swap,), tail))
        assert not is_reduced(AmalgamWord(QQ, (swap, swap), tail))


@st.composite
def nontriangular_affines(draw, field):
    a, c, d, u, v = (draw(scalars(field)) for _ in range(5))
    b = draw(nonzero_scalars(field))
    assume(a * d - b * c)
    return AffineAuto(field, ((a, b), (c, d)), (u, v))


@st.composite
def nonlinear_elementaries(draw, field):
    z1, z2 = draw(nonzero_scalars(field)), draw(nonzero_scalars(field))
    f = draw(poly1(field, max_deg=4).filter(lambda f: f.degree() >= 2))
    return ElemAuto(field, z1, draw(scalars(field)), z2, f)


class TestSplits:
    @pytest.mark.parametrize("field", FIELDS, ids=["q", "fp5", "q-of-z"])
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_affine_split(self, field, data):
        g = data.draw(nontriangular_affines(field))
        rep, b = g.split()
        assert rep.compose(b) == g
        assert rep == AffineAuto(field, ((0, 1), (1, rep.m[1][1])))
        assert b.is_lower_triangular()

    @pytest.mark.parametrize("field", FIELDS, ids=["q", "fp5", "q-of-z"])
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_elementary_split(self, field, data):
        g = data.draw(nonlinear_elementaries(field))
        rep, b = g.split()
        assert rep.compose(b) == g
        assert rep == ElemAuto.shear(field, rep.f) and min(rep.f.keys()) >= 2
        assert b.is_lower_triangular()

    @pytest.mark.parametrize("field", FIELDS, ids=["q", "fp5", "q-of-z"])
    def test_triangular_input_is_refused(self, field):
        with pytest.raises(ValueError):
            AffineAuto(field, ((2, 0), (1, 3)), (1, 1)).split()
        with pytest.raises(ValueError):
            ElemAuto(field, 2, 1, 3, Poly1(field, {1: 1, 0: 2})).split()


class TestBorelEscape:
    def test_identity_and_nontriangular_inputs_are_rejected(self):
        with pytest.raises(ValueError):
            borel_escape_witness(PlaneAuto(Poly2.x(QQ), Poly2.y(QQ)), context="origin_special")
        with pytest.raises(ValueError):
            borel_escape_witness(AffineAuto(QQ, ((0, 1), (1, 0))).to_plane(), context="origin_special")

    def test_escapes_origin_special_triangulars(self):
        rng = random.Random(41)
        for _ in range(20):
            g = random_origin_special_borel(QQ, rng)
            gamma, conj = borel_escape_witness(g, context="origin_special")
            assert conj == compose_all(gamma, g, invert(gamma))
            assert not in_borel(conj)
            # witness stays inside the subgroup being probed
            assert gamma.fixes_origin() and gamma.jacobian() == Poly2.one(QQ)

    def test_escape_covers_each_origin_special_case(self):
        cases = [
            parse_auto(QQ, "2*x, 1/2*y"),        # distinct eigenvalues
            parse_auto(QQ, "x, y + 3*x"),        # strictly lower entry
            parse_auto(QQ, "-x, -y"),            # central involution
        ]
        for g in cases:
            gamma, conj = borel_escape_witness(g, context="origin_special")
            assert not in_borel(conj)

    def test_escapes_congruence_triangulars_over_function_field(self):
        rng = random.Random(43)
        for _ in range(10):
            g = random_congruence_borel(QZ, rng)
            gamma, conj = borel_escape_witness(g, context="congruence")
            assert conj == compose_all(gamma, g, invert(gamma))
            assert not in_borel(conj)
            # the conjugator is itself the identity at z = 0
            assert all(evaluate_poly2(c, QZ.zero, QZ.zero) == QZ.zero
                       for c in (gamma.p - Poly2.x(QZ), gamma.q - Poly2.y(QZ)))

    def test_congruence_case_table(self):
        z = QZ.gen
        # strictly lower linear entry, x-translation, pure y-translation
        w_case = AffineAuto(QZ, ((1, 0), (z, 1))).to_plane()
        u_case = AffineAuto(QZ, ((1, 0), (0, 1)), (z, QZ.zero)).to_plane()
        v_case = AffineAuto(QZ, ((1, 0), (0, 1)), (QZ.zero, z)).to_plane()
        for g in (w_case, u_case, v_case):
            gamma, conj = borel_escape_witness(g, context="congruence")
            assert not in_borel(conj)
        # the pure y-translation needs the composite conjugator
        gamma, _ = borel_escape_witness(v_case, context="congruence")
        assert gamma.max_degree() == 3

    def test_congruence_context_requires_a_generator(self):
        with pytest.raises(ValueError):
            borel_escape_witness(parse_auto(QQ, "x + 1, y"), context="congruence")
        with pytest.raises(ValueError):
            borel_escape_witness(parse_auto(QQ, "x + 1, y"), context="bogus")


class TestShearDecompose:
    def test_round_trip(self):
        # the reduced word is unique, so the peel must return the sampled one
        rng = random.Random(47)
        for field, budget in ((QQ, 12), (F5, 12), (PrimeField(1000003), 12), (QZ, 6),
                              (F2, 12), (QQ, 24), (F5, 24), (F5Z, 6)):
            for _ in range(15):
                pairs = random_shear_pairs(field, rng, degree_budget=budget)
                g = shear_recompose(field, pairs)
                assert shear_decompose(g) == tuple(pairs)

    @pytest.mark.parametrize("field, text", [
        (QQ, "x, y + x^2 + y^2"),
        (QQ, "x + y^2, y + x^2"),
        (F5, "x + x^5, y"),
    ])
    def test_tangent_non_automorphisms_raise(self, field, text):
        with pytest.raises(NotAnAutomorphism):
            shear_decompose(parse_auto(field, text))

    @pytest.mark.parametrize("text, message", [
        ("x + x^2, y", "line shear peel stuck at degree 2"),
        ("x + x^2*y, y", "line shear peel stuck at degree 3"),
        ("x + -2*x^2*y^2, y + x*y + x^4", "line shear peel stuck at degree 4"),
    ])
    def test_stuck_peel_names_its_degree(self, text, message):
        with pytest.raises(NotAnAutomorphism) as info:
            shear_decompose(parse_auto(QQ, text))
        assert str(info.value) == message

    def test_requires_tangent_to_identity(self):
        for text in ("2*x, y + x^2", "x + 1, y", "x + y, y + x^2"):
            with pytest.raises(ValueError) as info:
                shear_decompose(parse_auto(QQ, text))
            assert str(info.value) == "map is not tangent to the identity at the origin"

    def test_rational_parameters_rescale_the_shared_denominator(self):
        # q clears over 3^13; after t^4 and t^3 are peeled along (-1 : 1), the
        # step for t^2 needs a factor 2 more, so the numerators are rescaled mid-run
        pairs = ((ProjPoint.of(QQ, -1, 1), Poly1(QQ, {2: Fraction(-1, 2), 3: -4, 4: Fraction(2, 3)})),
                 (ProjPoint.of(QQ, Fraction(1, 3), 1), Poly1.monomial(QQ, 2, Fraction(-1, 2))))
        g = shear_recompose(QQ, pairs)
        assert g.q._den == 3 ** 13
        assert shear_decompose(g) == pairs

    def test_single_line_shear_comes_back_verbatim(self):
        delta = ProjPoint.of(QQ, 3, 1)
        f = Poly1(QQ, {2: Fraction(1), 4: Fraction(-2)})
        pairs = shear_decompose(shear_recompose(QQ, [(delta, f)]))
        assert pairs == ((delta, f),)

    def test_unreduced_words_come_back_freely_reduced(self):
        # shears along one direction add up, so the peel returns the word
        # with adjacent equal directions merged, as free_reduce merges them
        rng = random.Random(73)
        for field in (QQ, F5):
            for _ in range(6):
                left = random_shear_pairs(field, rng, max_factors=2, degree_budget=8)
                right = random_shear_pairs(field, rng, max_factors=2, degree_budget=8)
                delta, f = left[-1]
                pairs = [*left, (delta, rng.choice([-f, f + f, Poly1.monomial(field, 2, field.one)])), *right]
                assert shear_decompose(shear_recompose(field, pairs)) == free_reduce(pairs)

    def test_free_reduce_merges_and_cancels(self):
        d1 = ProjPoint.of(QQ, 0, 1)
        d2 = ProjPoint.infinity(QQ)
        f = Poly1.monomial(QQ, 2, Fraction(1))
        assert free_reduce([(d1, f), (d1, -f)]) == ()
        assert free_reduce([(d1, f), (d1, f), (d2, f)]) == ((d1, f + f), (d2, f))
        assert free_reduce([(d1, f), (d2, Poly1.zero(QQ)), (d1, f)]) \
            == ((d1, f + f),)


class TestWordJson:
    def test_round_trip(self):
        rng = random.Random(53)
        for field in (QQ, F5, QZ):
            g = random_tame_auto(field, rng, max_factors=3, degree_budget=6)
            word = vdk_factor(g)
            doc = word_to_json(word)
            back = word_from_json(doc)
            assert back == word
            assert back.recompose() == g

    def test_document_shape(self):
        doc = json.loads(word_to_json(vdk_factor(parse_auto(QQ, "y + x^2, x"))))
        assert doc["format"] == "tameplane-word"
        assert doc["version"] == 1
        assert doc["field"] == "q"
        assert [f["kind"] for f in doc["factors"]] == ["affine", "shear"]

    def test_bad_documents_are_rejected(self):
        good = json.loads(word_to_json(vdk_factor(parse_auto(QQ, "y + x^2, x"))))
        for mutate in (
            lambda d: d.update(format="other"),
            lambda d: d.update(version=2),
            lambda d: d.update(version=True),
            lambda d: d.update(version=1.0),
            lambda d: d.pop("tail"),
            lambda d: d["factors"][0].pop("matrix"),
            lambda d: d["factors"][0].update(kind="other"),
            lambda d: d["factors"][1].update(z1=1),
            lambda d: d.update(factors=5),
            lambda d: d.update(field=5),
            lambda d: d.update(field="fp:6"),
        ):
            doc = json.loads(json.dumps(good))
            mutate(doc)
            with pytest.raises(ParseError):
                word_from_json(json.dumps(doc))
        for text in ("[]", "not json", '"tameplane-word"', json.dumps(good)[:-1], "[" * 100000):
            with pytest.raises(ParseError):
                word_from_json(text)
