"""Plane maps: composition, jacobians, classification, line shears."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings

from tameplane import (
    AffineAuto,
    AmalgamWord,
    ElemAuto,
    PlaneAuto,
    Poly1,
    Poly2,
    ProjPoint,
    QQ,
    classify,
    compose_all,
    shear_recompose,
    word_from_json,
    word_to_json,
)
from tameplane.automorphisms import as_affine, as_elementary
from tameplane.sampling import random_affine, random_elementary, random_tame_auto
from tameplane.textio import format_auto, parse_auto

from conftest import F5, FIELDS, poly1
from oracles import evaluate_auto, evaluate_poly1

SWAP = AffineAuto(QQ, ((0, 1), (1, 0))).to_plane()


def rand_autos(field, seed, count, max_factors=4, budget=8):
    rng = random.Random(seed)
    return [random_tame_auto(field, rng, max_factors=max_factors,
                             degree_budget=budget) for _ in range(count)]


class TestComposition:
    def test_composition_order_is_right_to_left(self):
        # apply the shear first, then the swap
        s = SWAP
        u = parse_auto(QQ, "x, y + x^2")
        assert format_auto(s.compose(u)) == "y + x^2, x"
        assert format_auto(u.compose(s)) == "y, x + y^2"

    def test_compose_all_associates(self):
        autos = rand_autos(QQ, 13, 3)
        left = autos[0].compose(autos[1]).compose(autos[2])
        right = autos[0].compose(autos[1].compose(autos[2]))
        assert left == right == compose_all(*autos)

    def test_evaluate_matches_composition(self):
        a, b = rand_autos(F5, 21, 2)
        pt = (F5.of(2), F5.of(4))
        assert evaluate_auto(a.compose(b), pt) == evaluate_auto(a, evaluate_auto(b, pt))

    def test_identity_is_neutral(self):
        (g,) = rand_autos(QQ, 31, 1)
        e = PlaneAuto(Poly2.x(QQ), Poly2.y(QQ))
        assert g.compose(e) == g and e.compose(g) == g
        assert compose_all(g) == g


class TestJacobian:
    def test_chain_rule(self):
        # jac(a o b) = (jac(a) evaluated along b) * jac(b)
        for a, b in zip(rand_autos(QQ, 41, 3), rand_autos(QQ, 42, 3)):
            outer = a.jacobian().substitute(b.p, b.q)
            assert a.compose(b).jacobian() == outer * b.jacobian()

    def test_shear_has_unit_jacobian(self):
        u = ElemAuto.shear(QQ, Poly1.monomial(QQ, 5, Fraction(3))).to_plane()
        assert u.jacobian() == Poly2.one(QQ)

    def test_swap_has_jacobian_minus_one(self):
        assert SWAP.jacobian() == Poly2.constant(QQ, Fraction(-1))

    def test_noninvertible_map_has_nonconstant_jacobian(self):
        g = PlaneAuto(Poly2(QQ, {(2, 0): Fraction(1)}), Poly2.y(QQ))
        assert not g.jacobian().is_constant()


class TestClassify:
    def test_translation_profile(self):
        profile = classify(parse_auto(QQ, "x + 1, y"))
        assert profile.affine and profile.triangular
        assert profile.identity_differential and profile.special
        assert not profile.fixes_origin
        assert not (profile.fixes_origin and profile.identity_differential)
        assert profile.degree == 1

    def test_swap_is_not_special(self):
        profile = classify(SWAP)
        assert profile.affine and not profile.special  # det = -1
        assert profile.fixes_origin and not profile.identity_differential

    def test_shear_profile(self):
        profile = classify(parse_auto(QQ, "x, y + x^2"))
        assert profile.elementary and not profile.affine
        assert profile.fixes_origin and profile.identity_differential
        assert profile.degree == 2

    def test_degenerate_map_is_flagged(self):
        profile = classify(parse_auto(QQ, "x^2, y"))
        assert not profile.invertible_jacobian

    def test_subgroup_flags_survive_linear_conjugation(self):
        # tangency to the identity at the origin is a conjugation invariant
        rng = random.Random(51)
        inner = shear_recompose(QQ, [(ProjPoint.of(QQ, 1, 1), Poly1.monomial(QQ, 2, Fraction(1)))])
        for _ in range(10):
            aff = AffineAuto(QQ, ((rng.randint(1, 3), rng.randint(0, 2)),
                                  (rng.randint(0, 2), rng.randint(1, 3))))
            if not aff.is_invertible():
                continue
            g = aff.to_plane()
            gi = aff.inverse().to_plane()
            conj = compose_all(g, inner, gi)
            profile = classify(conj)
            assert profile.fixes_origin and profile.identity_differential


class TestViews:
    def test_as_affine_and_as_elementary(self):
        aff = parse_auto(QQ, "y + 1, x - 2")
        assert as_affine(aff) is not None
        assert as_elementary(aff) is None  # swaps are not triangular
        tri = parse_auto(QQ, "2*x + 1, 3*y + x^2")
        el = as_elementary(tri)
        assert el is not None and el.to_plane() == tri
        assert as_affine(parse_auto(QQ, "x, y + x^3")) is None

    def test_affine_inverse(self):
        aff = AffineAuto(QQ, ((2, 1), (1, 1)), (Fraction(3), Fraction(-1)))
        assert aff.compose(aff.inverse()) == AffineAuto.identity(QQ)

    def test_elementary_inverse_and_conversion(self):
        el = ElemAuto(QQ, Fraction(2), Fraction(1), Fraction(1, 2),
                      Poly1(QQ, {2: Fraction(3)}))
        assert el.compose(el.inverse()).is_identity()
        tri = ElemAuto(QQ, Fraction(2), Fraction(1), Fraction(1, 2),
                       Poly1(QQ, {0: Fraction(4), 1: Fraction(-1)}))
        assert ElemAuto.from_affine(tri.to_affine()) == tri
        with pytest.raises(ValueError):
            el.to_affine()  # a quadratic shear has no affine form

    def test_from_affine_requires_triangular(self):
        with pytest.raises(ValueError):
            ElemAuto.from_affine(AffineAuto(QQ, ((0, 1), (1, 0))))
        with pytest.raises(ValueError):
            ElemAuto.from_affine(AffineAuto(QQ, ((1, 1), (0, 1))))
        lower = AffineAuto(QQ, ((1, 0), (5, 2)))
        assert lower.is_lower_triangular()
        assert ElemAuto.from_affine(lower).to_affine() == lower


def _atom_pairs(field, seed, count=6):
    """count pairs of random affine atoms, then count of triangular ones."""
    rng = random.Random(seed)
    return ([(random_affine(field, rng, 4), random_affine(field, rng, 4)) for _ in range(count)]
            + [(random_elementary(field, rng, 3, 4), random_elementary(field, rng, 3, 4))
               for _ in range(count)])


class TestAtomLaws:
    def test_compose_is_composition_of_plane_maps(self, field):
        for a, b in _atom_pairs(field, 41):
            assert a.compose(b).to_plane() == a.to_plane().compose(b.to_plane())
            assert a.compose(b).is_invertible()

    def test_inverse_composes_to_the_identity(self, field):
        for a, b in _atom_pairs(field, 43):
            for g in (a, b, a.compose(b)):
                assert g.inverse().compose(g) == type(g).identity(field)
                assert g.compose(g.inverse()).to_plane().is_identity()
                if isinstance(g, ElemAuto):
                    assert g.inverse().compose(g).is_identity()

    def test_triangular_atoms_round_trip_through_affine_form(self, field):
        rng = random.Random(47)
        for _ in range(8):
            c0, c1 = field.random_element(rng, 5), field.random_element(rng, 5)
            t = ElemAuto(field, field.random_nonzero(rng, 5), field.random_element(rng, 5),
                         field.random_nonzero(rng, 5), Poly1(field, {0: c0, 1: c1}))
            assert ElemAuto.from_affine(t.to_affine()) == t
            assert t.to_affine().to_plane() == t.to_plane()
            assert as_affine(t.to_plane()) == t.to_affine()
            assert ElemAuto.from_affine(t.to_affine()).to_affine() == t.to_affine()

    def test_triangular_members_have_the_same_numerators_in_both_atoms(self, field):
        rng = random.Random(59)
        for _ in range(8):
            a, d = field.random_nonzero(rng, 5), field.random_nonzero(rng, 5)
            c, u, v = (field.random_element(rng, 5) for _ in range(3))
            aff = AffineAuto(field, ((a, field.zero), (c, d)), (u, v))
            el = ElemAuto(field, a, u, d, Poly1(field, {1: c, 0: v}))
            assert (aff._num, aff._den) == (el._num, el._den)
            assert el.to_affine() == aff and ElemAuto.from_affine(aff) == el

    def test_equal_atoms_built_along_different_paths_hash_equal(self, field):
        for a, b in _atom_pairs(field, 53, count=4):
            # the constructor from the read-back elements, compose with the
            # identity on either side, a double inverse, and a JSON round trip
            if isinstance(a, AffineAuto):
                rebuilt = AffineAuto(field, a.m, a.shift)
            else:
                rebuilt = ElemAuto(field, a.z1, a.t0, a.z2, a.f)
            e = type(a).identity(field)
            word = AmalgamWord(field, (a,), b if isinstance(b, ElemAuto) else ElemAuto.identity(field))
            (from_json,) = word_from_json(word_to_json(word)).factors
            for other in (rebuilt, e.compose(a), a.compose(e), a.inverse().inverse(), from_json,
                          a.compose(b).compose(b.inverse())):
                assert other == a and hash(other) == hash(a)

    def test_recognizers_agree_with_the_atoms(self, field):
        for a, b in _atom_pairs(field, 59):
            g = a.compose(b)
            if isinstance(g, AffineAuto):
                assert as_affine(g.to_plane()) == g
            else:
                assert as_elementary(g.to_plane()) == g


def _random_pair(field, rng):
    def poly():
        terms = {(rng.randint(0, 3), rng.randint(0, 3)): field.random_element(rng, 4)
                 for _ in range(rng.randint(0, 4))}
        return Poly2(field, terms)
    return poly(), poly()


class TestAtomAction:
    def test_apply_matches_generic_substitution(self, field):
        rng = random.Random(29)
        x, y = Poly2.x(field), Poly2.y(field)
        for _ in range(8):
            for atom in (random_affine(field, rng, 4), random_elementary(field, rng, 3, 4)):
                p, q = _random_pair(field, rng)
                want = atom.to_plane().compose(PlaneAuto(p, q))
                assert PlaneAuto(*atom.apply(p, q)) == want
                assert atom.inverse().apply(*atom.apply(x, y)) == (x, y)

    def test_to_plane_matches_the_closed_form(self, field):
        rng = random.Random(31)
        for _ in range(8):
            a, b = field.random_element(rng, 4), field.random_element(rng, 4)
            aff = random_affine(field, rng, 4)
            (m00, m01), (m10, m11) = aff.m
            u, v = m00 * a + m01 * b, m10 * a + m11 * b
            assert evaluate_auto(aff.to_plane(), (a, b)) == (u + aff.shift[0], v + aff.shift[1])
            el = random_elementary(field, rng, 3, 4)
            want = (el.z1 * a + el.t0, el.z2 * b + evaluate_poly1(el.f, a))
            assert evaluate_auto(el.to_plane(), (a, b)) == want


class TestLineShear:
    def test_diagonal_line_example(self):
        # direction (1, 1), profile t^2: both coordinates gain (x - y)^2
        g = shear_recompose(QQ, [(ProjPoint.of(QQ, 1, 1), Poly1.monomial(QQ, 2, Fraction(1)))])
        assert format_auto(g) == "x + x^2 - 2*x*y + y^2, y + x^2 - 2*x*y + y^2"

    def test_vertical_and_horizontal_lines(self):
        f = Poly1.monomial(QQ, 2, Fraction(1))
        assert format_auto(shear_recompose(QQ, [(ProjPoint.of(QQ, 0, 1), f)])) == "x, y + x^2"
        assert format_auto(shear_recompose(QQ, [(ProjPoint.infinity(QQ), f)])) == "x + y^2, y"

    @given(poly1(QQ, max_deg=4))
    @example(Poly1.monomial(QQ, 3, Fraction(-1, 2)))
    @settings(max_examples=30)
    def test_profiles_add_along_a_fixed_line(self, f):
        f = f.drop_below(2)
        if f.is_zero():
            return
        delta = ProjPoint.of(QQ, 2, 1)
        g = Poly1.monomial(QQ, 3, Fraction(1, 2))
        lhs = shear_recompose(QQ, [(delta, f)]).compose(shear_recompose(QQ, [(delta, g)]))
        if (f + g).is_zero():
            # the zero profile is not a line shear; the two cancel
            assert lhs == PlaneAuto(Poly2.x(QQ), Poly2.y(QQ))
        else:
            assert lhs == shear_recompose(QQ, [(delta, f + g)])

    def test_rejects_low_order_profiles(self):
        # over each field and direction, and for every pair, not only the first one applied (the last)
        for field in FIELDS:
            one, t2 = field.one, Poly1.monomial(field, 2, field.one)
            good = (ProjPoint.of(field, one, one), t2)
            for bad in (Poly1.zero(field), Poly1.one(field), Poly1.gen(field), Poly1.constant(field, one) + t2,
                        Poly1.gen(field) + t2):
                for delta in (ProjPoint.of(field, one, one), ProjPoint.of(field, field.zero, one),
                              ProjPoint.infinity(field)):
                    for pairs in ([(delta, bad)], [(delta, bad), good]):
                        with pytest.raises(ValueError, match=r"^shear profile must be nonzero with valuation >= 2$"):
                            shear_recompose(field, pairs)


class TestScaledShearFamily:
    """(x, y) -> (z x, y/z + a x^(n-1)) composes by twisting the shear
    coefficient with the n-th power of the incoming scale."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_twisted_product_law(self, n):
        def phi(z, a):
            # (z x, y/z + (a/z) x^(n-1))
            z = QQ.of(z)
            x, y = Poly2.x(QQ), Poly2.y(QQ)
            return PlaneAuto(x.scale(z),
                             y.scale(QQ.one / z) + Poly2(QQ, {(n - 1, 0): QQ.of(a) / z}))

        assert phi(2, 0).compose(phi(1, 1)) == phi(2, 1)
        assert phi(1, 1).compose(phi(2, 0)) == phi(2, 2 ** n)
        assert phi(3, 2).compose(phi(2, 5)) == phi(6, 2 * 2 ** n + 5)

    def test_halving_conjugation_multiplies_shear_order(self):
        # conjugating (x, y + x^n) by (2x, y/2) raises it to the 2^(n+1) power
        h = AffineAuto(QQ, ((2, 0), (0, Fraction(1, 2)))).to_plane()
        hi = AffineAuto(QQ, ((Fraction(1, 2), 0), (0, 2))).to_plane()
        for n in range(1, 5):
            u = ElemAuto.shear(QQ, Poly1.monomial(QQ, n, Fraction(1))).to_plane()
            conj = compose_all(hi, u, h)
            power = ElemAuto.shear(QQ, Poly1.monomial(QQ, n, Fraction(2 ** (n + 1)))).to_plane()
            assert conj == power


class TestValidation:
    def test_mixed_fields_are_rejected(self):
        with pytest.raises(ValueError):
            PlaneAuto(Poly2.x(QQ), Poly2.y(F5))

    def test_singular_affine_reports_not_invertible(self):
        aff = AffineAuto(QQ, ((1, 2), (2, 4)))
        assert not aff.is_invertible()
        # det is multiplicative: a singular factor makes a singular product
        other = AffineAuto(QQ, ((2, 1), (1, 1)), (1, 0))
        assert not aff.compose(other).is_invertible() and not other.compose(aff).is_invertible()
        singular = AffineAuto(F5, ((1, 3), (2, 1)))
        assert not singular.is_invertible()
        with pytest.raises(ZeroDivisionError):
            singular.inverse()

    @pytest.mark.parametrize("m, shift", [
        (((1, 0), (0, 1)), (1, 2, 3)),
        (((1, 0), (0, 1)), (1,)),
        (((1, 0), (0, 1)), ()),
        (((1, 0), (0, 1), (0, 0)), (0, 0)),
        (((1, 0),), (0, 0)),
        (((1, 0, 0), (0, 1)), (0, 0)),
        (((1,), (0, 1)), (0, 0)),
    ], ids=["shift-of-3", "shift-of-1", "empty-shift", "three-rows", "one-row", "row-of-3", "row-of-1"])
    def test_affine_shape_is_two_rows_of_two_and_a_shift_of_two(self, m, shift):
        with pytest.raises(ValueError):
            AffineAuto(QQ, m, shift)
