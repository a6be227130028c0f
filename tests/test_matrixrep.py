"""The degree-filtered matrix group and its shear dictionary."""

import random
import time
from fractions import Fraction

import pytest

from tameplane import (
    NotInMatrixGroup,
    Poly1,
    PolyMat2,
    PrimeField,
    ProjPoint,
    QQ,
    ShearFactor,
    from_matrix,
    line_matrix,
    matrix_factor,
    matrix_recompose,
    matrix_reduced_word,
    pingpong_check,
    shear_recompose,
    to_matrix,
)
from tameplane import matrixrep, poly
from tameplane.linear import nil_factors
from tameplane.matrixrep import (
    FactorizationInvariantError,
    PingPongResult,
    _shear_left,
)
from tameplane.poly import NEG_INF
from tameplane.sampling import (
    random_matrix_factors,
    random_proj_point,
    random_shear_pairs,
)
from tameplane.textio import format_polymat, parse_auto, parse_polymat

from conftest import F2, F5, F1000003, QZ

F3 = PrimeField(3)
KERNEL_FIELDS = (QQ, F5, F1000003, QZ)
KERNEL_IDS = ("q", "fp5", "fp1000003", "qz")


def entrywise_product(m, n):
    """m * n from Poly1 products and sums, the reference for PolyMat2.__mul__."""
    return PolyMat2(m.field, m.e00 * n.e00 + m.e01 * n.e10, m.e00 * n.e01 + m.e01 * n.e11,
                    m.e10 * n.e00 + m.e11 * n.e10, m.e10 * n.e01 + m.e11 * n.e11)


def product_of(field, factors):
    out = PolyMat2.identity(field)
    for fac in factors:
        out = out * fac.to_matrix()
    return out


class TestGroupMembership:
    def test_rejects_wrong_determinant(self):
        for field, text, det in ((QQ, "1 + t, 0 ; 0, 1", "1 + t"), (F5, "1, t ; t, 1", "1 + 4*t^2")):
            with pytest.raises(NotInMatrixGroup) as exc:
                matrix_factor(parse_polymat(field, text))
            assert str(exc.value) == "determinant %s is not 1" % det

    def test_rejects_wrong_value_at_zero(self):
        # determinant one, but t = 0 gives a nontrivial unipotent or diagonal matrix
        for field, text in ((QQ, "1, 1 ; 0, 1"), (QQ, "2, 0 ; 0, 1/2"), (F5, "2, 0 ; 0, 3"),
                            (QZ, "z, 0 ; 0, 1/z")):
            with pytest.raises(NotInMatrixGroup) as exc:
                matrix_factor(parse_polymat(field, text))
            assert str(exc.value) == "value at t = 0 is not the identity"

    def test_accepts_the_identity(self):
        assert matrix_factor(PolyMat2.identity(QQ)) == []

    def test_constant_term_one_over_a_denominator_is_the_identity(self):
        # 1 + t/2 stores the numerators {0: 2, 1: 1} over 2
        g = parse_polymat(QQ, "1 + t/2, -t/2 ; t/2, 1 - t/2")
        assert matrix_factor(g) == [ShearFactor(ProjPoint.of(QQ, 1, 1), QQ.of(Fraction(1, 2)), 1)]


class TestWorkedExample:
    def test_factorization(self):
        g = parse_polymat(QQ, "1, t ; t, 1 + t^2")
        factors = matrix_factor(g)
        assert [format_polymat(f.to_matrix()) for f in factors] == [
            "1, 0 ; t, 1",
            "1, t ; 0, 1",
        ]
        assert product_of(QQ, factors) == g

    def test_factor_directions(self):
        g = parse_polymat(QQ, "1, t ; t, 1 + t^2")
        first, second = matrix_factor(g)
        assert first.delta == ProjPoint.of(QQ, 0, 1)
        assert second.delta == ProjPoint.infinity(QQ)
        assert first.k == second.k == 1


class TestMatrixFactor:
    def test_degree_strictly_decreases_during_peeling(self):
        # over F_2 the row w of (1 : 1) is (1, 1), so b = w^T g adds two
        # unit residues into 2, which is zero only once reduced
        rng = random.Random(61)
        for field in (QQ, F5, F2, F3):
            for _ in range(20):
                g = product_of(field, random_matrix_factors(field, rng))
                factors = matrix_factor(g)
                assert product_of(field, factors) == g
                # replay the peeling and watch the degree drop
                work, degrees = g, [g.degree()]
                for fac in factors:
                    work = ShearFactor(fac.delta, -fac.c, fac.k).to_matrix() * work
                    degrees.append(work.degree())
                assert work.is_identity()
                assert all(a > b for a, b in zip(degrees[:-1], degrees[1:])
                           if b >= 1)

    def test_reduced_word_round_trip(self):
        rng = random.Random(67)
        for field in (QQ, F5):
            for _ in range(20):
                pairs = matrix_reduced_word(product_of(
                    field, random_matrix_factors(field, rng)))
                assert matrix_recompose(field, pairs) == matrix_recompose(
                    field, matrix_reduced_word(matrix_recompose(field, pairs)))
                for (d1, _), (d2, _) in zip(pairs, pairs[1:]):
                    assert d1 != d2
                for _, h in pairs:
                    assert not h.coeff(0) and not h.is_zero()
        # multi-term letters: the word comes back exactly, and the factors
        # are its letters split into monomials from the top degree down
        for field in KERNEL_FIELDS + (F2, F3):
            for _ in range(20):
                pairs = random_reduced_word(field, rng)
                g = matrix_recompose(field, pairs)
                assert matrix_reduced_word(g) == tuple(pairs)
                assert matrix_factor(g) == monomial_factors(pairs)

    def test_sparse_high_degree_peels_in_time_with_the_terms(self):
        # each letter's division walks the exponents present, not all 10^6 below the top
        tt, inf = Poly1.gen(QQ), ProjPoint.infinity(QQ)
        big = tt ** 1000000
        sparse = big - tt ** 999999 + tt ** 2
        words = ([(inf, big)], [(inf, big + tt.scale(QQ.of(3)))],
                 [(inf, sparse), (ProjPoint.of(QQ, 0, 1), big), (ProjPoint.of(QQ, 2, 1), sparse)])
        for pairs in words:
            g = matrix_recompose(QQ, pairs)
            start = time.perf_counter()
            factors = matrix_factor(g)
            elapsed = time.perf_counter() - start
            assert factors == monomial_factors(pairs)
            assert elapsed < 0.5, "budget 0.5 s, took %.3f s" % elapsed

    def test_merges_same_direction_runs(self):
        delta = ProjPoint.of(QQ, 1, 1)
        a = ShearFactor(delta, QQ.of(2), 1)
        b = ShearFactor(delta, QQ.of(-1), 3)
        g = product_of(QQ, [a, b])
        word = matrix_reduced_word(g)
        assert len(word) == 1
        assert word[0][0] == delta
        tt = Poly1.gen(QQ)
        assert word[0][1] == tt.scale(QQ.of(2)) - tt ** 3


def random_reduced_word(field, rng):
    """1-4 (direction, parameter) pairs, adjacent directions distinct, each
    parameter 1-3 nonzero terms of degree 1 to 5."""
    pairs = []
    for _ in range(rng.randint(1, 4)):
        delta = random_proj_point(field, rng)
        if not pairs or pairs[-1][0] != delta:
            exps = rng.sample(range(1, 6), rng.randint(1, 3))
            pairs.append((delta, Poly1(field, {e: field.random_nonzero(rng) for e in exps})))
    return pairs


def monomial_factors(pairs):
    """The letters (delta, h) split into monomial factors, top degree first."""
    return [ShearFactor(delta, h.coeff(k), k)
            for delta, h in pairs for k in sorted(h.keys(), reverse=True)]


class TestShearFactorPair:
    @pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_IDS)
    def test_pair_round_trips(self, field):
        rng = random.Random(113)
        for fac in random_matrix_factors(field, rng, max_factors=6):
            delta, h = fac.pair()
            assert h == Poly1.monomial(field, fac.k, fac.c)
            assert ShearFactor(delta, h.leading_coeff(), h.degree()) == fac
            assert line_matrix(delta, h) == fac.to_matrix()
            assert matrix_reduced_word(fac.to_matrix()) == (fac.pair(),)


class TestLineMatrix:
    def test_det_one_and_identity_at_zero(self):
        rng = random.Random(71)
        for _ in range(10):
            delta = random_proj_point(QQ, rng)
            h = Poly1(QQ, {1: Fraction(2), 3: Fraction(-1)})
            m = line_matrix(delta, h)
            assert m.det() == Poly1.one(QQ)
            assert m.coeff(0) == (1, 0, 0, 1)

    def test_image_direction(self):
        delta = ProjPoint.of(QQ, 3, 1)
        m = line_matrix(delta, Poly1.monomial(QQ, 2, Fraction(1)))
        col = ((m.e00 - Poly1.one(QQ)).coeff(2), m.e10.coeff(2))
        assert ProjPoint.of(QQ, *col) == delta


def random_poly1(field, rng, max_deg=4, low=0):
    """Zero one time in five, otherwise up to max_deg + 1 random terms."""
    if rng.random() < 0.2:
        return Poly1.zero(field)
    return Poly1(field, {e: field.random_element(rng) for e in range(low, max_deg + 1)
                         if rng.random() < 0.6})


def kernel_cases(field, rng):
    """(delta, h, g) triples: infinity, (0 : 1) and random directions,
    monomial and multi-term h, g with zero entries and random g."""
    tt = Poly1.gen(field)
    directions = [ProjPoint.infinity(field), ProjPoint.of(field, 0, 1)]
    directions += [random_proj_point(field, rng) for _ in range(3)]
    params = [Poly1.monomial(field, rng.randint(1, 4), field.random_nonzero(rng)),
              tt + tt ** 3 - tt.scale(field.random_nonzero(rng)) ** 2,
              random_poly1(field, rng, low=1)]
    zero, one = Poly1.zero(field), Poly1.one(field)
    mats = [PolyMat2.identity(field), PolyMat2(field, zero, zero, zero, zero),
            PolyMat2(field, zero, tt, one, zero),
            PolyMat2(field, random_poly1(field, rng), zero, zero, random_poly1(field, rng))]
    mats += [PolyMat2(field, *(random_poly1(field, rng) for _ in range(4))) for _ in range(4)]
    for delta in directions:
        for h in params:
            for g in mats:
                yield delta, h, g


def pingpong_via_matrix(pairs, sample):
    """The ping-pong result read off the product matrix acting on sample."""
    field = sample.field
    g = PolyMat2.identity(field)
    for delta, h in pairs:
        g = g * line_matrix(delta, h)
    assert matrix_recompose(field, pairs) == g
    a, b = sample.vector()
    u0, u1 = g.e00.scale(a) + g.e01.scale(b), g.e10.scale(a) + g.e11.scale(b)
    expected_degree = sum(h.degree() for _, h in pairs)
    deg = max(u0.degree(), u1.degree())
    if deg is NEG_INF:
        return PingPongResult(sample, -1, expected_degree, None, pairs[0][0], False)
    end_dir = ProjPoint.of(field, u0.coeff(deg), u1.coeff(deg))
    moved = deg > 0 or end_dir != sample
    return PingPongResult(sample, deg, expected_degree, end_dir, pairs[0][0], moved)


class TestRankOneKernel:
    @pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_IDS)
    def test_left_update_is_the_left_product(self, field):
        rng = random.Random(101)
        for delta, h, g in kernel_cases(field, rng):
            assert _shear_left(delta, h, g) == entrywise_product(line_matrix(delta, h), g)

    @pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_IDS)
    def test_right_update_is_the_right_product(self, field):
        # matrix_recompose folds left updates from the last pair back, so
        # appending a pair must multiply the product on the right
        rng = random.Random(103)
        for delta, h in dict.fromkeys((d, h) for d, h, _ in kernel_cases(field, rng)):
            pairs = [f.pair() for f in random_matrix_factors(field, rng, max_factors=3)]
            assert matrix_recompose(field, pairs + [(delta, h)]) \
                == matrix_recompose(field, pairs) * line_matrix(delta, h)

    @pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_IDS)
    def test_pingpong_matches_the_product_matrix(self, field):
        # pingpong_via_matrix also checks matrix_recompose against the product
        rng = random.Random(109)
        for _ in range(25):
            factors = random_matrix_factors(field, rng, max_factors=4)
            pairs = [(f.delta, Poly1.monomial(field, f.k, f.c)) for f in factors]
            if rng.random() < 0.5:
                # a multi-term parameter on the first-acting factor
                pairs[-1] = (pairs[-1][0], pairs[-1][1] + random_poly1(field, rng, low=1))
                if pairs[-1][1].is_zero():
                    continue
            sample = random_proj_point(field, rng)
            while sample == pairs[-1][0]:
                sample = random_proj_point(field, rng)
            assert pingpong_check(pairs, sample) == pingpong_via_matrix(pairs, sample)


class TestFusedProduct:
    @pytest.mark.parametrize("field", KERNEL_FIELDS + (F2,), ids=KERNEL_IDS + ("fp2",))
    def test_product_and_det_match_the_entrywise_reference(self, field):
        rng = random.Random(127)
        zero, one, tt = Poly1.zero(field), Poly1.one(field), Poly1.gen(field)
        mats = [PolyMat2.identity(field), PolyMat2(field, zero, zero, zero, zero),
                PolyMat2(field, zero, tt, one, zero),
                line_matrix(random_proj_point(field, rng), random_poly1(field, rng, low=1))]
        mats += [PolyMat2(field, *(random_poly1(field, rng) for _ in range(4))) for _ in range(6)]
        for m in mats:
            assert m.det() == m.e00 * m.e11 - m.e01 * m.e10
            for n in mats:
                assert m * n == entrywise_product(m, n)
        with pytest.raises(TypeError):  # numerators of two fields never mix
            mats[0] * PolyMat2.identity(F5 if field is QQ else QQ)

    @pytest.mark.parametrize("field", (QQ, F5, F2), ids=("q", "fp5", "fp2"))
    def test_products_of_400_term_pairs_take_the_packed_path(self, field, monkeypatch):
        rng = random.Random(131)
        m, n = (PolyMat2(field, *(Poly1(field, {e: field.random_nonzero(rng) for e in range(20)})
                                  for _ in range(4))) for _ in range(2))
        packed = []
        kronecker_mul = poly._kronecker_mul
        monkeypatch.setattr(poly, "_kronecker_mul", lambda a, b: packed.append(1) or kronecker_mul(a, b))
        product, det = m * n, m.det()
        assert len(packed) == 10  # two 20 x 20 products per entry and two for det
        assert product == entrywise_product(m, n)
        assert det == m.e00 * m.e11 - m.e01 * m.e10


class TestShearDictionary:
    def test_to_matrix_worked_example(self):
        assert format_polymat(to_matrix(parse_auto(QQ, "x, y + x^2"))) \
            == "1, 0 ; t, 1"

    def test_from_matrix_worked_example(self):
        auto = shear_recompose(QQ, from_matrix(parse_polymat(QQ, "1, t ; t, 1 + t^2")))
        assert auto.max_degree() == 4
        assert to_matrix(auto) == parse_polymat(QQ, "1, t ; t, 1 + t^2")

    def test_round_trip_from_plane_side(self):
        rng = random.Random(73)
        for field in (QQ, F5):
            for _ in range(10):
                pairs = random_shear_pairs(field, rng, degree_budget=10)
                g = shear_recompose(field, pairs)
                assert shear_recompose(field, from_matrix(to_matrix(g))) == g

    def test_round_trip_from_matrix_side(self):
        rng = random.Random(79)
        for field in (QQ, F5):
            for _ in range(10):
                m = product_of(field, random_matrix_factors(field, rng))
                assert to_matrix(from_matrix(m)) == m

    def test_matrix_composition_matches_plane_composition(self):
        rng = random.Random(83)
        for _ in range(5):
            a = shear_recompose(QQ, random_shear_pairs(QQ, rng, degree_budget=6))
            b = shear_recompose(QQ, random_shear_pairs(QQ, rng, degree_budget=6))
            assert to_matrix(a.compose(b)) == to_matrix(a) * to_matrix(b)

    def test_three_pairs_of_the_function_field_cliff_recompose_within_budget(self):
        # the reproducer of the known q-of-z cliff: four pairs, of which the
        # first three recompose to 190 + 190 terms; all four do not finish
        pairs = from_matrix(product_of(QZ, random_matrix_factors(QZ, random.Random(11),
                                                                 max_factors=4)))
        start = time.perf_counter()
        auto = shear_recompose(QZ, pairs[:3])
        elapsed = time.perf_counter() - start
        assert (len(pairs), len(auto.p.terms), len(auto.q.terms)) == (4, 190, 190)
        assert elapsed < 5.0, "budget 5 s, took %.3f s" % elapsed

    def test_rejects_maps_not_tangent_to_identity(self):
        for bad in ("2*x, y", "x + 1, y", "y, x"):
            with pytest.raises(ValueError):
                to_matrix(parse_auto(QQ, bad))


class TestPingPong:
    def test_single_factor_lands_on_the_line(self):
        rng = random.Random(89)
        for _ in range(30):
            fac = random_matrix_factors(QQ, rng, max_factors=1)[0]
            sample = random_proj_point(QQ, rng)
            while sample == fac.delta:
                sample = random_proj_point(QQ, rng)
            pairs = [(fac.delta, Poly1.monomial(QQ, fac.k, fac.c))]
            result = pingpong_check(pairs, sample)
            assert result.ok
            assert result.end_direction == fac.delta
            assert result.degree == fac.k

    def test_reduced_word_degree_prediction(self):
        rng = random.Random(97)
        for _ in range(30):
            factors = random_matrix_factors(F5, rng, max_factors=4)
            pairs = [(f.delta, Poly1.monomial(F5, f.k, f.c)) for f in factors]
            sample = random_proj_point(F5, rng)
            while sample == pairs[-1][0]:
                sample = random_proj_point(F5, rng)
            result = pingpong_check(pairs, sample)
            assert result.ok
            assert result.expected_degree == sum(f.k for f in factors)

    def test_precondition_violations_raise(self):
        delta = ProjPoint.of(QQ, 0, 1)
        h = Poly1.monomial(QQ, 1, Fraction(1))
        with pytest.raises(ValueError):
            pingpong_check([], delta)
        with pytest.raises(ValueError):
            pingpong_check([(delta, h)], delta)  # sample on the acting line
        with pytest.raises(ValueError):
            pingpong_check([(delta, h), (delta, h)], ProjPoint.infinity(QQ))


class TestInvariantGuards:
    def test_non_members_past_the_membership_check_raise(self, monkeypatch):
        # with the up-front check off, the degree-drop and identity-remainder
        # checks still refuse each non-member instead of looping or returning;
        # every peel step reads one nil_factors, so counting them bounds the loop
        steps = []

        def counted_nil_factors(delta):
            steps.append(delta)
            assert len(steps) <= 10, "peeling loops"
            return nil_factors(delta)

        monkeypatch.setattr(matrixrep, "_validate_group_member", lambda g: None)
        monkeypatch.setattr(matrixrep, "nil_factors", counted_nil_factors)
        cases = [(QQ, "1 + t, 0 ; 0, 1"), (QQ, "1, 1 ; 0, 1"), (QQ, "1 + t, t ; t, 1 + t"),
                 (QQ, "1 + t^2, t ; 0, 1"), (QQ, "2, t ; 0, 1/2"), (F5, "1 + t, 0 ; 0, 1 + 4*t")]
        for field, text in cases:
            steps.clear()
            with pytest.raises(FactorizationInvariantError):
                matrix_reduced_word(parse_polymat(field, text))

    def test_every_member_factors(self):
        # membership (det 1, id at 0) is exactly factorability; a matrix
        # assembled from dense multi-term line matrices still peels cleanly
        tt = Poly1.gen(QQ)
        g = PolyMat2(QQ, tt + 1, tt, -tt, Poly1.one(QQ) - tt)
        factors = matrix_factor(g)  # g = id + t * (rank-one on the (-1:1) line)
        assert product_of(QQ, factors) == g
        h1 = tt + tt ** 2 - tt.scale(QQ.of(3)) ** 3
        h2 = tt.scale(QQ.of(2)) + tt ** 4
        m = line_matrix(ProjPoint.of(QQ, 2, 1), h1) \
            * line_matrix(ProjPoint.infinity(QQ), h2) \
            * line_matrix(ProjPoint.of(QQ, 0, 1), h1 + h2)
        assert product_of(QQ, matrix_factor(m)) == m
