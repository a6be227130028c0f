"""Sparse polynomial arithmetic in one and two variables.

Ring laws are property tests; a handful of derived operations are pinned
against an independent sympy oracle with frozen inputs.  The packed
multiply is checked against the dict loop, which is its reference.
"""

import operator
import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from tameplane import NEG_INF, ElemAuto, PlaneAuto, Poly1, Poly2, QQ, parse_auto
from tameplane import poly
from tameplane.scalars import power

from conftest import F1000003, F5, F_M61, MIXED_FIELDS, QZ, nonzero_scalars, poly1, poly2, scalars
from oracles import evaluate_auto, evaluate_poly1, evaluate_poly2

PACKED_FIELDS = (QQ, F5, F1000003, F_M61)


def dense_poly2(field):
    """21 nonzero terms, on the exponents of total degree <= 5.  c * c has
    441 term pairs, past both packed-multiply crossovers."""
    keys = [(i, d - i) for d in range(6) for i in range(d + 1)]
    return st.lists(nonzero_scalars(field), min_size=21, max_size=21).map(
        lambda cs: Poly2(field, dict(zip(keys, cs))))


x, y, t = sympy.symbols("x y t")


def to_sympy1(p: Poly1):
    return sum(sympy.Rational(c.numerator, c.denominator) * t ** e
               for e, c in p.terms.items())


def from_sympy1(expr) -> Poly1:
    poly = sympy.Poly(expr, t)
    terms = {}
    for (e,), c in poly.terms():
        frac = sympy.Rational(c)
        terms[e] = Fraction(int(frac.p), int(frac.q))
    return Poly1(QQ, terms)


def to_sympy2(p: Poly2):
    return sum(sympy.Rational(c.numerator, c.denominator) * x ** i * y ** j
               for (i, j), c in p.terms.items())


class TestDegrees:
    def test_zero_polynomial_degree_is_minus_infinity(self):
        z = Poly1.zero(QQ)
        assert z.degree() is NEG_INF
        assert Poly2.zero(QQ).total_degree() is NEG_INF
        # the sentinel orders below every integer
        assert NEG_INF < -10 ** 9
        assert not NEG_INF >= 0

    @given(poly1(QQ), poly1(QQ))
    def test_degree_of_product_adds(self, p, q):
        if p.is_zero() or q.is_zero():
            assert (p * q).is_zero()
        else:
            assert (p * q).degree() == p.degree() + q.degree()

    @given(poly2(QQ), poly2(QQ))
    def test_total_degree_of_product_adds(self, p, q):
        if p.is_zero() or q.is_zero():
            assert (p * q).is_zero()
        else:
            assert (p * q).total_degree() == p.total_degree() + q.total_degree()

    @given(poly1(F5), poly1(F5))
    def test_degree_adds_mod5_too(self, p, q):
        # no zero divisors over a field
        if not (p.is_zero() or q.is_zero()):
            assert (p * q).degree() == p.degree() + q.degree()


class TestRingLaws:
    @given(st.data())
    def test_commutative_ring_axioms(self, data):
        for field in PACKED_FIELDS:
            a = data.draw(poly2(field))
            b = data.draw(poly2(field))
            c = data.draw(poly2(field))
            # dense enough that d * d and d * (d * a) cross the packed crossovers
            d = data.draw(dense_poly2(field))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) * c == a * c + b * c
            assert a * (b * c) == (a * b) * c
            assert a - a == Poly2.zero(field)
            assert a * Poly2.one(field) == a
            assert a * d == d * a
            assert (a + b) * d == a * d + b * d
            assert d * (d * a) == (d * d) * a
            assert d * Poly2.one(field) == d

    @given(poly1(QQ), scalars(QQ))
    def test_scale_matches_constant_multiplication(self, p, c):
        assert p.scale(c) == p * Poly1.constant(QQ, c)


def _coeff(field, rng, big):
    # negative and, over Q, large numerators and denominators
    if field is QQ:
        h = 10 ** 30 if big else 9
        return Fraction(rng.randint(-h, h) or 1, rng.randint(1, h))
    return field.of(rng.randrange(-field.p + 1, field.p) or 1)


def _dense(cls, field, rng, n, big=False):
    """n terms: exponents 0..n-1, or the first n exponent pairs by degree."""
    keys = range(n) if cls is Poly1 else [(i, d - i) for d in range(n) for i in range(d + 1)][:n]
    return cls(field, {k: _coeff(field, rng, big) for k in keys})


def _telescope(cls, field, n):
    """x - 1 and a sum of at least n monomials whose product cancels in every
    inner slot: (t - 1)(1 + ... + t^(n-1)) = t^n - 1, and in two variables
    (x - 1)(1 + ... + x^(m-1))(1 + y) = (x^m - 1)(1 + y)."""
    if cls is Poly1:
        return (Poly1(field, {1: field.one, 0: -field.one}),
                Poly1(field, {i: field.one for i in range(n)}))
    return (Poly2(field, {(1, 0): field.one, (0, 0): -field.one}),
            Poly2(field, {(i, j): field.one for i in range((n + 1) // 2) for j in (0, 1)}))


def _product(a, b, nums):
    """The element view of raw product numerators of a and b, which are over
    the product of their denominators."""
    return type(a)._normalized(a.field, nums, a._den * b._den).terms


class TestPackedMultiply:
    """The packed path and the dict loop give equal terms, called directly,
    on both sides of each crossover; ``*`` agrees with both."""

    @pytest.mark.parametrize("cls", (Poly1, Poly2), ids=("poly1", "poly2"))
    @pytest.mark.parametrize("field", PACKED_FIELDS, ids=repr)
    def test_packed_equals_dict_loop(self, field, cls):
        rng = random.Random(20260)
        cross = poly._PACK_MIN_PAIRS[type(field)]
        k = int(cross ** 0.5)
        shapes = [(1, cross - 1), (1, cross), (k - 1, k), (k, k), (k, k + 1), (2, cross // 2 + 1),
                  (0, 5), (5, 0), (0, 0)]
        cases = []
        for big in (False, True):
            for na, nb in shapes:
                cases.append((_dense(cls, field, rng, na, big), _dense(cls, field, rng, nb, big)))
            # a constant operand, and a product that cancels in some slots
            c = cls.constant(field, _coeff(field, rng, big))
            cases.append((c, _dense(cls, field, rng, cross, big)))
            a, b = _telescope(cls, field, cross)
            cases.append((a.scale(_coeff(field, rng, big)), b))
        for a, b in cases:
            want = _product(a, b, a._mul_dict(b))
            assert _product(a, b, a._mul_packed(b)) == want
            assert _product(b, a, b._mul_packed(a)) == want
            assert (a * b).terms == want

    @pytest.mark.parametrize("field", PACKED_FIELDS, ids=repr)
    def test_cancellation_mod_p_and_over_q(self, field):
        # (x + y)(x - y) has no xy term in any field; over F_5 the xy
        # coefficient 5 of (x + y)(x + 4y) reduces to zero too
        x, y = Poly2.x(field), Poly2.y(field)
        for a, b in (((x + y) ** 4, (x - y) ** 4), ((x + y) ** 4, (x + 4 * y) ** 4)):
            want = _product(a, b, a._mul_dict(b))
            assert _product(a, b, a._mul_packed(b)) == want
            assert (a * b).terms == want
        assert ((x + y) ** 4 * (x - y) ** 4).coeff(7, 1) == field.zero

    def test_sparse_products_stay_on_the_dict_loop(self):
        # exponents near 10^9 would need a billion slots; the packed path
        # declines and * still answers at once
        rng = random.Random(5)
        for field in PACKED_FIELDS:
            n = poly._PACK_MIN_PAIRS[type(field)]
            a = Poly1(field, {10 ** 9 * e: _coeff(field, rng, False) for e in range(n)})
            b = _dense(Poly1, field, rng, 2)
            assert a._mul_packed(b) is None
            assert (a * b).terms == _product(a, b, a._mul_dict(b))
            a = Poly2(field, {(10 ** 9 * e, e): _coeff(field, rng, False) for e in range(n)})
            b = _dense(Poly2, field, rng, 2)
            assert a._mul_packed(b) is None
            assert (a * b).terms == _product(a, b, a._mul_dict(b))

    @pytest.mark.parametrize("field", PACKED_FIELDS, ids=repr)
    def test_homogeneous_products_stay_packed(self, field):
        # (x - y) times an anti-diagonal: 98 term pairs; slot (i, j) at
        # (i+j)*W + j, shifted down by the lowest slot, leaves 50 slots
        rng = random.Random(7)
        x, y = Poly2.x(field), Poly2.y(field)
        a = x - y
        b = Poly2(field, {(i, 48 - i): _coeff(field, rng, False) for i in range(49)})
        packed = a._mul_packed(b)
        assert packed is not None and max(i + j for i, j in _product(a, b, packed)) == 49
        want = _product(a, b, a._mul_dict(b))
        assert _product(a, b, packed) == want
        assert (a * b).terms == want

    @pytest.mark.parametrize("field", PACKED_FIELDS, ids=repr)
    def test_long_anti_diagonal_products_take_the_packed_path(self, field, monkeypatch):
        # the same shape with 400 term pairs, past the crossover: * packs it
        # into 201 slots, where the layout i*W + j would need 40,401
        calls = []
        kronecker = poly._kronecker_mul

        def spy(a, b):
            out = kronecker(a, b)
            calls.append(out is not None)
            return out

        monkeypatch.setattr(poly, "_kronecker_mul", spy)
        rng = random.Random(8)
        x, y = Poly2.x(field), Poly2.y(field)
        a = x - y
        b = Poly2(field, {(i, 199 - i): _coeff(field, rng, True) for i in range(200)})
        assert len(a.terms) * len(b.terms) == poly._PACK_MIN_PAIRS[type(field)]
        got = (a * b).terms
        assert calls == [True]
        assert got == _product(a, b, a._mul_dict(b))

    def test_function_field_coefficients_use_the_dict_loop(self, monkeypatch):
        packed = Poly1._mul_packed

        def only_over_the_base(self, other):
            assert self.field is not QZ
            return packed(self, other)

        monkeypatch.setattr(Poly1, "_mul_packed", only_over_the_base)
        a = Poly1(QZ, {e: QZ.gen + e for e in range(6)})
        assert (a * a).terms == _product(a, a, a._mul_dict(a))


class TestExponentBound:
    """A Poly2 total degree of 2^64 or more is refused before any work, and
    every read of a pair outside the bound is zero.  Poly1 has no bound."""

    TOP = 2 ** 64

    @pytest.fixture
    def no_kernel(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a kernel ran past the exponent bound")

        for name in ("_mul_dict", "_mul_packed", "_monomial"):
            monkeypatch.setattr(Poly2, name, refuse)

    @pytest.mark.parametrize("field", (QQ, F5, QZ), ids=repr)
    def test_the_largest_degree_below_the_bound_is_exact(self, field):
        x, y = Poly2.x(field), Poly2.y(field)
        top = self.TOP - 1
        p = x ** (top - 1) * y + y ** top
        assert p.total_degree() == top
        assert p.terms == {(top - 1, 1): field.one, (0, top): field.one}
        assert (p * Poly2.constant(field, 2)).coeff(0, top) == field.of(2)
        assert Poly2(field, {(top, 0): 1, (0, top): 1}).items() == [((0, top), field.one),
                                                                  ((top, 0), field.one)]

    @pytest.mark.parametrize("field", (QQ, F5, QZ), ids=repr)
    def test_products_and_powers_that_reach_the_bound_raise_first(self, field, no_kernel):
        half = self.TOP // 2
        a = Poly2(field, {(half, 0): 1, (0, 1): 2, (0, 0): 3})
        b = Poly2(field, {(0, half): 1, (1, 0): 1})
        # 900 term pairs: past the packed-multiply crossovers
        dense = Poly2(field, {(i, half - i): 1 for i in range(30)})
        for product in (lambda: a * b, lambda: dense * dense, lambda: a._mul_add(b, b, b)):
            with pytest.raises(ValueError, match="below 2\\^64"):
                product()
        x, y = Poly2(field, {(1, 0): 1}), Poly2(field, {(0, 1): 1})
        for base, n in ((a, 2), (b, 2), (dense, 2), (x, self.TOP), (y, 2 ** 70)):
            with pytest.raises(ValueError, match="below 2\\^64"):
                base ** n
        # Poly1 exponents are unbounded
        assert Poly1.gen(field) ** self.TOP * Poly1.gen(field) == Poly1.monomial(field, self.TOP + 1, 1)

    @pytest.mark.parametrize("key", [(0, 2 ** 64), (2 ** 64, 0), (2 ** 63, 2 ** 63), (-1, 0), (0, -1),
                                     (-(2 ** 64), 2 ** 64)])
    def test_constructor_refuses_pairs_outside_the_bound(self, key):
        with pytest.raises(ValueError, match="below 2\\^64"):
            Poly2(QQ, {key: 1})

    def test_reads_outside_the_bound_are_zero(self):
        # unchecked, the key (i + j) << DEG_SHIFT | j of (-2^64, 2^64) would read x, of (-2^64, 2^64 + 1) y
        p = Poly2(QQ, {(0, 0): 1, (1, 0): 2, (0, 1): 3, (1, 1): 4, (0, 2): 5})
        for i, j in ((-1, 1), (1, -1), (-(2 ** 64), 2 ** 64), (2 ** 64, -(2 ** 64) + 1),
                     (-(2 ** 64), 2 ** 64 + 1), (2 ** 64, 0), (0, 2 ** 64), (2 ** 65, 2 ** 64)):
            assert p.coeff(i, j) == 0, (i, j)
        assert [p.coeff(i, j) for i, j in ((0, 0), (1, 0), (0, 1), (1, 1), (0, 2))] == [1, 2, 3, 4, 5]


class TestOracleAgreement:
    """Frozen cases checked against sympy."""

    CASES = [
        "3*t**4 - t + 1/2",
        "t**3 + 2*t**2 - 7",
        "-5*t**6 + t**2",
    ]

    @pytest.mark.parametrize("a_text", CASES)
    @pytest.mark.parametrize("b_text", CASES)
    def test_product(self, a_text, b_text):
        a, b = sympy.sympify(a_text), sympy.sympify(b_text)
        assert from_sympy1(a) * from_sympy1(b) == from_sympy1(sympy.expand(a * b))

    @pytest.mark.parametrize("a_text", CASES)
    def test_compose(self, a_text):
        a = sympy.sympify(a_text)
        inner = t ** 2 - 3 * t
        expected = from_sympy1(sympy.expand(a.subs(t, inner)))
        assert from_sympy1(a).substitute(from_sympy1(inner)) == expected

    def test_divmod_against_sympy(self):
        a = from_sympy1(sympy.sympify("t**5 - 2*t**3 + t - 4"))
        b = from_sympy1(sympy.sympify("2*t**2 + t"))
        q, r = divmod(a, b)
        qs, rs = sympy.div(to_sympy1(a), to_sympy1(b), t)
        assert q == from_sympy1(qs) and r == from_sympy1(rs)

    def test_gcd_against_sympy(self):
        common = sympy.sympify("t**2 + 1")
        a = sympy.expand(common * (t - 2))
        b = sympy.expand(common * (t + 5) * t)
        got = from_sympy1(a).gcd(from_sympy1(b))
        assert got == from_sympy1(sympy.gcd(a, b)).monic()

    def test_two_variable_substitution(self):
        p = Poly2(QQ, {(2, 1): Fraction(1), (0, 3): Fraction(-2)})
        u = Poly2(QQ, {(1, 0): Fraction(1), (0, 1): Fraction(1)})  # x + y
        v = Poly2(QQ, {(1, 1): Fraction(3)})                       # 3 x y
        got = p.substitute(u, v)
        expr = to_sympy2(p).subs({x: x + y, y: 3 * x * y}, simultaneous=True)
        expanded = sympy.expand(expr)
        want_terms = {}
        for monom, c in sympy.Poly(expanded, x, y).terms():
            frac = sympy.Rational(c)
            want_terms[monom] = Fraction(int(frac.p), int(frac.q))
        assert got == Poly2(QQ, want_terms)


class TestMixedFields:
    """Substitution mixes raw numerators, so it refuses another field."""

    @MIXED_FIELDS
    def test_substitute_refuses_another_field(self, k1, k2):
        with pytest.raises(ValueError, match="different fields"):
            Poly1(k2, {2: 1}).substitute(Poly2.x(k1) + 1)
        with pytest.raises(ValueError, match="different fields"):
            Poly1(k2, {2: 1}).substitute(Poly1.gen(k1))
        with pytest.raises(ValueError, match="different fields"):
            Poly2.x(k2).substitute(Poly2.y(k1), Poly2.x(k1))
        with pytest.raises(ValueError, match="different fields"):
            Poly2.x(k2).substitute(Poly2.y(k2), Poly2.x(k1))


class TestDivision:
    @given(poly1(QQ), poly1(QQ, max_deg=3))
    def test_divmod_identity(self, a, b):
        if b.is_zero():
            with pytest.raises(ZeroDivisionError):
                divmod(a, b)
            return
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.degree() < b.degree()

    @given(poly1(F5), poly1(F5, max_deg=3))
    def test_divmod_identity_mod5(self, a, b):
        if not b.is_zero():
            q, r = divmod(a, b)
            assert q * b + r == a

    def test_exact_div_rejects_remainders(self):
        tt = Poly1.gen(QQ)
        with pytest.raises(ValueError):
            (tt ** 2 + 1).exact_div(tt)

    @staticmethod
    def textbook_divmod(a, b):
        """Long division on dense coefficient lists, one column at a time."""
        zero = a.field.zero
        n, m = max(a.degree(), -1), b.degree()
        rem = [a.coeff(e) for e in range(n + 1)]
        quo = [zero] * max(n - m + 1, 0)
        for k in range(n - m, -1, -1):
            c = rem[k + m] / b.coeff(m)
            quo[k] = c
            for j in range(m + 1):
                rem[k + j] = rem[k + j] - c * b.coeff(j)
        return Poly1(a.field, dict(enumerate(quo))), Poly1(a.field, dict(enumerate(rem[:m])))

    def check_division(self, a, b):
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.degree() < b.degree()
        assert all(q.terms.values()) and all(r.terms.values())
        want_q, want_r = self.textbook_divmod(a, b)
        assert q.terms == want_q.terms and r.terms == want_r.terms
        assert (a % b).terms == r.terms

    @pytest.mark.parametrize("field", (QQ, F5, F1000003), ids=("rationals", "mod5", "mod1000003"))
    @given(data=st.data())
    def test_divmod_matches_textbook_long_division(self, field, data):
        a = data.draw(poly1(field, max_deg=9))
        # sparse divisors: exponent gaps and constants both come up
        b = data.draw(st.dictionaries(st.integers(0, 6), nonzero_scalars(field),
                                      min_size=1, max_size=4).map(lambda d: Poly1(field, d)))
        self.check_division(a, b)

    @pytest.mark.parametrize("field", (QQ, F5, F1000003), ids=("rationals", "mod5", "mod1000003"))
    def test_divmod_edge_cases(self, field):
        tt = Poly1.gen(field)
        a = tt ** 7 + 3 * tt ** 4 - tt + 2
        for dividend, divisor in (
            (Poly1.zero(field), tt ** 2 + 1),     # zero dividend
            (a, Poly1.constant(field, 3)),        # constant divisor
            (a, tt ** 5 - 2),                     # gap between the divisor's terms
            (a, tt ** 3),                         # a monomial divisor
            (tt + 1, tt ** 4 + tt),               # divisor of higher degree
        ):
            self.check_division(dividend, divisor)
        with pytest.raises(ZeroDivisionError):
            divmod(a, Poly1.zero(field))

    @given(poly1(QQ, max_deg=3), poly1(QQ, max_deg=3))
    def test_gcd_divides_both(self, a, b):
        g = a.gcd(b)
        if g.is_zero():
            assert a.is_zero() and b.is_zero()
        else:
            assert (a % g).is_zero() and (b % g).is_zero()
            assert g.leading_coeff() == QQ.one  # monic normalization


class TestShifts:
    @given(poly1(QQ))
    def test_shift_up_then_down(self, p):
        assert p.shift_up(2).shift_down(2) == p

    def test_shift_down_is_exact(self):
        tt = Poly1.gen(QQ)
        assert (tt ** 3 + tt ** 2).shift_down(2) == tt + 1
        with pytest.raises(ValueError):
            (tt ** 3 + tt).shift_down(2)

    def test_drop_and_truncate_partition(self):
        tt = Poly1.gen(QQ)
        p = tt ** 3 + 2 * tt + 5
        assert p.drop_below(2) == tt ** 3
        assert p - p.drop_below(2) == 2 * tt + 5

    @given(poly1(QQ))
    def test_valuation_vs_shift(self, p):
        if not p.is_zero():
            v = min(p.keys())
            assert p.shift_down(v).coeff(0) == p.coeff(v)


AFFINE_SUBSTITUTE_FIELDS = (QQ, F5, QZ, F1000003, F_M61)


def _inverse_reference(field, z1, t0, z2, f):
    """ElemAuto(z1, t0, z2, f)^-1 = (x', (y - f(x')) / z2) with x' = (x - t0) / z1,
    f(x') the generic substitute of the linear polynomial x'."""
    a, b, iz2 = field.one / z1, -t0 / z1, field.one / z2
    return ElemAuto(field, a, b, iz2, f.substitute(Poly1(field, {1: a, 0: b})).scale(-iz2))


class TestAffineSubstitute:
    """The one affine substitution left beside ``Poly1.substitute`` is the
    Taylor shift f((x - t0) / z1) that ``ElemAuto.inverse`` shares with the
    triangular split; the inverse equals the one built on the generic
    substitute, numerator for numerator."""

    @pytest.mark.parametrize("field", AFFINE_SUBSTITUTE_FIELDS, ids=repr)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_generic_substitute(self, field, data):
        one, zero = field.one, field.zero
        # sparse f up to degree 12 too: with t0 = 0 only the terms present are scaled
        f = data.draw(st.one_of(poly1(field, max_deg=6), scalars(field).map(
            lambda c: Poly1.constant(field, c)), st.dictionaries(
                st.integers(0, 12), nonzero_scalars(field), max_size=4).map(
                lambda terms: Poly1(field, terms))))
        scalings = st.one_of(st.sampled_from([one, -one]), nonzero_scalars(field))
        z1, z2 = data.draw(scalings), data.draw(scalings)
        t0 = data.draw(st.one_of(st.just(zero), scalars(field)))
        got, want = ElemAuto(field, z1, t0, z2, f).inverse(), _inverse_reference(field, z1, t0, z2, f)
        assert (got._num, got._den) == (want._num, want._den)

    @pytest.mark.parametrize("field", AFFINE_SUBSTITUTE_FIELDS, ids=repr)
    def test_unit_scalings_zero_shift_and_trivial_polynomials(self, field):
        rng = random.Random(7)
        one, zero = field.one, field.zero
        c = field.random_nonzero(rng, 5)
        polys = (Poly1.zero(field), Poly1.constant(field, c),
                 Poly1(field, {0: c, 2: one, 5: -c}), Poly1.monomial(field, 7, c))
        for f in polys:
            for z1, t0 in ((one, zero), (-one, zero), (one, c), (-one, c), (c, zero), (c, c)):
                got, want = ElemAuto(field, z1, t0, one, f).inverse(), _inverse_reference(field, z1, t0, one, f)
                assert (got._num, got._den) == (want._num, want._den), (f, z1, t0)
        assert ElemAuto(field, c, c, one, polys[0]).inverse().f.is_zero()
        assert ElemAuto(field, c, c, one, polys[1]).inverse().f == -polys[1]
        # z1 = 1, t0 = 0: the shear (x, y + f) has the inverse (x, y - f)
        for f in polys:
            assert ElemAuto.shear(field, f).inverse() == ElemAuto.shear(field, -f)
            assert f.scale(one) is f

    @pytest.mark.parametrize("field", AFFINE_SUBSTITUTE_FIELDS, ids=repr)
    def test_zero_shift_of_a_huge_exponent_is_immediate(self, field):
        one, zero = field.one, field.zero
        f = Poly1(field, {10 ** 8: one, 3: one + one})
        for z1 in (one, -one):
            t0 = time.perf_counter()
            got = ElemAuto(field, z1, zero, one, f).inverse()
            assert time.perf_counter() - t0 < 0.5
            want = _inverse_reference(field, z1, zero, one, f)
            assert (got._num, got._den) == (want._num, want._den)


class TestPowers:
    """poly.Powers(b)[e] is b ** e: a one-term base is raised in closed form,
    (c m)^e = c^e m^e with no product, and any other base is stepped one
    product at a time and kept."""

    @pytest.mark.parametrize("field", AFFINE_SUBSTITUTE_FIELDS, ids=repr)
    def test_lookups_in_any_order_equal_pow(self, field):
        c = field.of(3)
        bases = (Poly1.zero(field), Poly1.constant(field, c), Poly1.monomial(field, 3, c),
                 Poly1(field, {0: c, 2: field.one}), Poly2.zero(field), Poly2.constant(field, c),
                 Poly2(field, {(1, 2): c}), Poly2.x(field) + Poly2.y(field).scale(c))
        for base in bases:
            powers = poly.Powers(base)
            for e in (*range(8, -1, -1), *range(9)):
                assert powers[e] == base ** e, (base, e)

    @staticmethod
    def count_products(monkeypatch) -> list:
        """A list that gains one item per polynomial product from now on: the
        type of its left factor."""
        calls = []
        raw_mul = poly._SparsePoly._raw_mul

        def counting(a, b):
            calls.append(type(a))
            return raw_mul(a, b)

        monkeypatch.setattr(poly._SparsePoly, "_raw_mul", counting)
        return calls

    def test_binomial_costs_one_product_per_new_exponent(self, monkeypatch):
        powers = poly.Powers(Poly2.x(QQ) + Poly2.y(QQ))
        calls = self.count_products(monkeypatch)
        for e, products in ((5, 4), (5, 4), (3, 4), (1, 4), (0, 4), (8, 7)):
            powers[e]
            assert len(calls) == products, e

    def test_monomial_power_makes_no_product(self, monkeypatch):
        powers = poly.Powers(Poly1.monomial(QQ, 1, QQ.of(-1)))
        calls = self.count_products(monkeypatch)
        assert powers[10 ** 8] == Poly1.monomial(QQ, 10 ** 8, QQ.one)
        assert calls == []

    @pytest.mark.parametrize("field", AFFINE_SUBSTITUTE_FIELDS, ids=repr)
    def test_one_term_powers_match_squaring_without_products(self, field, monkeypatch):
        c = field.of(3)
        bases = (Poly1.monomial(field, 3, c), Poly1.constant(field, -c),
                 Poly2(field, {(1, 2): c}), Poly2(field, {(0, 4): field.one}))
        exponents = (0, 1, 2, 5, 13, 64)
        want = [[power(m.one(field), m, n) for n in exponents] for m in bases]
        calls = self.count_products(monkeypatch)
        for m, powers_of_m in zip(bases, want):
            powers = poly.Powers(m)
            for n, w in zip(exponents, powers_of_m):
                assert m ** n == w and powers[n] == w, (m, n)
        assert calls == []

    def test_compose_makes_each_power_of_the_inner_map_once(self, field, monkeypatch):
        x, y, c = Poly2.x(field), Poly2.y(field), field.of(3)
        outer = PlaneAuto(x ** 3 + y ** 2 + (x * y).scale(c), x ** 2 + y ** 3)
        inner = PlaneAuto(x + y ** 2, y.scale(c) + x)
        # each component substituted on its own, one ladder per call
        want = [outer.p.substitute(inner.p, inner.q), outer.q.substitute(inner.p, inner.q)]
        calls = self.count_products(monkeypatch)
        got = outer.compose(inner)
        assert [(g._num, g._den) for g in (got.p, got.q)] == [(w._num, w._den) for w in want]
        # u^2, u^3, v^2, v^3 once each, and the one u*v of the term c*x*y;
        # a ladder per component made u^2 and v^2 twice (over K(z) the
        # coefficients' own Poly1 products are not counted)
        assert calls.count(Poly2) == 5


class TestCalculus:
    @given(poly2(QQ), poly2(QQ))
    @settings(max_examples=40)
    def test_partials_satisfy_leibniz(self, p, q):
        assert (p * q).partial_x() == p.partial_x() * q + p * q.partial_x()
        assert (p * q).partial_y() == p.partial_y() * q + p * q.partial_y()

    def test_partials_on_monomial(self):
        p = Poly2(QQ, {(3, 2): Fraction(1)})
        assert p.partial_x() == Poly2(QQ, {(2, 2): Fraction(3)})
        assert p.partial_y() == Poly2(QQ, {(3, 1): Fraction(2)})


class TestEvaluation:
    @given(poly1(QQ), scalars(QQ), scalars(QQ))
    def test_evaluate_is_ring_morphism(self, p, a, b):
        q = Poly1.monomial(QQ, 1, a) + Poly1.constant(QQ, b)
        s = QQ.of(Fraction(2, 3))
        assert evaluate_poly1(p * q, s) == evaluate_poly1(p, s) * evaluate_poly1(q, s)
        assert evaluate_poly1(p + q, s) == evaluate_poly1(p, s) + evaluate_poly1(q, s)

    def test_high_exponents_evaluate_without_recursion(self):
        # deep enough to overflow the stack if a power recursed per exponent
        assert evaluate_poly2(Poly2(QQ, {(1500, 0): 1}), 1, 1) == 1
        assert evaluate_poly2(Poly2(F5, {(3, 1500): 2}), 2, 3) == F5.of(2 * 8 * pow(3, 1500, 5))
        assert evaluate_poly1(Poly1.monomial(QQ, 1500, Fraction(3)), QQ.of(-1)) == 3
        auto = parse_auto(QQ, "x + y^1200, y")
        assert evaluate_auto(auto, (QQ.of(1), QQ.of(-1))) == (2, -1)

    @given(poly2(F5))
    def test_poly2_evaluate_matches_term_sum(self, p):
        a, b = F5.of(2), F5.of(3)
        want = F5.zero
        for (i, j), c in p.terms.items():
            want = want + c * a ** i * b ** j
        assert evaluate_poly2(p, a, b) == want


class TestConversions:
    def test_poly1_and_poly2_do_not_mix(self):
        # over K(z) a Poly1 over K would coerce into a constant if allowed
        tt = Poly1.gen(QQ)
        for xx in (Poly2.x(QQ), Poly2.x(QZ)):
            for a, b in ((tt, xx), (xx, tt)):
                for op in (operator.add, operator.sub, operator.mul):
                    with pytest.raises(TypeError):
                        op(a, b)
                assert a != b
