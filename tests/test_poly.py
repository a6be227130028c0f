"""Sparse polynomial arithmetic in one and two variables.

Ring laws are property tests; a handful of derived operations are pinned
against an independent sympy oracle with frozen inputs.  The packed
multiply is checked against the dict loop, which is its reference.
"""

import operator
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from tameplane import NEG_INF, Poly1, Poly2, QQ
from tameplane import poly

from conftest import F1000003, F5, F_M61, QZ, nonzero_scalars, poly1, poly2, scalars

PACKED_FIELDS = (QQ, F5, F1000003, F_M61)


def dense_poly2(field):
    """Ten nonzero terms, on the exponents of total degree <= 3.  c * c has
    100 term pairs, past both packed-multiply crossovers; a product with a
    polynomial of two terms passes the one over Q, of five the one over F_p."""
    keys = [(i, d - i) for d in range(4) for i in range(d + 1)]
    return st.lists(nonzero_scalars(field), min_size=10, max_size=10).map(
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
            # dense enough that products with it cross the packed crossovers
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
            want = a._mul_dict(b)
            assert a._mul_packed(b) == want
            assert b._mul_packed(a) == want
            assert (a * b).terms == want

    @pytest.mark.parametrize("field", PACKED_FIELDS, ids=repr)
    def test_cancellation_mod_p_and_over_q(self, field):
        # (x + y)(x - y) has no xy term in any field; over F_5 the xy
        # coefficient 5 of (x + y)(x + 4y) reduces to zero too
        x, y = Poly2.x(field), Poly2.y(field)
        for a, b in (((x + y) ** 4, (x - y) ** 4), ((x + y) ** 4, (x + 4 * y) ** 4)):
            want = a._mul_dict(b)
            assert a._mul_packed(b) == want
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
            assert (a * b).terms == a._mul_dict(b)
            # (x - y) times an anti-diagonal: 98 term pairs, 2,451 slots
            x, y = Poly2.x(field), Poly2.y(field)
            a = x - y
            b = Poly2(field, {(i, 48 - i): _coeff(field, rng, False) for i in range(49)})
            assert a._mul_packed(b) is None
            assert (a * b).terms == a._mul_dict(b)

    def test_function_field_coefficients_use_the_dict_loop(self, monkeypatch):
        packed = Poly1._mul_packed

        def only_over_the_base(self, other):
            assert self.field is not QZ
            return packed(self, other)

        monkeypatch.setattr(Poly1, "_mul_packed", only_over_the_base)
        a = Poly1(QZ, {e: QZ.gen + e for e in range(6)})
        assert (a * a).terms == a._mul_dict(a)


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
        assert from_sympy1(a).compose(from_sympy1(inner)) == expected

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
            v = p.valuation()
            assert p.shift_down(v).coeff(0) == p.coeff(v)


class TestCalculus:
    @given(poly2(QQ), poly2(QQ))
    @settings(max_examples=40)
    def test_partials_satisfy_leibniz(self, p, q):
        assert (p * q).partial_x() == p.partial_x() * q + p * q.partial_x()
        assert (p * q).partial_y() == p.partial_y() * q + p * q.partial_y()

    def test_partials_on_monomial(self):
        p = Poly2.monomial(QQ, 3, 2, Fraction(1))
        assert p.partial_x() == Poly2.monomial(QQ, 2, 2, Fraction(3))
        assert p.partial_y() == Poly2.monomial(QQ, 3, 1, Fraction(2))


class TestEvaluation:
    @given(poly1(QQ), scalars(QQ), scalars(QQ))
    def test_evaluate_is_ring_morphism(self, p, a, b):
        q = Poly1.monomial(QQ, 1, a) + Poly1.constant(QQ, b)
        s = QQ.of(Fraction(2, 3))
        assert (p * q).evaluate(s) == p.evaluate(s) * q.evaluate(s)
        assert (p + q).evaluate(s) == p.evaluate(s) + q.evaluate(s)

    @given(poly2(F5))
    def test_poly2_evaluate_matches_term_sum(self, p):
        a, b = F5.of(2), F5.of(3)
        want = F5.zero
        for (i, j), c in p.terms.items():
            want = want + c * a ** i * b ** j
        assert p.evaluate(a, b) == want


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

    @given(poly2(QQ))
    def test_leading_form_is_homogeneous_of_top_degree(self, p):
        if p.is_zero():
            return
        lead = p.leading_form()
        d = p.total_degree()
        assert all(i + j == d for i, j in lead.terms)
        rest = p - lead
        assert rest.is_zero() or rest.total_degree() < d
