"""The integer-numerator storage of Poly1/Poly2 and its element-valued reads.

Every result over Q is integer numerators over one positive denominator
with gcd(den, *nums) = 1 and no zero numerator; over F_p it is residues in
[1, p) over 1.  Each kernel is checked against a reference loop on field
elements written here, on sparse operands and on dense ones that take the
packed multiply.  The read API returns field elements.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tameplane import Poly1, Poly2, PrimeField, QQ, parse_poly2
from tameplane.ratfunc import RationalFunction
from tameplane.scalars import PrimeFieldElement

from conftest import F1000003, F5, QZ, nonzero_scalars, poly1, poly2, scalars

FIELDS = (QQ, F5, F1000003)
FIELD_IDS = ("rationals", "mod5", "mod1000003")


def assert_canonical(p):
    nums = list(p._num.values())
    assert all(type(v) is int and v for v in nums)
    if p.field is QQ:
        assert type(p._den) is int and p._den > 0
        assert math.gcd(p._den, *nums) == 1
    else:
        assert all(1 <= v < p.field.p for v in nums)
        assert p._den == 1


def dense_poly1(field):
    """20 nonzero terms on exponents 0..19: products of two of them pass
    the packed crossovers."""
    return st.lists(nonzero_scalars(field), min_size=20, max_size=20).map(
        lambda cs: Poly1(field, dict(enumerate(cs))))


def dense_poly2(field):
    """21 nonzero terms, on the exponents of total degree <= 5."""
    keys = [(i, d - i) for d in range(6) for i in range(d + 1)]
    return st.lists(nonzero_scalars(field), min_size=21, max_size=21).map(
        lambda cs: Poly2(field, dict(zip(keys, cs))))


def operands(cls, field):
    if cls is Poly1:
        return st.one_of(poly1(field), dense_poly1(field))
    return st.one_of(poly2(field), dense_poly2(field))


# -- reference loops on field elements -------------------------------------


def _clean(terms):
    return {k: c for k, c in terms.items() if c}


def _key_add(a, b):
    return a + b if isinstance(a, int) else (a[0] + b[0], a[1] + b[1])


def ref_add(a: dict, b: dict, zero) -> dict:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, zero) + c
    return _clean(out)


def ref_mul(a: dict, b: dict, zero) -> dict:
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = _key_add(k1, k2)
            out[k] = out.get(k, zero) + c1 * c2
    return _clean(out)


def ref_pow(a: dict, n: int, one_key, one, zero) -> dict:
    out = {one_key: one}
    for _ in range(n):
        out = ref_mul(out, a, zero)
    return out


def ref_subst1(p, value) -> dict:
    f = value.field
    key, = value.one(f).terms
    out = {}
    for e, c in p.terms.items():
        pw = ref_pow(value.terms, e, key, f.one, f.zero)
        out = ref_add(out, {k: c * v for k, v in pw.items()}, f.zero)
    return out


def ref_subst2(p, u, v) -> dict:
    f = p.field
    out = {}
    for (i, j), c in p.terms.items():
        term = ref_mul(ref_pow(u.terms, i, (0, 0), f.one, f.zero),
                       ref_pow(v.terms, j, (0, 0), f.one, f.zero), f.zero)
        out = ref_add(out, {k: c * w for k, w in term.items()}, f.zero)
    return out


# -- canonical form and agreement with the reference -----------------------


@pytest.mark.parametrize("cls", (Poly1, Poly2), ids=("poly1", "poly2"))
@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_ring_operations_are_canonical_and_match_element_loops(field, cls, data):
    a = data.draw(operands(cls, field))
    b = data.draw(operands(cls, field))
    c = data.draw(scalars(field))
    # the constructor's own output, from element dicts
    assert_canonical(a)
    assert_canonical(b)
    zero = field.zero
    ta, tb = a.terms, b.terms
    results = {
        "add": (a + b, ref_add(ta, tb, zero)),
        "sub": (a - b, ref_add(ta, {k: -v for k, v in tb.items()}, zero)),
        "neg": (-a, _clean({k: -v for k, v in ta.items()})),
        "mul": (a * b, ref_mul(ta, tb, zero)),
        "scale": (a.scale(c), _clean({k: c * v for k, v in ta.items()})),
        "square": (a ** 2, ref_mul(ta, ta, zero)),
    }
    if cls is Poly2:
        results["partial_x"] = (a.partial_x(), _clean({(i - 1, j): v * i for (i, j), v in ta.items() if i}))
        results["partial_y"] = (a.partial_y(), _clean({(i, j - 1): v * j for (i, j), v in ta.items() if j}))
    else:
        results["drop_below"] = (a.drop_below(2), {k: v for k, v in ta.items() if k >= 2})
        results["shift_up"] = (a.shift_up(3), {k + 3: v for k, v in ta.items()})
    for name, (got, want) in results.items():
        assert_canonical(got)
        assert got.terms == want, name


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_substitute_is_canonical_and_matches_element_loops(field, data):
    p1 = data.draw(poly1(field, max_deg=3))
    value1 = data.draw(operands(Poly1, field))
    got = p1.substitute(value1)
    assert_canonical(got)
    assert got.terms == ref_subst1(p1, value1)
    # a Poly1 into a Poly2, as triangular maps apply their shear
    value2 = data.draw(poly2(field, max_deg=2))
    got = p1.substitute(value2)
    assert_canonical(got)
    assert got.terms == ref_subst1(p1, value2)
    p2 = data.draw(poly2(field, max_deg=2))
    u = data.draw(operands(Poly2, field))
    v = data.draw(poly2(field, max_deg=2))
    got = p2.substitute(u, v)
    assert_canonical(got)
    assert got.terms == ref_subst2(p2, u, v)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_division_results_are_canonical(field, data):
    a = data.draw(operands(Poly1, field))
    b = data.draw(poly1(field, max_deg=3).filter(bool))
    q, r = divmod(a, b)
    for p in (q, r, b.monic(), a.gcd(b)):
        assert_canonical(p)
    assert q * b + r == a


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_products_built_along_different_routes_are_equal_and_hash_equal(field):
    x, y = Poly2.x(field), Poly2.y(field)
    t = Poly1.gen(field)
    half = field.of(Fraction(1, 2))
    p5 = (x + half * y + 1) ** 5
    routes = [
        ((x + half) * 2, 2 * x + 1),
        ((t + half) * 2, 2 * t + 1),
        (Poly1(field, {0: half}).scale(2), Poly1.one(field)),
        ((x - y) * (x + y), x ** 2 - y ** 2),
        (((x + y) ** 4).scale(half).scale(2), (x + y) ** 4),
        # a product past the packed crossover (21 * 21 term pairs) against
        # a term-by-term sum and against repeated squaring
        (p5 * p5, sum((p5.scale(c) * Poly2(field, {(i, j): 1})
                       for (i, j), c in p5.terms.items()), Poly2.zero(field))),
        (p5 * p5, (x + half * y + 1) ** 10),
        (Poly2(field, {(1, 0): half, (0, 0): half}) - Poly2(field, {(1, 0): half}),
         Poly2.constant(field, half)),
        (parse_poly2(field, "x^2 + 3*y - 1/2"),
         Poly2(field, {(2, 0): 1, (0, 1): 3, (0, 0): -half})),
    ]
    for a, b in routes:
        assert_canonical(a)
        assert_canonical(b)
        assert a == b and hash(a) == hash(b)
        assert a._num == b._num and a._den == b._den


# -- the element-valued read API -------------------------------------------


@pytest.mark.parametrize("field, kind", [
    (QQ, Fraction), (F5, PrimeFieldElement), (F1000003, PrimeFieldElement),
    (QZ, RationalFunction)], ids=("rationals", "mod5", "mod1000003", "rationals-of-z"))
def test_reads_return_field_elements(field, kind):
    c = field.of(Fraction(3, 2)) if not isinstance(field, PrimeField) else field.of(3)
    t = Poly1.gen(field)
    x, y = Poly2.x(field), Poly2.y(field)
    p1 = (t + c) ** 3
    p2 = (x + c * y + 1) ** 3
    for p, key in ((p1, (2,)), (p2, (1, 1))):
        values = [*p.terms.values(), *(v for _, v in p.items()), p.coeff(*key), p.constant_term()]
        assert values and all(type(v) is kind for v in values)
        assert dict(p.items()) == p.terms
        # a new dict each read: editing it leaves the polynomial alone
        p.terms.clear()
        assert p.terms
    assert type(p1.leading_coeff()) is kind and p1.leading_coeff() == field.one
    assert Poly1.zero(field).coeff(0) == field.zero and not Poly1.zero(field).terms
    with pytest.raises(AttributeError):
        p1.terms = {}


def test_rational_items_print_as_fractions():
    t = Poly1.gen(QQ)
    assert repr(((t + 1) ** 2).items()) == \
        "[(0, Fraction(1, 1)), (1, Fraction(2, 1)), (2, Fraction(1, 1))]"
    half = (t + Fraction(1, 2)) * t
    assert half.terms == {1: Fraction(1, 2), 2: Fraction(1)}
    assert (half._num, half._den) == ({1: 1, 2: 2}, 2)


def test_fields_do_not_mix():
    for a, b in ((Poly2.x(F5), Poly2.x(PrimeField(7))), (Poly2.x(QQ), Poly2.x(F5)),
                 (Poly2.x(QQ), Poly2.x(QZ))):
        with pytest.raises(TypeError):
            a * b
        with pytest.raises(TypeError):
            a + b
        assert a != b
