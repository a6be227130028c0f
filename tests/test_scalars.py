"""Field axioms and interning for the scalar backends."""

import copy
import operator
import pickle
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tameplane import Poly1, Poly2, PrimeField, QQ, RationalFunctionField, field_from_spec
from tameplane.lab.unipotent import RationalMatrix
from tameplane.ratfunc import RationalFunction, field_spec
from tameplane.scalars import PrimeFieldElement, RationalField, _is_prime, power

from conftest import F5, QZ, nonzero_scalars, poly1, scalars
from oracles import prime_field_elements


@pytest.mark.parametrize("spec", ["q", "fp:5", "q-of-z", "fp:7-of-z"])
def test_field_spec_round_trip(spec):
    assert field_spec(field_from_spec(spec)) == spec


def test_field_from_spec_rejects_garbage():
    for bad in ("r", "fp:4", "fp:-3", "fp:", "q-of-w", ""):
        with pytest.raises(ValueError):
            field_from_spec(bad)


def test_prime_field_instances_are_interned():
    assert PrimeField(5) is PrimeField(5)
    assert PrimeField(5) is not PrimeField(7)
    a = F5.of(3)
    b = F5.of(8)
    assert a is b  # element interning: 8 = 3 mod 5


def test_rational_function_field_is_per_base():
    assert RationalFunctionField(QQ) is RationalFunctionField(QQ)
    assert RationalFunctionField(QQ) is not RationalFunctionField(PrimeField(5))


# Fields have no __eq__: two fields are the same exactly when they are one
# object, so every way to name a field must give that one object.
@pytest.mark.parametrize("spec", ["q", "fp:5", "q-of-z", "fp:5-of-z"])
def test_a_spec_names_one_field_object(spec):
    assert field_from_spec(spec) is field_from_spec(spec)


def _pickled(field):
    return pickle.loads(pickle.dumps(field))


def test_the_rational_field_is_a_singleton():
    assert RationalField() is QQ
    assert copy.copy(QQ) is QQ and copy.deepcopy(QQ) is QQ
    assert _pickled(QQ) is QQ


@pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy, _pickled], ids=["copy", "deepcopy", "pickle"])
@pytest.mark.parametrize("field", [F5, QZ], ids=["fp5", "q-of-z"])
def test_a_field_cannot_be_copied_into_a_second_one(field, copier):
    with pytest.raises((TypeError, AttributeError)):
        copier(field)


def test_a_residue_comes_only_from_its_field():
    with pytest.raises(TypeError):
        PrimeFieldElement(F5, 3)
    assert F5.of(3) == 8 and F5.of(3) != PrimeField(7).of(3)


class TestFieldLaws:
    """Commutative field axioms, checked pointwise on random elements."""

    @given(st.data())
    def test_ring_laws(self, data):
        for field in (QQ, F5, QZ):
            a = data.draw(scalars(field))
            b = data.draw(scalars(field))
            c = data.draw(scalars(field))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + field.zero == a
            assert a * field.one == a
            assert a - a == field.zero
            assert a + (-a) == field.zero
            assert a - b == a + (-b)
            if field is QZ:
                assert (-a).den == a.den

    @given(st.data())
    def test_multiplicative_inverses(self, data):
        for field in (QQ, F5, QZ):
            a = data.draw(nonzero_scalars(field))
            assert a * (field.one / a) == field.one
            assert a / a == field.one

    @given(st.data())
    def test_powers_match_repeated_product(self, data):
        for field in (QQ, F5):
            a = data.draw(scalars(field))
            acc = field.one
            for n in range(5):
                assert a ** n == acc
                acc = acc * a


F5Z = RationalFunctionField(F5)


def function_field_elements(field):
    """Zero, nonzero constants, polynomial elements and true fractions of K(z)."""
    base = field.base
    num = poly1(base, max_deg=3)
    den = poly1(base, max_deg=2).filter(bool)
    return st.one_of(
        st.just(field.zero),
        nonzero_scalars(base).map(field.of),
        num.map(field.of),
        st.builds(lambda n, d: RationalFunction(field, n, d), num, den),
    )


# each K(z) operation and num, den of its result by the textbook formula,
# before any reduction
TEXTBOOK = {
    "+": (operator.add, lambda a, b: (a.num * b.den + b.num * a.den, a.den * b.den)),
    "-": (operator.sub, lambda a, b: (a.num * b.den - b.num * a.den, a.den * b.den)),
    "*": (operator.mul, lambda a, b: (a.num * b.num, a.den * b.den)),
    "/": (operator.truediv, lambda a, b: (a.num * b.den, a.den * b.num)),
    "neg": (lambda a, b: -a, lambda a, b: (-a.num, a.den)),
    "inverse": (lambda a, b: a.inverse(), lambda a, b: (a.den, a.num)),
}


@pytest.mark.parametrize("field", (QZ, F5Z), ids=("q-of-z", "fp:5-of-z"))
@given(data=st.data())
def test_function_field_results_are_reduced(field, data):
    # add, sub and mul of polynomial elements, negation and inverse skip the
    # gcd; each must equal the element built from the unreduced formula
    a = data.draw(function_field_elements(field))
    b = data.draw(function_field_elements(field))
    one = Poly1.one(field.base)
    for name, (op, formula) in TEXTBOOK.items():
        if (name == "/" and not b) or (name == "inverse" and not a):
            continue
        got = op(a, b)
        want = RationalFunction(field, *formula(a, b))
        assert got == want and hash(got) == hash(want), name
        assert got.den.leading_coeff() == field.base.one, name
        assert got.num.gcd(got.den) == one, name


@pytest.mark.parametrize("field", (QZ, F5Z), ids=("q-of-z", "fp:5-of-z"))
def test_zero_numerator_is_zero_over_one_without_a_gcd(field, monkeypatch):
    z = field.gen
    a = (z * z + field.one) / (z * z * z + z + field.one)
    gcds = []
    gcd = Poly1.gcd
    monkeypatch.setattr(Poly1, "gcd", lambda p, q: gcds.append(q) or gcd(p, q))
    for got in (a - a, a * field.zero, RationalFunction(field, Poly1.zero(field.base), a.den)):
        assert (got.num, got.den) == (field.zero.num, field.zero.den) == (
            Poly1.zero(field.base), Poly1.one(field.base))
        assert got == field.zero and hash(got) == hash(field.zero)
    assert gcds == []


@pytest.mark.parametrize("field", (QZ, F5Z), ids=("q-of-z", "fp:5-of-z"))
def test_scaling_by_a_unit_coerces_no_int(field, monkeypatch):
    z, one = field.gen, field.one
    p = Poly2.x(field).scale(z) + Poly2.y(field) * Poly2.y(field).scale(z + one)
    q = Poly1.gen(field).scale(z) + Poly1.constant(field, one / z)
    negatives = (-p, -q)
    coerced = []
    of = RationalFunctionField.of
    monkeypatch.setattr(RationalFunctionField, "of",
                        lambda self, v: coerced.append(type(v)) or of(self, v))
    for poly, negative in zip((p, q), negatives):
        assert poly.scale(one) is poly
        assert poly.scale(-one) == negative
    assert int not in coerced


@pytest.mark.parametrize("field", (QZ, F5Z), ids=("q-of-z", "fp:5-of-z"))
def test_one_times_an_element_is_that_element(field):
    # x, y and t carry the element one, so products with it build nothing
    z, one = field.gen, field.one
    a = (z * z + one) / (z + one)
    assert one * a is a and a * one is a and one * one is one
    assert one ** 7 is one


def test_division_by_zero_raises(field):
    with pytest.raises(ZeroDivisionError):
        field.one / field.zero


def _reflected(op):
    return lambda a, b: op(b, a)


INT_OPERATIONS = {
    "+": operator.add,
    "radd": _reflected(operator.add),
    "-": operator.sub,
    "rsub": _reflected(operator.sub),
    "*": operator.mul,
    "rmul": _reflected(operator.mul),
    "/": operator.truediv,
    "rdiv": _reflected(operator.truediv),
}


@pytest.mark.parametrize("name", sorted(INT_OPERATIONS))
@pytest.mark.parametrize("a, b", [(2, 3), (4, 1), (3, 7), (1, -2)])
def test_prime_field_elements_coerce_plain_ints(name, a, b):
    op = INT_OPERATIONS[name]
    got = op(F5.of(a), b)
    # the same operation on residues, with division by the inverse mod 5
    if name == "/":
        want = a * pow(b, -1, 5)
    elif name == "rdiv":
        want = b * pow(a, -1, 5)
    else:
        want = op(a, b)
    assert type(got) is type(F5.one) and got == F5.of(want)


@pytest.mark.parametrize("other", [Fraction(1, 2), 0.5, "2"], ids=repr)
@pytest.mark.parametrize("name", sorted(INT_OPERATIONS))
def test_prime_field_elements_refuse_other_operands(name, other):
    # one operand check serves every operator: only ints and elements of
    # the same field are taken, on either side
    with pytest.raises(TypeError):
        INT_OPERATIONS[name](F5.of(2), other)


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
def test_mixed_prime_fields_raise(op):
    with pytest.raises(ValueError, match="mixed prime fields"):
        op(F5.of(2), PrimeField(7).of(3))


def test_rational_function_rejects_zero_denominator():
    with pytest.raises(ZeroDivisionError, match="zero denominator"):
        RationalFunction(QZ, Poly1.one(QQ), Poly1.zero(QQ))


def test_fermat_little_theorem_mod5():
    for v in range(1, 5):
        assert F5.of(v) ** 4 == F5.one


def test_rational_field_uses_exact_ratios():
    third = QQ.of(Fraction(1, 3))
    assert third + third + third == QQ.one
    assert QQ.of(Fraction(2, 4)) == QQ.ratio(1, 2)


def test_random_nonzero_never_returns_zero():
    rng = random.Random(0)
    for field in (QQ, F5, QZ):
        for _ in range(50):
            assert field.random_nonzero(rng)


def test_function_field_generator_arithmetic():
    z = QZ.gen
    assert (z + QZ.one) * (z - QZ.one) == z * z - QZ.one
    assert z / z == QZ.one


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


class TestIsPrime:
    def test_agrees_with_trial_division_below_20000(self):
        assert [n for n in range(20000) if _is_prime(n)] == [
            n for n in range(20000) if _trial_division(n)
        ]

    @pytest.mark.parametrize("n", [
        561,                        # Carmichael
        2047,                       # strong pseudoprime to base 2
        1373653,                    # ... to bases 2, 3
        3215031751,                 # ... to bases 2, 3, 5, 7
        3825123056546413051,        # ... to the first 11 prime bases
        318665857834031151167461,   # ... to the first 12 prime bases
    ])
    def test_rejects_strong_pseudoprimes(self, n):
        assert not _is_prime(n)

    @pytest.mark.parametrize("n", [2 ** 61 - 1, 2 ** 64 - 59, 2 ** 80 - 65])
    def test_accepts_large_primes(self, n):
        assert _is_prime(n)

    def test_refuses_to_guess_above_the_exact_bound(self):
        assert not _is_prime(2 ** 89)  # even: decided before the bound check
        with pytest.raises(ValueError, match="prime too large"):
            _is_prime(2 ** 89 - 1)
        with pytest.raises(ValueError, match="prime too large"):
            field_from_spec("fp:%d" % (2 ** 89 - 1))


class TestLargePrimeField:
    P = 10000019

    def test_set_up_allocates_no_table(self):
        tracemalloc.start()
        try:
            PrimeField(self.P)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_residues_are_interned_on_first_use(self):
        F = PrimeField(self.P)
        assert F.of(3) is F.of(3 + self.P)
        assert F.of(-1) is F.of(self.P - 1)
        assert F.of(Fraction(1, 2)) * 2 is F.one
        with pytest.raises(ZeroDivisionError):
            F.one / F.zero

    def test_elements_come_in_residue_order(self):
        F7 = PrimeField(7)
        assert list(prime_field_elements(F7)) == list(range(7))

    @given(st.data())
    def test_ring_laws_over_a_large_prime(self, data):
        F = PrimeField(1000003)
        elems = st.integers(0, F.p - 1).map(F.of)
        a, b, c = data.draw(elems), data.draw(elems), data.draw(elems)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == F.zero
        assert a + (-a) == F.zero
        if a:
            assert a * (F.one / a) == F.one
            assert a ** -1 is F.one / a


class TestPower:
    """scalars.power and ``**`` against repeated multiplication, on
    polynomials of two or more terms, K(z) elements and matrices."""

    @staticmethod
    def repeated(one, x, n):
        out = one
        for _ in range(n):
            out = out * x
        return out

    def cases(self):
        tt = Poly1.gen(QQ)
        t5 = Poly1.gen(F5)
        xy = Poly2.x(QQ) - Poly2.y(QQ).scale(QQ.of(Fraction(1, 2))) + 1
        z = QZ.gen
        # (one, x, inverse of x or None)
        yield Poly1.one(QQ), tt.scale(QQ.of(3)) - 1, None
        yield Poly1.one(F5), t5 + 2, None
        yield Poly2.one(QQ), xy, None
        r = RationalMatrix([[1, 2, 0], [0, 1, 3], [1, 0, 1]])
        yield RationalMatrix.identity(3), r, r.inverse()
        q = (z + 1) / (z * z - 2)
        yield QZ.one, q, q.inverse()

    @pytest.mark.parametrize("n", range(8))
    def test_agrees_with_repeated_multiplication(self, n):
        for one, x, inv in self.cases():
            want = self.repeated(one, x, n)
            assert power(one, x, n) == want
            assert x ** n == want
            if inv is None:
                with pytest.raises(ValueError):
                    x ** -max(n, 1)
            else:
                assert x ** -n == self.repeated(one, inv, n)
