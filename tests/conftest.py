"""Shared fields, hypothesis strategies, and the acceptance summary hook."""

from fractions import Fraction

import pytest
from hypothesis import strategies as st

from tameplane import PrimeField, QQ, RationalFunctionField
from tameplane.poly import Poly1, Poly2

F5 = PrimeField(5)
F2 = PrimeField(2)
F1000003 = PrimeField(1000003)
F_M61 = PrimeField(2 ** 61 - 1)
QZ = RationalFunctionField(QQ)
FIELDS = (QQ, F5, QZ)

# one "[criterion NN] PASS/FAIL ..." line per acceptance criterion,
# echoed after the test summary so they are visible without -s
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(params=FIELDS, ids=("rationals", "mod5", "rationals-of-z"))
def field(request):
    return request.param


def rationals(max_num: int = 30, max_den: int = 12):
    return st.builds(
        Fraction,
        st.integers(-max_num, max_num),
        st.integers(1, max_den),
    ).map(QQ.of)


def scalars(field):
    """Strategy for elements of one of the shared fields or any F_p."""
    if field is QQ:
        return rationals()
    if isinstance(field, PrimeField):
        return st.integers(0, field.p - 1).map(field.of)
    if field is QZ:
        # ratio of small integer polynomials with nonzero denominator
        num = poly1(QQ, max_deg=2)
        den = poly1(QQ, max_deg=1).filter(lambda p: not p.is_zero())
        return st.builds(lambda n, d: QZ.of(n) / QZ.of(d), num, den)
    raise AssertionError(field)


def nonzero_scalars(field):
    return scalars(field).filter(bool)


def poly1(field, max_deg: int = 4):
    return st.dictionaries(
        st.integers(0, max_deg), scalars(field), max_size=max_deg + 1
    ).map(lambda terms: Poly1(field, terms))


def poly2(field, max_deg: int = 3):
    exps = st.tuples(st.integers(0, max_deg), st.integers(0, max_deg))
    return st.dictionaries(exps, scalars(field), max_size=6).map(
        lambda terms: Poly2(field, terms)
    )
