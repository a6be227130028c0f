"""Quasi-unipotent matrices over the rationals: orders, logs, and the
conjugation-scaling identity.

All arithmetic is exact.  Matrices here are square of any small size,
independent of the 2x2 types used by the plane-map machinery, because the
log/exp identities are worth checking on 3x3 and 4x4 witnesses too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from ..poly import Poly1
from ..scalars import QQ, power


class RationalMatrix:
    """An immutable n x n matrix of exact rationals."""

    __slots__ = ("n", "entries")

    def __init__(self, rows):
        rows = tuple(tuple(Fraction(v) for v in row) for row in rows)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise ValueError("square matrix required")
        self.n = n
        self.entries = rows

    @classmethod
    def _make(cls, rows) -> RationalMatrix:
        # internal: square rows of Fraction entries, so no coercion
        out = object.__new__(cls)
        out.entries = tuple(map(tuple, rows))
        out.n = len(out.entries)
        return out

    @classmethod
    def identity(cls, n: int) -> RationalMatrix:
        one, zero = Fraction(1), Fraction(0)
        return cls._make([[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, n: int) -> RationalMatrix:
        return cls._make([[Fraction(0)] * n] * n)

    def __mul__(self, other: RationalMatrix) -> RationalMatrix:
        if self.n != other.n:
            raise ValueError("size mismatch")
        cols = tuple(zip(*other.entries))
        return RationalMatrix._make(
            [[sum(a * b for a, b in zip(row, col)) for col in cols]
             for row in self.entries])

    def __sub__(self, other: RationalMatrix) -> RationalMatrix:
        return RationalMatrix._make(
            [[a - b for a, b in zip(r1, r2)]
             for r1, r2 in zip(self.entries, other.entries)])

    def scale(self, c) -> RationalMatrix:
        c = Fraction(c)
        return RationalMatrix._make([[c * a for a in row] for row in self.entries])

    def __pow__(self, k: int) -> RationalMatrix:
        if k < 0:
            return self.inverse() ** (-k)
        return power(RationalMatrix.identity(self.n), self, k)

    def inverse(self) -> RationalMatrix:
        """-M_n / c_0 from the charpoly loop; raises ValueError on singular input."""
        coeffs, adj = self._leverrier()
        if not coeffs[0]:
            raise ValueError("singular matrix")
        c = -1 / coeffs[0]
        return RationalMatrix._make([[c * v for v in row] for row in adj])

    def is_zero(self) -> bool:
        return all(not v for row in self.entries for v in row)

    def _leverrier(self) -> tuple:
        """Faddeev-LeVerrier: the coefficients c_k of det(x*I - self) by
        degree, and the rows of M_n, where M_1 = I and M_(k+1) = self * M_k
        + c_(n-k) I, so that self * M_n = -c_0 I."""
        n, rows = self.n, self.entries
        coeffs, m, am = {n: QQ.one}, RationalMatrix.identity(n).entries, rows
        for k in range(1, n + 1):
            coeffs[n - k] = ck = -sum(am[i][i] for i in range(n)) / k
            if k < n:
                m = [[v + ck if i == j else v for j, v in enumerate(row)] for i, row in enumerate(am)]
                cols = tuple(zip(*m))
                am = [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in rows]
        return coeffs, m

    def charpoly(self) -> Poly1:
        """det(x*I - self) as a monic Poly1 over Q."""
        return Poly1(QQ, self._leverrier()[0])

    def __eq__(self, other):
        return (isinstance(other, RationalMatrix) and other.n == self.n
                and other.entries == self.entries)

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return "RationalMatrix(%r)" % (self.entries,)


def euler_phi(d: int) -> int:
    out = d
    q = d
    f = 2
    while f * f <= q:
        if q % f == 0:
            out -= out // f
            while q % f == 0:
                q //= f
        f += 1
    if q > 1:
        out -= out // q
    return out


@lru_cache(maxsize=None)
def cyclotomic(d: int) -> Poly1:
    """The d-th cyclotomic polynomial over Q, by exact trial division."""
    p = Poly1(QQ, {d: QQ.one, 0: -QQ.one})
    for e in range(1, d):
        if d % e == 0:
            p = p.exact_div(cyclotomic(e))
    return p


def quasi_unipotent_order(u: RationalMatrix):
    """Least n with u**n unipotent, or None if some eigenvalue is not a
    root of unity.  Works by dividing the characteristic polynomial by
    cyclotomic polynomials; raises ValueError on singular input."""
    chi = u.charpoly()
    if not chi.coeff(0):
        raise ValueError("singular matrix")
    # phi(d) <= n forces d <= 2 n^2, so this range is exhaustive
    order = 1
    for d in range(1, 2 * u.n * u.n + 1):
        if euler_phi(d) > u.n:
            continue
        phi_d = cyclotomic(d)
        while True:
            quotient, remainder = divmod(chi, phi_d)
            if not remainder.is_zero():
                break
            chi = quotient
            order = math.lcm(order, d)
    return order if chi.degree() == 0 else None


def is_unipotent(u: RationalMatrix) -> bool:
    return ((u - RationalMatrix.identity(u.n)) ** u.n).is_zero()


def unipotent_log(u: RationalMatrix) -> RationalMatrix:
    """-sum (1-u)^m / m, a nilpotent matrix with exp(log u) = u."""
    if not is_unipotent(u):
        raise ValueError("matrix is not unipotent")
    nilpart = RationalMatrix.identity(u.n) - u
    acc = RationalMatrix.zero(u.n)
    power = nilpart
    m = 1
    while not power.is_zero():
        acc = acc - power.scale(Fraction(1, m))
        power = power * nilpart
        m += 1
    return acc


@dataclass(frozen=True)
class LogScalingResult:
    """Outcome of the conjugation-scaling check, with the precondition
    (h u h^-1 = u^(2^k)) reported separately from the scaling conclusion
    (h e h^-1 = 2^k e for e = log of the unipotent power of u)."""

    quasi_order: int
    precondition_ok: bool
    conclusion_ok: bool

    @property
    def ok(self) -> bool:
        return self.precondition_ok and self.conclusion_ok

    def __bool__(self) -> bool:
        return self.ok


def log_scaling_check(h: RationalMatrix, u: RationalMatrix, k: int) -> LogScalingResult:
    """Verify that conjugation by h doubling u (2^k)-fold scales log(u^n)
    by 2^k, where n is the quasi-order of u."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    order = quasi_unipotent_order(u)
    if order is None:
        raise ValueError("matrix is not quasi-unipotent")
    h_inv = h.inverse()
    conj = h * u * h_inv
    precondition_ok = conj == u ** (2 ** k)
    e = unipotent_log(u ** order)
    conclusion_ok = (h * e * h_inv) == e.scale(2 ** k)
    return LogScalingResult(order, precondition_ok, conclusion_ok)
