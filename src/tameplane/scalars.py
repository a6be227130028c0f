"""Exact scalar backends.

Two field objects live here: the rationals (a singleton whose elements are
fractions.Fraction) and prime fields F_p.
Rational function fields K(z) are built on top of these in
:mod:`tameplane.ratfunc`.

Every field object exposes the same small protocol used throughout the
package: ``zero``, ``one``, ``of``, ``characteristic``, ``random_element``.
Scalars themselves are immutable, hashable, support ``+ - * / **`` and are
falsy exactly when zero.

Polynomials (:mod:`tameplane.poly`) and the affine maps ``AffineAuto``
(:mod:`tameplane.automorphisms`) store integer numerators over one
denominator and reach the field only through three hooks: ``lift(c)`` is an
element as (num, den), ``normalize(nums, den)`` brings a dict of numerators
over den to the canonical form (over Q no zeros, den > 0 and
gcd(den, *nums) = 1; over F_p residues in [1, p) over 1), and
``ratio(num, den)`` is the element num/den.

``power`` is the one exponentiation-by-squaring loop, for polynomials of two
or more terms and ``RationalMatrix``; a one-term polynomial raises its
coefficient and a K(z) element its numerator and denominator instead.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

# The rational backend's element type; perfbench/worker.py reads this name to
# report the backend of every run.
_ratio = Fraction


# The first 13 primes as Miller-Rabin bases decide primality exactly below
# psi_13 = 3317044064679887385961981, the least strong pseudoprime to all of
# them (Sorenson & Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 86, 2017).  The first 12 alone are fooled by
# psi_12 = 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Exact primality by deterministic Miller-Rabin.

    Raises ValueError for n >= 3.3e24, where these bases no longer decide
    primality; there is no probabilistic fallback.
    """
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= _MR_EXACT_BELOW:
        raise ValueError("prime too large: %d bits; primality is decided exactly "
                         "only below 3.3e24" % n.bit_length())
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def power(one, x, n: int):
    """x**n for n >= 0 by repeated squaring from ``one``, for any associative
    ``*``; each caller handles its own negative exponents.  Polynomials call
    it for bases of two or more terms only."""
    out = one
    while n:
        if n & 1:
            out = out * x
        n >>= 1
        if n:
            x = x * x
    return out


class _LazyTable(dict):
    """A dict that stores ``make(key)`` the first time ``key`` is looked up."""

    __slots__ = ("make",)

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


class PrimeFieldElement:
    """A residue in F_p.  Arithmetic coerces plain ints.

    Instances are interned per field: there is one element per residue,
    created the first time that residue is needed, and ops look it up in the
    field's ``_elems`` table instead of allocating.  Polynomials hold int
    residues, so this serves the element-valued side: coefficient reads
    (``ratio``), scalar arithmetic in the atoms and the matrix peel, and
    parsing; equal elements are one object, which ``__eq__`` checks first.
    ``PrimeFieldElement(F, v)`` is ``F.of(v)``.
    """

    __slots__ = ("field", "value")

    def __new__(cls, field: PrimeField, value: int):
        return field._elems[value % field.p]

    def _residue(self, other):
        """The residue of an int or of an element of this field; None for any
        other operand, which the operators answer with NotImplemented."""
        if type(other) is PrimeFieldElement:
            if other.field is not self.field:
                raise ValueError("mixed prime fields")
            return other.value
        if isinstance(other, int):
            return other % self.field.p
        return None

    def __add__(self, other):
        f, r = self.field, self._residue(other)
        return NotImplemented if r is None else f._elems[(self.value + r) % f.p]

    __radd__ = __add__

    def __sub__(self, other):
        f, r = self.field, self._residue(other)
        return NotImplemented if r is None else f._elems[(self.value - r) % f.p]

    def __rsub__(self, other):
        f, r = self.field, self._residue(other)
        return NotImplemented if r is None else f._elems[(r - self.value) % f.p]

    def __mul__(self, other):
        f, r = self.field, self._residue(other)
        return NotImplemented if r is None else f._elems[self.value * r % f.p]

    __rmul__ = __mul__

    def __truediv__(self, other):
        f, r = self.field, self._residue(other)
        return NotImplemented if r is None else f._elems[self.value * f._inv(r) % f.p]

    def __rtruediv__(self, other):
        f, r = self.field, self._residue(other)
        return NotImplemented if r is None else f._elems[r * f._inv(self.value) % f.p]

    def __pow__(self, n: int):
        f = self.field
        v = self.value
        if n < 0:
            v = f._inv(v)
            n = -n
        return f._elems[pow(v, n, f.p)]

    def __neg__(self):
        return self.field._elems[-self.value % self.field.p]

    def __bool__(self):
        return self.value != 0

    def __eq__(self, other):
        if self is other:
            return True
        if isinstance(other, int):
            return self.value == other % self.field.p
        return (
            type(other) is PrimeFieldElement
            and other.field is self.field
            and other.value == self.value
        )

    def __hash__(self):
        return hash((self.field.p, self.value))

    def __repr__(self):
        return "%d" % self.value


def _new_element(field: PrimeField, v: int) -> PrimeFieldElement:
    # the only place an element is allocated; v is already reduced mod p
    e = object.__new__(PrimeFieldElement)
    e.field = field
    e.value = v
    return e


class PrimeField:
    """The field with p elements.  Instances are interned per prime.

    Set-up is O(1) for every p: the element of a residue and the inverse of
    a residue are each computed on first use and kept, so memory grows with
    the residues a computation touches, not with p.
    """

    _cache: dict[int, PrimeField] = {}

    def __new__(cls, p: int):
        inst = cls._cache.get(p)
        if inst is None:
            if not _is_prime(p):
                raise ValueError("not a prime: %d" % p)
            inst = super().__new__(cls)
            inst.p = p
            inst._elems = _LazyTable(lambda v: _new_element(inst, v))
            inst._inverses = _LazyTable(lambda v: pow(v, -1, p))
            inst.zero = inst._elems[0]
            inst.one = inst._elems[1]
            cls._cache[p] = inst
        return inst

    def _inv(self, v: int) -> int:
        if v == 0:
            raise ZeroDivisionError("division by zero in %r" % self)
        return self._inverses[v]

    @property
    def characteristic(self) -> int:
        return self.p

    def of(self, v) -> PrimeFieldElement:
        """Coerce an int, rational, or element of this field."""
        if type(v) is PrimeFieldElement:
            if v.field is not self:
                raise ValueError("element of %r, not %r" % (v.field, self))
            return v
        if isinstance(v, int):
            return self._elems[v % self.p]
        if isinstance(v, Fraction):
            num, den = v.numerator, v.denominator
            return self._elems[(num % self.p) * self._inv(den % self.p) % self.p]
        raise TypeError("cannot coerce %r into %r" % (v, self))

    def lift(self, c: PrimeFieldElement) -> tuple:
        return c.value, 1

    def normalize(self, nums: dict, den: int) -> tuple:
        # den is 1: every F_p polynomial is over 1
        p = self.p
        return {k: r for k, v in nums.items() if (r := v % p)}, 1

    def ratio(self, num: int, den: int) -> PrimeFieldElement:
        # num is a stored residue and den is 1
        return self._elems[num]

    def random_element(self, rng, height: int = 0) -> PrimeFieldElement:
        # height is ignored; every residue is equally small
        return self._elems[rng.randrange(self.p)]

    def random_nonzero(self, rng, height: int = 4) -> PrimeFieldElement:
        return self._elems[rng.randrange(1, self.p)]

    def __eq__(self, other):
        return self is other or (isinstance(other, PrimeField) and other.p == self.p)

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return "F_%d" % self.p


class RationalField:
    """The rationals; elements are fractions.Fraction."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    zero = Fraction(0)
    one = Fraction(1)
    characteristic = 0

    def of(self, v):
        if isinstance(v, Fraction):
            return v
        if isinstance(v, int):
            return Fraction(v)
        raise TypeError("cannot coerce %r into Q" % (v,))

    def lift(self, c: Fraction) -> tuple:
        return c.numerator, c.denominator

    def normalize(self, nums: dict, den: int) -> tuple:
        if 0 in nums.values():
            nums = {k: v for k, v in nums.items() if v}
        if den != 1:
            g = gcd(den, *nums.values())
            if g != 1:
                den //= g
                nums = {k: v // g for k, v in nums.items()}
        return nums, den

    def ratio(self, num: int, den: int):
        return Fraction(num, den) if den != 1 else Fraction(num)

    def random_element(self, rng, height: int = 4):
        return Fraction(rng.randint(-height, height), rng.randint(1, height))

    def random_nonzero(self, rng, height: int = 4):
        num = rng.choice([n for n in range(-height, height + 1) if n != 0])
        return Fraction(num, rng.randint(1, height))

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "Q"


QQ = RationalField()
