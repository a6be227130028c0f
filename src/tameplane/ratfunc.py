"""Rational function fields K(z) over an exact base field.

Elements are reduced fractions of ``Poly1`` values in the variable z with a
monic denominator, so equality and hashing are structural.

Building an element from num/den runs a Euclidean gcd in K[z] (von zur
Gathen & Gerhard, *Modern Computer Algebra*, ch. 3).  A zero num gives 0/1,
and these results are reduced by construction, so they skip it: negation
(-num/den keeps the factors); add, sub and mul of two polynomial elements (a
monic constant denominator is exactly 1, so the result is a polynomial over
1); ``inverse()`` (den/num is coprime too, so only num is scaled to be
monic), which division uses; and ``**``, num^n/den^n with den^n monic.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import Poly1
from .scalars import QQ, PrimeField


class RationalFunction:
    """num/den with den monic, gcd(num, den) = 1."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: RationalFunctionField, num: Poly1, den: Poly1):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():  # 0/den is 0/1, with no gcd
            den = Poly1.one(den.field)
        elif den.degree() > 0:  # a nonzero constant is prime to every num
            g = num.gcd(den)
            if g.degree() > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
        self._set_monic(field, num, den)

    @classmethod
    def _coprime(cls, field, num: Poly1, den: Poly1) -> RationalFunction:
        """num/den from a coprime pair with den nonzero: no gcd runs."""
        out = object.__new__(cls)
        out._set_monic(field, num, den)
        return out

    def _set_monic(self, field, num: Poly1, den: Poly1) -> None:
        lc = den.leading_coeff()
        if lc != field.base.one:
            inv = field.base.one / lc
            num = num.scale(inv)
            den = den.scale(inv)
        self.field, self.num, self.den = field, num, den

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            if other.field == self.field:
                return other
            return None
        try:
            return self.field.of(other)
        except TypeError:
            return None

    def _both_polynomials(self, o) -> bool:
        # a monic denominator of degree 0 is exactly 1
        return self.den.degree() == 0 and o.den.degree() == 0

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self._both_polynomials(o):
            return RationalFunction._coprime(self.field, self.num + o.num, self.den)
        return RationalFunction(self.field, self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction._coprime(self.field, -self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self._both_polynomials(o):
            return RationalFunction._coprime(self.field, self.num - o.num, self.den)
        return RationalFunction(self.field, self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        one = self.field.one
        if self is one or o is one:  # 1 c is c: x, y and t carry this one
            return o if self is one else self
        if self._both_polynomials(o):
            return RationalFunction._coprime(self.field, self.num * o.num, self.den)
        return RationalFunction(self.field, self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def inverse(self) -> RationalFunction:
        if self.num.is_zero():
            raise ZeroDivisionError("inverting the zero rational function")
        return RationalFunction._coprime(self.field, self.den, self.num)

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        if self is self.field.one:
            return self
        return RationalFunction._coprime(self.field, self.num ** n, self.den ** n)

    def __bool__(self):
        return not self.num.is_zero()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.field, self.num, self.den))

    def __repr__(self):
        if self.den.degree() == 0:
            return "RatFunc(%r)" % self.num
        return "RatFunc(%r / %r)" % (self.num, self.den)


class RationalFunctionField:
    """The field of rational functions in one variable over ``base``."""

    _cache: dict = {}

    def __new__(cls, base):
        inst = cls._cache.get(base)
        if inst is None:
            inst = super().__new__(cls)
            inst.base = base
            inst.zero = RationalFunction(inst, Poly1.zero(base), Poly1.one(base))
            inst.one = RationalFunction(inst, Poly1.one(base), Poly1.one(base))
            inst.gen = RationalFunction(inst, Poly1.gen(base), Poly1.one(base))
            cls._cache[base] = inst
        return inst

    @property
    def characteristic(self) -> int:
        return self.base.characteristic

    def of(self, v) -> RationalFunction:
        if isinstance(v, RationalFunction):
            if v.field == self:
                return v
            raise TypeError("element of %r, not %r" % (v.field, self))
        if isinstance(v, Poly1):
            if v.field == self.base:
                return RationalFunction(self, v, Poly1.one(self.base))
            raise TypeError("polynomial over %r, not %r" % (v.field, self.base))
        if isinstance(v, (int, Fraction)) or type(v) is type(self.base.zero):
            return RationalFunction(self, Poly1.constant(self.base, self.base.of(v)), Poly1.one(self.base))
        raise TypeError("cannot coerce %r into %r" % (v, self))

    def lift(self, c: RationalFunction) -> tuple:
        return c, 1

    def normalize(self, nums: dict, den: int) -> tuple:
        return {k: v for k, v in nums.items() if v}, 1

    def ratio(self, num: RationalFunction, den: int) -> RationalFunction:
        return num

    def random_element(self, rng, height: int = 4) -> RationalFunction:
        # polynomial elements of small degree keep downstream composites tame
        deg = rng.randrange(0, 3)
        p = Poly1(self.base, {e: self.base.random_element(rng, height) for e in range(deg + 1)})
        return self.of(p)

    def random_nonzero(self, rng, height: int = 4) -> RationalFunction:
        while True:
            v = self.random_element(rng, height)
            if v:
                return v

    def __eq__(self, other):
        return isinstance(other, RationalFunctionField) and other.base == self.base

    def __hash__(self):
        return hash(("RationalFunctionField", self.base))

    def __repr__(self):
        return "%r(z)" % (self.base,)


def field_from_spec(spec: str):
    """Resolve a field name: q, fp:<p>, q-of-z, fp:<p>-of-z."""
    s = spec.strip().lower()
    of_z = False
    if s.endswith("-of-z"):
        of_z = True
        s = s[: -len("-of-z")]
    if s == "q":
        base = QQ
    elif s.startswith("fp:"):
        try:
            p = int(s[3:])
        except ValueError:
            raise ValueError("bad field spec %r" % spec) from None
        base = PrimeField(p)
    else:
        raise ValueError("bad field spec %r" % spec)
    return RationalFunctionField(base) if of_z else base
