"""Rational function fields K(z) over an exact base field.

Elements are reduced fractions of ``Poly1`` values in the variable z with a
monic denominator, so equality and hashing are structural.
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
        if den.degree() > 0:  # a nonzero constant is prime to every num
            g = num.gcd(den)
            if g.degree() > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
        lc = den.leading_coeff()
        if lc != field.base.one:
            inv = field.base.one / lc
            num = num.scale(inv)
            den = den.scale(inv)
        self.field = field
        self.num = num
        self.den = den

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            if other.field == self.field:
                return other
            return None
        try:
            return self.field.of(other)
        except TypeError:
            return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalFunction(self.field, self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        # -num/den is still reduced with a monic denominator
        out = object.__new__(RationalFunction)
        out.field, out.num, out.den = self.field, -self.num, self.den
        return out

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
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
        return RationalFunction(self.field, self.den, self.num)

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.field.one
        for _ in range(n):
            out = out * self
        return out

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
