"""Sparse exact polynomials in one and two variables over a field object.

Both kinds are dicts from exponent keys to nonzero coefficients: ``Poly1``
keys are exponents, ``Poly2`` keys are exponent pairs (i, j) (i for the
first variable, j for the second).  ``_SparsePoly`` holds every operation
that does not look inside a key (construction, addition, scaling, powers,
equality and hashing) and the multiply, which takes one of two paths:

* the dict loop (``_mul_dict``, one per subclass because it adds keys)
  multiplies every pair of terms;
* the packed path (``_mul_packed``) is Kronecker substitution: each operand
  becomes one Python int with one fixed-width slot per exponent (slot
  ``i*W + j`` for ``Poly2``, with ``W`` one more than the sum of the y
  degrees), so a single big-int product, which CPython does by Karatsuba,
  does all the coefficient work.  Over Q a slot holds an integer numerator
  over the operand's lcm denominator, over F_p the residue.

The packed path runs over Q and F_p once the number of term pairs reaches
``_PACK_MIN_PAIRS`` for the field and the product has few enough empty
slots.  Smaller products and coefficients in K(z) stay on the dict loop.
Coefficients are whatever scalars the field backend produces and are never
stored when zero.  The degree of the zero polynomial is ``NEG_INF`` so that
degree comparisons and products behave uniformly.

>>> from tameplane.scalars import QQ
>>> t = Poly1.gen(QQ)
>>> ((t + 1) ** 2).items()
[(0, Fraction(1, 1)), (1, Fraction(2, 1)), (2, Fraction(1, 1))]
"""

from __future__ import annotations

import math

from .scalars import PrimeField, RationalField

NEG_INF = float("-inf")

# Term pairs (len(a.terms) * len(b.terms)) from which products use the packed
# multiply, per field type.  Timed on a 2-core x86-64 host with CPython 3.11
# over the products the four perfbench workloads make: any crossover from 12
# to 16 pairs over Q, and from 36 to 64 over F_p, gave the least multiply
# time.  Fields not listed (K(z)) always use the dict loop.
_PACK_MIN_PAIRS = {RationalField: 16, PrimeField: 49}
# The packed product has one slot per exponent up to the top one, so its
# memory grows with the exponents, which parsed input leaves unbounded: past
# this many slots per term pair (sparse operands, large exponents) the dict
# loop runs.  No perfbench product has more than 2, and the value 4 is not
# timed against the dict loop.
_PACK_MAX_SLOTS_PER_PAIR = 4


def _pack(values: dict, size: int) -> int:
    """sum(v * 256**(size*k)) for slot k -> int v, each |v| < 256**size."""
    top = (max(values) + 1) * size
    pos = bytearray(top)
    neg = None
    for k, v in values.items():
        if v >= 0:
            pos[k * size:(k + 1) * size] = v.to_bytes(size, "little")
        else:
            if neg is None:
                neg = bytearray(top)
            neg[k * size:(k + 1) * size] = (-v).to_bytes(size, "little")
    n = int.from_bytes(pos, "little")
    return n if neg is None else n - int.from_bytes(neg, "little")


def _kronecker_mul(field, a: dict, b: dict, w: int = 0) -> dict | None:
    """The product of two term dicts over Q or F_p, by one big-int multiply,
    keyed by slot; None when the product would have too many empty slots.
    Keys are ints (the slots), or with w > 0 pairs (i, j) in slot i*w + j."""
    if not a or not b:
        return {}
    if w:
        # j < w, so the top slot of each operand is its largest pair
        (ia, ja), (ib, jb) = max(a), max(b)
        top = (ia + ib) * w + ja + jb + 1
    else:
        top = max(a) + max(b) + 1
    if top > _PACK_MAX_SLOTS_PER_PAIR * len(a) * len(b):
        return None
    if w:
        a = {i * w + j: c for (i, j), c in a.items()}
        b = {i * w + j: c for (i, j), c in b.items()}
    if type(field) is PrimeField:
        ia = {k: c.value for k, c in a.items()}
        ib = {k: c.value for k, c in b.items()}
    else:
        da = math.lcm(*[c.denominator for c in a.values()])
        db = math.lcm(*[c.denominator for c in b.values()])
        ia = {k: c.numerator * (da // c.denominator) for k, c in a.items()}
        ib = {k: c.numerator * (db // c.denominator) for k, c in b.items()}
    # a slot of the product sums at most min(len(a), len(b)) products, so
    # this bound plus a sign bit and a bias bit never overflows a slot
    bound = min(len(a), len(b)) * max(map(abs, ia.values())) * max(map(abs, ib.values()))
    size = (bound.bit_length() + 9) // 8
    half = 1 << (8 * size - 1)
    # adding half to every slot makes every digit nonnegative, so one
    # to_bytes splits the product into its slots without carries
    bias = bytes(size - 1) + b"\x80"
    digits = (_pack(ia, size) * _pack(ib, size)
              + int.from_bytes(bias * top, "little")).to_bytes(top * size, "little")
    out = {}
    slots = enumerate(range(0, top * size, size))
    if type(field) is PrimeField:
        p, elems = field.p, field._elems
        for k, s in slots:
            chunk = digits[s:s + size]
            if chunk != bias:
                v = (int.from_bytes(chunk, "little") - half) % p
                if v:
                    out[k] = elems[v]
    else:
        ratio, den = field.ratio, da * db
        for k, s in slots:
            chunk = digits[s:s + size]
            if chunk != bias:
                out[k] = ratio(int.from_bytes(chunk, "little") - half, den)
    return out


class _SparsePoly:
    """Key-shape-independent arithmetic on a dict of nonzero coefficients."""

    __slots__ = ("field", "terms", "_hash")

    _CONST_KEY: object  # the key of the constant term, set by each subclass

    def __init__(self, field, terms: dict | None = None):
        self.field = field
        clean = {}
        if terms:
            for k, c in terms.items():
                if c:
                    clean[k] = c
        self.terms = clean
        self._hash = None

    @classmethod
    def _make(cls, field, clean_terms: dict):
        # internal fast path: caller guarantees no zero coefficients
        p = object.__new__(cls)
        p.field = field
        p.terms = clean_terms
        p._hash = None
        return p

    @classmethod
    def zero(cls, field):
        return cls._make(field, {})

    @classmethod
    def one(cls, field):
        return cls._make(field, {cls._CONST_KEY: field.one})

    @classmethod
    def constant(cls, field, c):
        c = field.of(c)
        return cls._make(field, {cls._CONST_KEY: c} if c else {})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def items(self) -> list:
        return sorted(self.terms.items())

    def constant_term(self):
        return self.terms.get(self._CONST_KEY, self.field.zero)

    # -- ring operations -----------------------------------------------

    def _coerce(self, other):
        if isinstance(other, type(self)):
            return other
        if isinstance(other, _SparsePoly):
            return None  # a Poly1 never mixes with a Poly2
        try:
            return self.constant(self.field, other)
        except TypeError:
            return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for k, c in o.terms.items():
            s = out.get(k)
            s = c if s is None else s + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return self._make(self.field, out)

    __radd__ = __add__

    def __neg__(self):
        return self._make(self.field, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if type(other) is not type(self):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        terms = None
        if (other.field is self.field and len(self.terms) * len(other.terms)
                >= _PACK_MIN_PAIRS.get(type(self.field), math.inf)):
            terms = self._mul_packed(other)
        if terms is None:
            terms = self._mul_dict(other)
        return self._make(self.field, terms)

    __rmul__ = __mul__

    def scale(self, c):
        c = self.field.of(c)
        if not c:
            return self.zero(self.field)
        # comparing with an int is cheap for Fraction and F_p elements, unlike
        # c == field.one, and polynomials are immutable, so self can be shared
        if c == 1:
            return self
        if c == -1:
            return -self
        return self._make(self.field, {k: c * v for k, v in self.terms.items()})

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = self.one(self.field)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- comparisons ------------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.field == o.field and self.terms == o.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field, tuple(sorted(self.terms.items()))))
        return self._hash


class Poly1(_SparsePoly):
    """A univariate polynomial with exact coefficients."""

    __slots__ = ()
    _CONST_KEY = 0

    @classmethod
    def gen(cls, field) -> Poly1:
        return cls._make(field, {1: field.one})

    @classmethod
    def monomial(cls, field, e: int, c) -> Poly1:
        c = field.of(c)
        return cls._make(field, {e: c} if c else {})

    # -- basic queries -------------------------------------------------

    def degree(self):
        return max(self.terms) if self.terms else NEG_INF

    def valuation(self):
        """Smallest exponent with a nonzero coefficient.

        The zero polynomial has none, so it raises ValueError."""
        if not self.terms:
            raise ValueError("valuation of the zero polynomial")
        return min(self.terms)

    def coeff(self, e: int):
        return self.terms.get(e, self.field.zero)

    def leading_coeff(self):
        if not self.terms:
            return self.field.zero
        return self.terms[max(self.terms)]

    def is_constant(self) -> bool:
        return self.degree() <= 0

    # -- ring operations -----------------------------------------------

    def _mul_dict(self, other: Poly1) -> dict:
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                s = out.get(e)
                s = c1 * c2 if s is None else s + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return out

    def _mul_packed(self, other: Poly1) -> dict | None:
        return _kronecker_mul(self.field, self.terms, other.terms)

    def __divmod__(self, other: Poly1):
        if not isinstance(other, Poly1):
            other = Poly1.constant(self.field, other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = Poly1.zero(self.field)
        r = self
        d = other.degree()
        lc = other.leading_coeff()
        while r.terms and r.degree() >= d:
            shift = r.degree() - d
            c = r.leading_coeff() / lc
            m = Poly1._make(self.field, {shift: c})
            q = q + m
            r = r - m * other
        return q, r

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other: Poly1) -> Poly1:
        q, r = divmod(self, other)
        if r.terms:
            raise ValueError("inexact polynomial division")
        return q

    def monic(self) -> Poly1:
        if not self.terms:
            return self
        return self.scale(self.field.one / self.leading_coeff())

    def gcd(self, other: Poly1) -> Poly1:
        a, b = self, other
        while b.terms:
            a, b = b, a % b
        return a.monic()

    # -- substitution and calculus ---------------------------------------

    def evaluate(self, point):
        """Horner evaluation at a scalar of the coefficient field."""
        acc = self.field.zero
        prev = None
        for e in sorted(self.terms, reverse=True):
            if prev is not None:
                for _ in range(prev - e):
                    acc = acc * point
            acc = acc + self.terms[e]
            prev = e
        if prev is not None:
            for _ in range(prev):
                acc = acc * point
        return acc

    def substitute(self, value: _SparsePoly) -> _SparsePoly:
        """Plug a Poly1 or a Poly2 in for the variable; the result has its kind."""
        acc = value.zero(self.field)
        pw = value.one(self.field)
        last_e = 0
        for e, c in self.items():
            for _ in range(e - last_e):
                pw = pw * value
            last_e = e
            acc = acc + pw.scale(c)
        return acc

    def compose(self, other: Poly1) -> Poly1:
        """self(other(t)) as a Poly1."""
        return self.substitute(other)

    def shift_down(self, k: int = 1) -> Poly1:
        """Exact division by t**k (raises if any low coefficient survives)."""
        out = {}
        for e, c in self.terms.items():
            if e < k:
                raise ValueError("polynomial not divisible by t^%d" % k)
            out[e - k] = c
        return Poly1._make(self.field, out)

    def shift_up(self, k: int = 1) -> Poly1:
        return Poly1._make(self.field, {e + k: c for e, c in self.terms.items()})

    def drop_below(self, k: int) -> Poly1:
        """Zero out all coefficients of exponent < k."""
        return Poly1._make(self.field, {e: c for e, c in self.terms.items() if e >= k})

    def __repr__(self):
        if not self.terms:
            return "Poly1(0)"
        bits = ["%r*t^%d" % (c, e) for e, c in self.items()]
        return "Poly1(%s)" % " + ".join(bits)


class Poly2(_SparsePoly):
    """A polynomial in two variables, exponent pairs (i, j) -> coefficient."""

    __slots__ = ()
    _CONST_KEY = (0, 0)

    @classmethod
    def x(cls, field) -> Poly2:
        return cls._make(field, {(1, 0): field.one})

    @classmethod
    def y(cls, field) -> Poly2:
        return cls._make(field, {(0, 1): field.one})

    @classmethod
    def monomial(cls, field, i: int, j: int, c) -> Poly2:
        c = field.of(c)
        return cls._make(field, {(i, j): c} if c else {})

    # -- queries -----------------------------------------------------------

    def total_degree(self):
        return max(i + j for i, j in self.terms) if self.terms else NEG_INF

    def coeff(self, i: int, j: int):
        return self.terms.get((i, j), self.field.zero)

    def is_constant(self) -> bool:
        return self.total_degree() <= 0

    def leading_form(self) -> Poly2:
        """The top homogeneous component."""
        d = self.total_degree()
        if d is NEG_INF:
            return self
        return Poly2._make(self.field, {ij: c for ij, c in self.terms.items() if ij[0] + ij[1] == d})

    # -- ring operations -----------------------------------------------

    def _mul_dict(self, other: Poly2) -> dict:
        out: dict = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                ij = (i1 + i2, j1 + j2)
                s = out.get(ij)
                s = c1 * c2 if s is None else s + c1 * c2
                if s:
                    out[ij] = s
                else:
                    out.pop(ij, None)
        return out

    def _mul_packed(self, other: Poly2) -> dict | None:
        a, b = self.terms, other.terms
        w = max((j for _, j in a), default=0) + max((j for _, j in b), default=0) + 1
        out = _kronecker_mul(self.field, a, b, w)
        return None if out is None else {divmod(k, w): c for k, c in out.items()}

    # -- substitution and calculus ---------------------------------------

    def substitute(self, u: Poly2, v: Poly2) -> Poly2:
        """self with u plugged in for the first variable and v for the second.

        Powers of u and v are cached because compositions reuse them heavily.
        """
        if not self.terms:
            return Poly2.zero(self.field)
        pu: list[Poly2] = [Poly2.one(self.field)]
        pv: list[Poly2] = [Poly2.one(self.field)]
        for _ in range(max(i for i, _ in self.terms)):
            pu.append(pu[-1] * u)
        for _ in range(max(j for _, j in self.terms)):
            pv.append(pv[-1] * v)
        out = Poly2.zero(self.field)
        for (i, j), c in self.items():
            out = out + (pu[i] * pv[j]).scale(c)
        return out

    def evaluate(self, a, b):
        a = self.field.of(a)
        b = self.field.of(b)
        acc = self.field.zero
        pa: dict[int, object] = {0: self.field.one}
        pb: dict[int, object] = {0: self.field.one}

        def power(table, base, n):
            if n not in table:
                table[n] = power(table, base, n - 1) * base
            return table[n]

        for (i, j), c in self.terms.items():
            acc = acc + c * power(pa, a, i) * power(pb, b, j)
        return acc

    def partial_x(self) -> Poly2:
        out = {}
        for (i, j), c in self.terms.items():
            if i:
                v = c * i
                if v:
                    out[(i - 1, j)] = v
        return Poly2._make(self.field, out)

    def partial_y(self) -> Poly2:
        out = {}
        for (i, j), c in self.terms.items():
            if j:
                v = c * j
                if v:
                    out[(i, j - 1)] = v
        return Poly2._make(self.field, out)

    def __repr__(self):
        if not self.terms:
            return "Poly2(0)"
        bits = ["%r*x^%d*y^%d" % (c, i, j) for (i, j), c in self.items()]
        return "Poly2(%s)" % " + ".join(bits)
