"""Sparse exact polynomials in one and two variables over a field object.

Storage.  A polynomial is a dict ``_num`` from int exponent keys to nonzero
numerators over one denominator ``_den``.  A ``Poly1`` key is the exponent;
the ``Poly2`` key of x^i y^j is ``(i + j) << DEG_SHIFT | j``, so keys sort by
total degree, then by the power of y, and a product adds them (Monagan &
Pearce's packed exponent vectors in graded order, CASC 2007).  The read API
keys ``Poly2`` terms by (i, j).  A ``Poly2`` total degree stays below
2^DEG_SHIFT: a constructor, product or power that would reach it raises
ValueError before any work (notes/decisions.md).  Over Q the numerators
are ints and ``_den`` is a positive int with gcd(_den, *numerators) = 1,
the canonical form of FLINT's ``fmpq_poly``; over F_p they are int residues
in [1, p) and ``_den`` is 1; over K(z) they are field elements and ``_den``
is 1.  The form is canonical, so equality and hashing compare (_num, _den)
structurally.

Hooks.  Each field object has three, and they are all the kernels here
know of the field: ``lift(c)`` gives an element as (num, den);
``normalize(nums, den)`` drops zero numerators, then divides out the
gcd of den and the content (Q) or reduces mod p (F_p); ``ratio(num, den)``
turns a pair back into an element.  Every operation works on the raw
numerators (ints over Q and F_p) and normalizes once per result.  The read
API is element-valued: ``coeff``, ``items``, ``leading_coeff``,
``constant_term`` and the read-only ``terms`` dict.

Multiply.  ``_raw_mul``, behind ``__mul__`` and ``_mul_add``, takes one of two paths:

* the dict loop (``_mul_dict``) multiplies every pair of terms, adding keys;
* the packed path (``_kronecker_mul``) is Kronecker substitution: each
  operand becomes one Python int with one fixed-width slot per exponent,
  shifted down by its lowest slot, so a single big-int product, which
  CPython does by Karatsuba, does all the coefficient work.  ``Poly2`` slot
  (i, j) is ``(i+j)*W + j``, with ``W`` one more than the sum of the y
  degrees, so homogeneous and anti-diagonal operands fill their slots.

The packed path runs over Q and F_p once the number of term pairs reaches
``_PACK_MIN_PAIRS`` for the field and the product has few enough empty
slots.  Smaller products and coefficients in K(z) stay on the dict loop.
The degree of the zero polynomial is ``NEG_INF`` so that degree
comparisons and products behave uniformly.

Powers.  ``Powers(base)`` is the one power ladder, a dict e -> base**e filled
on lookup: a monomial is raised in closed form, (c m)^e = c^e m^e, one field
power and no product; other bases step, kept.

>>> from tameplane.scalars import QQ
>>> t = Poly1.gen(QQ)
>>> ((t + 1) ** 2).items()
[(0, Fraction(1, 1)), (1, Fraction(2, 1)), (2, Fraction(1, 1))]
"""

from __future__ import annotations

import math

from .scalars import PrimeField, RationalField, power

NEG_INF = float("-inf")

DEG_SHIFT = 64  # the Poly2 key of x^i y^j is (i + j) << DEG_SHIFT | j
_J_MASK = (1 << DEG_SHIFT) - 1
_X, _Y = 1 << DEG_SHIFT, 1 << DEG_SHIFT | 1  # the keys of x and y
_BOUND = "Poly2 exponents must be nonnegative with total degree below 2^%d" % DEG_SHIFT


def monomial_key(i: int, j: int) -> int | None:
    """The Poly2 key of x^i y^j, None past the exponent bound."""
    return (i + j) << DEG_SHIFT | j if 0 <= i and 0 <= j and not (i + j) >> DEG_SHIFT else None


def exponents(k: int) -> tuple:
    """(i, j) for the Poly2 key of x^i y^j."""
    j = k & _J_MASK
    return (k >> DEG_SHIFT) - j, j


# Term pairs (len(a) * len(b)) from which products use the packed multiply,
# per field type.  Fields not listed (K(z)) always use the dict loop.  Timed
# on a 2-core x86-64 host with CPython 3.11.7, both paths with their
# normalize, best of 3, over the 5,552 products of at least 4 term pairs
# that one seed-1 block of each perfbench workload makes (2,894 over Q,
# 2,658 over F_p): the int dict loop was as fast or faster in every bucket
# below 400 pairs, and total multiply time was least from a crossover of
# 256 pairs over Q (0.0286 s, against 0.0453 s at the old 16) and of 400
# over F_p (0.0226 s, against 0.0290 s at the old 49).  On dense Poly2
# squares the packed path first wins at 400 pairs in both fields.
_PACK_MIN_PAIRS = {RationalField: 400, PrimeField: 400}
# The packed product has one slot per exponent from the lowest to the top
# one, so its memory grows with the exponents, which parsed input leaves
# unbounded: past this many slots per term pair (sparse operands, large
# exponents) the dict loop runs.  No perfbench product has more than 2, and
# the value 4 is not timed against the dict loop.
_PACK_MAX_SLOTS_PER_PAIR = 4


def _pack(values: dict, low: int, size: int) -> int:
    """sum(v * 256**(size*(k-low))) for slot k -> int v, each |v| < 256**size."""
    top = (max(values) - low + 1) * size
    pos = bytearray(top)
    neg = None
    for k, v in values.items():
        s = (k - low) * size
        if v >= 0:
            pos[s:s + size] = v.to_bytes(size, "little")
        else:
            if neg is None:
                neg = bytearray(top)
            neg[s:s + size] = (-v).to_bytes(size, "little")
    n = int.from_bytes(pos, "little")
    return n if neg is None else n - int.from_bytes(neg, "little")


def _kronecker_mul(a: dict, b: dict) -> dict | None:
    """The product of two dicts slot -> int by one big-int multiply, as
    slot -> int without zeros; None when the product would have too many
    empty slots."""
    if not a or not b:
        return {}
    la, lb = min(a), min(b)
    top = max(a) - la + max(b) - lb + 1
    if top > _PACK_MAX_SLOTS_PER_PAIR * len(a) * len(b):
        return None
    # a slot of the product sums at most min(len(a), len(b)) products, so
    # this bound plus a sign bit and a bias bit never overflows a slot
    bound = min(len(a), len(b)) * max(map(abs, a.values())) * max(map(abs, b.values()))
    size = (bound.bit_length() + 9) // 8
    half = 1 << (8 * size - 1)
    # adding half to every slot makes every digit nonnegative, so one
    # to_bytes splits the product into its slots without carries
    bias = bytes(size - 1) + b"\x80"
    digits = (_pack(a, la, size) * _pack(b, lb, size)
              + int.from_bytes(bias * top, "little")).to_bytes(top * size, "little")
    out = {}
    for k, s in enumerate(range(0, top * size, size), la + lb):
        chunk = digits[s:s + size]
        if chunk != bias:
            out[k] = int.from_bytes(chunk, "little") - half
    return out


class Powers(dict):
    """base**e for each e looked up, cached: a dict seeded with {0: one, 1: base};
    a base of at most one term is raised by ``**``, which makes no product."""

    def __init__(self, base):
        super().__init__({0: base.one(base.field), 1: base})

    def __missing__(self, e: int):
        base = self[1]
        if len(base._num) <= 1:
            value = self[e] = base ** e
        else:  # every power below the top is kept, so the keys are 0..len-1
            value = self[len(self) - 1]
            for k in range(len(self), e + 1):
                value = self[k] = value * base
        return value


def over_lcm(pairs: dict) -> tuple:
    """(nums, den): the pairs key -> (num, den) over the lcm of their
    denominators, zero numerators dropped.

    The pairs are lifted elements, or all the numerators of a canonical
    polynomial over its denominator; neither shares a factor with its own
    denominator, so none does with the lcm, and the result is canonical."""
    den = math.lcm(*[d for _, d in pairs.values()])
    nums = {k: n if d == den else n * (den // d) for k, (n, d) in pairs.items() if n}
    return nums, den if nums else 1


def taylor_shift(field, nums: dict, a, b, d) -> tuple:
    """(out, m) with p((a t + b) / d) = out / (den m) for p = nums / den,
    where nums maps exponents to numerators, a and b are numerators and d
    is a positive int, 1 outside Q.  An in-place Taylor shift (von zur
    Gathen & Gerhard, "Fast algorithms for Taylor shifts and certain
    difference equations", ISSAC 1997): for p of degree n, numerator e is
    scaled by d^(n-e), shifted by b and scaled by a^e, and m = d^n.  O(n^2)
    ring operations, no intermediate polynomial; out is not normalized, and
    is nums itself when the substitution is the identity."""
    lift, n = field.lift, max(nums, default=0)
    if not b:
        if a == (d if d != 1 else lift(field.one)[0]):  # the identity, as ``scale`` has for c == 1
            return nums, 1
        # no shift: numerator e is v a^e d^(n-e), a^e lifted from a field power (so
        # F_p residues stay reduced), for the terms present only
        out = {e: v * lift(field.ratio(a, 1) ** e)[0] for e, v in nums.items()}
        # d is 1 outside Q, so K(z) numerators never meet an int
        return (out if d == 1 else {e: v * d ** (n - e) for e, v in out.items()}), d ** n
    zero = lift(field.zero)[0]
    c = [nums.get(e, zero) for e in range(n + 1)]
    if d != 1:
        w = d
        for e in range(n - 1, -1, -1):
            c[e] *= w
            w *= d
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            c[j] += b * c[j + 1]
    w = a
    for e in range(1, n + 1):
        c[e] *= w
        w *= a
    return dict(enumerate(c)), d ** n


class _SparsePoly:
    """Arithmetic on numerators over one denominator, keyed by ints."""

    __slots__ = ("field", "_num", "_den")

    _KEY_LIMIT = 0  # the least key past the exponent bound; 0 for none
    # an int key as the read API gives it, and back (None past the bound)
    _read = _key = staticmethod(lambda k: k)

    def __init__(self, field, terms: dict | None = None):
        """The polynomial with coefficients ``terms`` (read-API key -> scalar)."""
        lift, of, key = field.lift, field.of, self._key
        pairs = {key(k): lift(of(c)) for k, c in terms.items()} if terms else {}
        if None in pairs:
            raise ValueError(_BOUND)
        self.field = field
        self._num, self._den = over_lcm(pairs)

    @classmethod
    def _make(cls, field, nums: dict, den: int = 1):
        # internal fast path: caller guarantees the canonical form
        p = object.__new__(cls)
        p.field = field
        p._num = nums
        p._den = den
        return p

    @classmethod
    def _normalized(cls, field, nums: dict, den: int):
        """nums / den brought to the canonical form by the field's hook."""
        p = object.__new__(cls)
        p.field = field
        p._num, p._den = field.normalize(nums, den)
        return p

    @classmethod
    def _lincomb(cls, field, pairs, den: int):
        """The sum of c * p over (raw numerator c, polynomial p), over den.

        The running denominator grows to the lcm of the p's, rescaling the
        sum only when a p brings a new factor; one normalize at the end."""
        out: dict = {}
        lcm = 1
        for c, p in pairs:
            pd = p._den
            if lcm % pd:
                m = pd // math.gcd(lcm, pd)
                out = {k: v * m for k, v in out.items()}
                lcm *= m
            if pd != lcm:
                c = c * (lcm // pd)
            for k, v in p._num.items():
                s = out.get(k)
                out[k] = v * c if s is None else s + v * c
        return cls._normalized(field, out, lcm * den)

    @classmethod
    def _monomial(cls, field, key, c):
        c = field.of(c)
        if not c:
            return cls._make(field, {})
        n, d = field.lift(c)
        return cls._make(field, {key: n}, d)

    @classmethod
    def zero(cls, field):
        return cls._make(field, {})

    @classmethod
    def one(cls, field):
        return cls._monomial(field, 0, field.one)

    @classmethod
    def constant(cls, field, c):
        return cls._monomial(field, 0, c)

    def is_zero(self) -> bool:
        return not self._num

    def is_constant(self) -> bool:
        return self._num.keys() <= {0}

    def __bool__(self):
        return bool(self._num)

    @property
    def terms(self) -> dict:
        """A new dict key -> coefficient, the coefficients field elements."""
        return dict(self.graded_items())

    def keys(self):
        """The int keys of the nonzero terms, in no particular order."""
        return self._num.keys()

    def items(self) -> list:
        """(key, coefficient) pairs sorted by key: (i, j) for a Poly2."""
        return sorted(self.graded_items())

    def graded_items(self) -> list:
        """(key, coefficient) pairs in the order of the int keys: by degree,
        then, for a Poly2, by the power of y."""
        ratio, den, read = self.field.ratio, self._den, self._read
        return [(read(k), ratio(n, den)) for k, n in sorted(self._num.items())]

    def _coeff_at(self, key):
        n = self._num.get(key)
        return self.field.zero if n is None else self.field.ratio(n, self._den)

    def constant_term(self):
        return self._coeff_at(0)

    # -- ring operations -----------------------------------------------

    def _coerce(self, other):
        if type(other) is type(self) and other.field is self.field:
            return other
        if isinstance(other, type(self)):
            return other if other.field == self.field else None
        if isinstance(other, _SparsePoly):
            return None  # a Poly1 never mixes with a Poly2
        try:
            return self.constant(self.field, other)
        except TypeError:
            return None

    @classmethod
    def _sum(cls, field, a: dict, da: int, b: dict, db: int, sub: bool):
        """a/da + b/db, or a/da - b/db when sub, for numerator dicts: added
        over the lcm of the denominators, one normalize; a and b are kept."""
        if da == db:
            out = dict(a)
        else:
            g = math.gcd(da, db)
            ma, mb = db // g, da // g
            out = {k: v * ma for k, v in a.items()}
            b = {k: v * mb for k, v in b.items()}
            da *= ma
        if sub:
            for k, v in b.items():
                s = out.get(k)
                out[k] = -v if s is None else s - v
        else:
            for k, v in b.items():
                s = out.get(k)
                out[k] = v if s is None else s + v
        return cls._normalized(field, out, da)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._sum(self.field, self._num, self._den, o._num, o._den, False) if o._num else self

    __radd__ = __add__

    def __neg__(self):
        return self._normalized(self.field, {k: -v for k, v in self._num.items()}, self._den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._sum(self.field, self._num, self._den, o._num, o._den, True) if o._num else self

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o._sum(o.field, o._num, o._den, self._num, self._den, True) if self._num else o

    def _raw_mul(self, other) -> dict:
        """self * other as unnormalized numerators over self._den * other._den."""
        a, b = self._num, other._num  # the top keys add to the product's
        if self._KEY_LIMIT and a and b and max(a) + max(b) >= self._KEY_LIMIT:
            raise ValueError(_BOUND)
        nums = None
        if len(a) * len(b) >= _PACK_MIN_PAIRS.get(type(self.field), math.inf):
            nums = self._mul_packed(other)
        return self._mul_dict(other) if nums is None else nums

    def _mul_dict(self, other) -> dict:
        out: dict = {}
        b = other._num.items()
        for k1, c1 in self._num.items():
            for k2, c2 in b:
                k = k1 + k2
                s = out.get(k)
                out[k] = c1 * c2 if s is None else s + c1 * c2
        return out

    def _mul_packed(self, other) -> dict | None:
        return _kronecker_mul(self._num, other._num)

    def __mul__(self, other):
        if type(other) is not type(self) or other.field is not self.field:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self._normalized(self.field, self._raw_mul(other), self._den * other._den)

    __rmul__ = __mul__

    def _mul_add(self, b, c, d, sub: bool = False):
        """self * b + c * d, or self * b - c * d when sub, for polynomials
        of one field: two raw products added over the lcm, one normalize."""
        return self._sum(self.field, self._raw_mul(b), self._den * b._den,
                         c._raw_mul(d), c._den * d._den, sub)

    def scale(self, c):
        n, d = self.field.lift(self.field.of(c))
        if not n:
            return self.zero(self.field)
        # polynomials are immutable, so self can be shared.  Over Q and F_p, n == d
        # is c == 1 and n == -d is c == -1 (never over F_p, whose n is a residue);
        # over K(z), d is the int 1 and n is c, compared with one as an element
        if type(n) is int:
            if n == d:
                return self
            if n == -d:
                return -self
        elif n == self.field.one:
            return self
        return self._normalized(self.field, {k: v * n for k, v in self._num.items()},
                                self._den * d)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if self._KEY_LIMIT and self._num and max(self._num) * n >= self._KEY_LIMIT:
            raise ValueError(_BOUND)
        if len(self._num) == 1:  # (c m)^n = c^n m^n: one field power, no product
            (k, c), = self._num.items()
            return self._monomial(self.field, k * n, self.field.ratio(c, self._den) ** n)
        return power(self.one(self.field), self, n)

    # -- comparisons ------------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._den == o._den and self._num == o._num

    def __hash__(self):
        return hash((self.field, self._den, tuple(sorted(self._num.items()))))

    def __repr__(self):
        bits = ["%r*%s" % (c, self._MONOMIAL % k) for k, c in self.items()]
        return "%s(%s)" % (type(self).__name__, " + ".join(bits) or "0")


class Poly1(_SparsePoly):
    """A univariate polynomial with exact coefficients."""

    __slots__ = ()
    _MONOMIAL = "t^%d"  # the repr of a monomial, formatted with its key

    @classmethod
    def gen(cls, field) -> Poly1:
        return cls._monomial(field, 1, field.one)

    @classmethod
    def monomial(cls, field, e: int, c) -> Poly1:
        return cls._monomial(field, e, c)

    # -- basic queries -------------------------------------------------

    def degree(self):
        return max(self._num) if self._num else NEG_INF

    coeff = _SparsePoly._coeff_at  # coeff(e)

    def leading_coeff(self):
        return self._coeff_at(max(self._num)) if self._num else self.field.zero

    # -- ring operations -----------------------------------------------

    def __divmod__(self, other: Poly1):
        """(q, r) with self = q*other + r and deg r < deg other, by
        pseudo-division on numerators (von zur Gathen & Gerhard, *Modern
        Computer Algebra*, ch. 6) in place on one dict, the remainder.

        The divisor is made monic first, m = M/D with top numerator D (1
        unless over Q).  Each step pops the top numerator c of the
        remainder, multiplies the rest by D and subtracts c t^s times M's
        lower terms.  After T steps D^T A = Q M + R for self = A/a, so
        q = Q / (D^(T-1) a lc(other)) and r = R / (D^T a)."""
        if not isinstance(other, Poly1):
            other = Poly1.constant(self.field, other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        field = self.field
        d = other.degree()
        inv = field.one / other.leading_coeff()
        m = other.scale(inv)
        big = m._den  # the top numerator of the monic divisor; 1 unless over Q
        lower = [(e, b) for e, b in m._num.items() if e != d]
        steps = []
        r = dict(self._num)
        while r:
            top = max(r)
            if top < d:
                break
            # one numerator through the hook: mod p, so F_p values stay small
            c = field.normalize({top: r.pop(top)}, 1)[0].get(top)
            if c is None:
                continue
            if big != 1:
                for k in r:
                    r[k] *= big
            shift = top - d
            steps.append((shift, c))
            for e, b in lower:
                k = e + shift
                s = r.get(k)
                r[k] = -(c * b) if s is None else s - c * b
        den = self._den * big ** len(steps)
        if not steps:
            q = Poly1.zero(field)
        else:
            if big != 1:
                steps = [(s, c * big ** t) for t, (s, c) in enumerate(reversed(steps))]
            n, dn = field.lift(inv)
            q = Poly1._normalized(field, {s: c * n for s, c in steps}, den // big * dn)
        return q, Poly1._normalized(field, r, den)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other: Poly1) -> Poly1:
        q, r = divmod(self, other)
        if r._num:
            raise ValueError("inexact polynomial division")
        return q

    def monic(self) -> Poly1:
        if not self._num:
            return self
        return self.scale(self.field.one / self.leading_coeff())

    def gcd(self, other: Poly1) -> Poly1:
        a, b = self, other
        while b._num:
            a, b = b, a % b
        return a.monic()

    # -- substitution and calculus ---------------------------------------

    def substitute(self, value: _SparsePoly) -> _SparsePoly:
        """Plug a Poly1 or a Poly2 in for the variable; the result has its kind."""
        powers = Powers(value)
        return value._lincomb(self.field, ((c, powers[e]) for e, c in sorted(self._num.items())),
                              self._den)

    def shift_down(self, k: int = 1) -> Poly1:
        """Exact division by t**k (raises if any low coefficient survives)."""
        if self._num and min(self._num) < k:
            raise ValueError("polynomial not divisible by t^%d" % k)
        return Poly1._make(self.field, {e - k: c for e, c in self._num.items()}, self._den)

    def shift_up(self, k: int = 1) -> Poly1:
        return Poly1._make(self.field, {e + k: c for e, c in self._num.items()}, self._den)

    def drop_below(self, k: int) -> Poly1:
        """Zero out all coefficients of exponent < k."""
        return Poly1._normalized(self.field, {e: c for e, c in self._num.items() if e >= k},
                                 self._den)


class Poly2(_SparsePoly):
    """A polynomial in two variables, exponent pairs (i, j) -> coefficient."""

    __slots__ = ()
    _KEY_LIMIT = 1 << 2 * DEG_SHIFT  # the key of x^(2^DEG_SHIFT)
    _read, _key = staticmethod(exponents), staticmethod(lambda ij: monomial_key(*ij))
    _MONOMIAL = "x^%d*y^%d"

    @classmethod
    def x(cls, field) -> Poly2:
        return cls._monomial(field, _X, field.one)

    @classmethod
    def y(cls, field) -> Poly2:
        return cls._monomial(field, _Y, field.one)

    # -- queries -----------------------------------------------------------

    def total_degree(self):
        return max(self._num) >> DEG_SHIFT if self._num else NEG_INF

    def coeff(self, i: int, j: int):
        return self._coeff_at(monomial_key(i, j))  # None past the bound: no term

    # -- ring operations -----------------------------------------------

    def _mul_packed(self, other: Poly2) -> dict | None:
        # slot (i + j) * w + j, with w one more than the sum of the y degrees
        a, b = self._num, other._num
        w = max((k & _J_MASK for k in a), default=0) + max((k & _J_MASK for k in b), default=0) + 1
        out = _kronecker_mul({(k >> DEG_SHIFT) * w + (k & _J_MASK): c for k, c in a.items()},
                             {(k >> DEG_SHIFT) * w + (k & _J_MASK): c for k, c in b.items()})
        return None if out is None else {s // w << DEG_SHIFT | s % w: c for s, c in out.items()}

    # -- substitution and calculus ---------------------------------------

    def substitute(self, u: Poly2 | Powers, v: Poly2 | Powers) -> Poly2:
        """self with u plugged in for the first variable and v for the second.

        u and v may be ``Powers`` ladders, which ``PlaneAuto.compose`` shares between components.
        """
        pu = u if isinstance(u, Powers) else Powers(u)
        pv = v if isinstance(v, Powers) else Powers(v)
        nums = self._num
        return Poly2._lincomb(self.field, ((c, pu[i] * pv[j] if i and j else pu[i] if i else pv[j])
                                           for (i, j), c in zip(map(exponents, nums), nums.values())),
                              self._den)

    def partial_x(self) -> Poly2:
        return Poly2._normalized(self.field, {k - _X: c * i for k, c in self._num.items()
                                              if (i := exponents(k)[0])}, self._den)

    def partial_y(self) -> Poly2:
        return Poly2._normalized(self.field, {k - _Y: c * j for k, c in self._num.items()
                                              if (j := k & _J_MASK)}, self._den)

