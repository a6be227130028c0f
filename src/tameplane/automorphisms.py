"""Polynomial maps of the affine plane and their distinguished subfamilies.

A ``PlaneAuto`` stores the two image polynomials.  Composition follows the
convention (phi o psi)(v) = phi(psi(v)): the right factor acts first, so the
composite substitutes psi's components into phi's.

``AffineAuto`` and ``ElemAuto`` are closed-form carriers for the two
generating subgroups (invertible affine maps, and triangular maps fixing the
first coordinate up to an affine change).  Their intersection, maps with
lower triangular linear part, plays the role of the common subgroup in the
amalgam machinery of :mod:`tameplane.amalgam`.

Each atom acts on a pair of components through ``apply``: ``atom.apply(p, q)``
is atom o (p, q), computed from the atom's closed form instead of by generic
substitution.  ``to_plane`` is that action on (x, y), and every product of
atoms is multiplied out by applying them from the left, last atom first.

Storage.  Each atom is numerators over one denominator (FLINT's ``fmpq_mat``
form), kept canonical by the same three field hooks as polynomial
coefficients, so compose, the splits and the triangularity test run on ints
over Q and F_p.  Both atoms key their numerators alike: z1, t0 and z2 by -1,
-2 and -3, and f's coefficients by their exponents.  An ``AffineAuto``
(a x + b y + u, c x + d y + v) reads a, u and d as z1, t0 and z2, c x + v
as f, and keys b by -4 (``_KEYS``).  So a member of the triangular subgroup
B has the same numerators in both atoms, and ``to_affine`` and
``from_affine`` share them.  The affine block is the package's only scalar
2x2 matrix: ``m`` reads it back as rows ((a, b), (c, d)) of field elements,
and ``shift`` as the pair (u, v).  ``ElemAuto.compose`` is one Taylor shift
of f's numerators, and ``ElemAuto._unshift`` the one that undoes z1 and t0.
Each atom owns its coset modulo B: ``split`` writes it as rep o b with b in
B, and ``is_rep`` tests for a representative (conventions in ``amalgam``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .poly import Poly1, Poly2, Powers, exponents, monomial_key, over_lcm, taylor_shift


class NotAnAutomorphism(ValueError):
    """The map is not an invertible polynomial transformation."""


class PlaneAuto:
    """An endomorphism of the plane given by the images of x and y."""

    __slots__ = ("p", "q")

    def __init__(self, p: Poly2, q: Poly2):
        if p.field != q.field:
            raise ValueError("components over different fields")
        self.p = p
        self.q = q

    @property
    def field(self):
        return self.p.field

    def compose(self, other: PlaneAuto) -> PlaneAuto:
        """self o other (other acts first); one power ladder per component of other."""
        pu, pv = Powers(other.p), Powers(other.q)
        return PlaneAuto(self.p.substitute(pu, pv), self.q.substitute(pu, pv))

    def max_degree(self):
        return max(self.p.total_degree(), self.q.total_degree())

    def jacobian(self) -> Poly2:
        return self.p.partial_x() * self.q.partial_y() - self.p.partial_y() * self.q.partial_x()

    def linear_part(self) -> tuple:
        """The rows of the differential at the origin."""
        p, q = self.p, self.q
        return (p.coeff(1, 0), p.coeff(0, 1)), (q.coeff(1, 0), q.coeff(0, 1))

    def fixes_origin(self) -> bool:
        return not self.p.constant_term() and not self.q.constant_term()

    def is_identity(self) -> bool:
        f = self.field
        return self.p == Poly2.x(f) and self.q == Poly2.y(f)

    def __eq__(self, other):
        return isinstance(other, PlaneAuto) and self.p == other.p and self.q == other.q

    def __hash__(self):
        return hash((self.p, self.q))

    def __repr__(self):
        return "PlaneAuto(%r, %r)" % (self.p, self.q)


def compose_all(*autos: PlaneAuto) -> PlaneAuto:
    """Compose left to right: compose_all(a, b, c) = a o b o c."""
    if not autos:
        raise ValueError("nothing to compose")
    out = autos[0]
    for nxt in autos[1:]:
        out = out.compose(nxt)
    return out


# The keys of a, b, c, d, u and v in (a x + b y + u, c x + d y + v): ElemAuto's
# z1, -4, f1, z2, t0 and f0 (module docstring).
_KEYS = (-1, -4, 1, -3, -2, 0)
_X, _Y = monomial_key(1, 0), monomial_key(0, 1)  # the Poly2 keys of x and y


class _Atom:
    """The storage both atoms share: numerators keyed as in the module
    docstring over one denominator, compared structurally.  Atoms are
    immutable: no code changes ``_num`` after ``_make``, so two atoms may
    share one dict."""

    __slots__ = ("field", "_num", "_den")

    @classmethod
    def _make(cls, field, nums: dict, den: int):
        # internal: caller guarantees the canonical form
        out = object.__new__(cls)
        out.field, out._num, out._den = field, nums, den
        return out

    def _entry(self, k):
        n = self._num.get(k)
        return self.field.zero if n is None else self.field.ratio(n, self._den)

    def _rows(self, p: Poly2, q: Poly2) -> tuple:
        # (z1 p + b q + t0, z2 q + f(p)), f's powers of p ascending, so the ladder steps
        powers = Powers(p)
        return ((-1, p), (-4, q), (-2, powers[0])), [(-3, q)] + [(e, powers[e]) for e in sorted(self._num) if e >= 0]

    def apply(self, p: Poly2, q: Poly2) -> tuple[Poly2, Poly2]:
        """Components of self o (p, q): each one ``Poly2._lincomb`` of the
        numerators, row by row of the pairs (key, polynomial) of ``_rows``."""
        nums = self._num
        return tuple(Poly2._lincomb(self.field, [(nums[k], g) for k, g in row if k in nums], self._den)
                     for row in self._rows(p, q))

    def to_plane(self) -> PlaneAuto:
        return PlaneAuto(*self.apply(Poly2.x(self.field), Poly2.y(self.field)))

    def is_lower_triangular(self) -> bool:
        """In the common subgroup B: no b (key -4) and deg f <= 1 (no key above 1)."""
        return -4 not in self._num and max(self._num, default=0) <= 1

    def __eq__(self, other):
        return (type(other) is type(self) and self.field == other.field
                and self._den == other._den and self._num == other._num)

    def __hash__(self):
        return hash((self.field, self._den, frozenset(self._num.items())))


class AffineAuto(_Atom):
    """v -> m v + shift with m an invertible 2x2 matrix, given as rows
    ((a, b), (c, d)) and stored as numerators keyed by ``_KEYS`` (module
    docstring).  A matrix or shift of another shape raises ValueError."""

    __slots__ = ()

    def __init__(self, field, m, shift=(0, 0)):
        (a, b), (c, d) = m
        u, v = shift
        self.field = field
        # zeros are skipped before coercion; over_lcm drops any that coerce to zero
        self._num, self._den = over_lcm({k: field.lift(field.of(e))
                                         for k, e in zip(_KEYS, (a, b, c, d, u, v)) if e})

    @classmethod
    def identity(cls, field) -> AffineAuto:
        return cls(field, ((field.one, field.zero), (field.zero, field.one)))

    def _block(self) -> list:
        # the numerators of a, b, c, d, u and v, absent ones as the field's zero numerator
        get, zero = self._num.get, self.field.lift(self.field.zero)[0]
        return [get(k, zero) for k in _KEYS]

    @property
    def m(self) -> tuple:
        a, b, c, d = map(self._entry, _KEYS[:4])
        return (a, b), (c, d)

    @property
    def shift(self) -> tuple:
        return tuple(map(self._entry, _KEYS[4:]))

    def _det(self) -> dict:
        """The numerator of det m over den^2, through the hook: {} when zero."""
        a, b, c, d, _, _ = self._block()
        return self.field.normalize({0: a * d - b * c}, 1)[0]

    def is_invertible(self) -> bool:
        return bool(self._det())

    def compose(self, other: AffineAuto) -> AffineAuto:
        """(m | s) (m' | s') = (m m' | m s' + s den'), over den den'."""
        a, b, c, d, u, v = self._block()
        a2, b2, c2, d2, u2, v2 = other._block()
        e = other._den
        if e != 1:  # never outside Q, so K(z) numerators meet no int
            u, v = u * e, v * e
        return AffineAuto._make(self.field, *self.field.normalize(dict(zip(_KEYS, (
            a * a2 + b * c2, a * b2 + b * d2, c * a2 + d * c2, c * b2 + d * d2,
            a * u2 + b * v2 + u, c * u2 + d * v2 + v))), self._den * e))

    def inverse(self) -> AffineAuto:
        """m^-1 = den adj(N) / det N for m = N / den, and the shift
        -m^-1 s = -adj(N) S / det N for s = S / den; 1 / det N = n / dn."""
        det = self._det()
        if not det:
            raise ZeroDivisionError("singular matrix")
        field, den = self.field, self._den
        n, dn = field.lift(field.one / field.ratio(det[0], 1))
        a, b, c, d, u, v = self._block()
        nd = n if den == 1 else n * den
        return AffineAuto._make(field, *field.normalize(dict(zip(_KEYS, (
            d * nd, -(b * nd), -(c * nd), a * nd, (b * v - d * u) * n, (c * u - a * v) * n))), dn))

    def split(self) -> tuple[AffineAuto, AffineAuto]:
        """self = rep o r with rep = ((0, 1), (1, lam)), lam = d / b for m = ((a, b), (c, d)),
        and r = ((-lam, 1), (1, 0)) o self triangular, on the numerators over den * ld."""
        f = self.field
        if self.is_lower_triangular():
            raise ValueError("affine map already triangular")
        a, b, c, d, u, v = self._block()
        ln, ld = f.lift(f.ratio(d, 1) / f.ratio(b, 1))
        nums = {-1: c, 1: a, -3: b, -2: v, 0: u}  # r = ((c - lam a, 0), (a, b)), shift (v - lam u, u)
        if ld != 1:  # only over Q, so K(z) numerators meet no int
            nums = {k: n * ld for k, n in nums.items()}
        nums[-1] -= ln * a
        nums[-2] -= ln * u
        rep = AffineAuto._make(f, *over_lcm({-4: f.lift(f.one), 1: f.lift(f.one), -3: (ln, ld)}))
        return rep, AffineAuto._make(f, *f.normalize(nums, self._den * ld))

    def is_rep(self) -> bool:
        """b and c (keys -4 and 1) are one, and only lam (d, key -3) is beside them."""
        nums, one = self._num, self.field.lift(self.field.one)[0] if self._den == 1 else self._den
        return nums.keys() <= {-4, 1, -3} and nums.get(-4) == nums.get(1) == one

    def __repr__(self):
        return "AffineAuto(%r, %r, shift=%r)" % (self.field, self.m, self.shift)


class ElemAuto(_Atom):
    """(x, y) -> (z1 x + t0, z2 y + f(x)) with z1, z2 nonzero scalars, stored
    as numerators over one denominator (module docstring); ``z1``, ``t0``,
    ``z2`` and ``f`` read them back as field elements and a ``Poly1``."""

    __slots__ = ()

    def __init__(self, field, z1, t0, z2, f: Poly1):
        lift, of = field.lift, field.of
        pairs = {k: lift(of(c)) for k, c in ((-1, z1), (-2, t0), (-3, z2))}
        if f.field != field:
            raise ValueError("shear polynomial over the wrong field")
        pairs.update((e, (n, f._den)) for e, n in f._num.items())
        self.field = field
        self._num, self._den = over_lcm(pairs)

    @classmethod
    def identity(cls, field) -> ElemAuto:
        one = field.lift(field.one)[0]
        return cls._make(field, {-1: one, -3: one}, 1)

    @classmethod
    def shear(cls, field, f: Poly1) -> ElemAuto:
        """(x, y + f(x))."""
        return cls(field, field.one, field.zero, field.one, f)

    z1 = property(lambda self: self._entry(-1))
    t0 = property(lambda self: self._entry(-2))
    z2 = property(lambda self: self._entry(-3))

    @property
    def f(self) -> Poly1:
        return Poly1._normalized(self.field, {e: n for e, n in self._num.items() if e >= 0}, self._den)

    def is_invertible(self) -> bool:
        return -1 in self._num and -3 in self._num

    def compose(self, other: ElemAuto) -> ElemAuto:
        """(z1 x + t0, z2 y + f) o (z1' x + t0', z2' y + f') is
        (z1 z1' x + z1 t0' + t0, z2 z2' y + z2 f' + f(z1' x + t0')).  With
        numerators over D and E, f(z1' x + t0') is one Taylor shift of f's
        numerators, over D m, and the rest is over D E; all go over D E m."""
        field, s, o, e = self.field, self._num, other._num, other._den
        zero = field.lift(field.zero)[0]
        z1, t0, z2 = s.get(-1, zero), s.get(-2, zero), s.get(-3, zero)
        a, b = o.get(-1, zero), o.get(-2, zero)
        out, m = taylor_shift(field, {k: n for k, n in s.items() if k >= 0}, a, b, e)
        if e != 1:  # never outside Q, so K(z) numerators meet no int
            out, t0 = {k: n * e for k, n in out.items()}, t0 * e
        if m != 1:
            z1, t0, z2 = z1 * m, t0 * m, z2 * m
        for k, n in o.items():
            if k >= 0:
                w = out.get(k)
                out[k] = z2 * n if w is None else w + z2 * n
        out[-1], out[-2], out[-3] = z1 * a, z1 * b + t0, z2 * o.get(-3, zero)
        return ElemAuto._make(field, *field.normalize(out, self._den * e * m))

    def _unshift(self) -> tuple:
        """(h, m, a, b, e) with x' = (x - t0) / z1 = (a x + b) / e and
        f(x') = h / (D m), one Taylor shift of f's numerators over D; h is a
        new dict, not normalized.  z1 must be nonzero."""
        field, nums, den = self.field, self._num, self._den
        a, e = field.lift(field.one / field.ratio(nums[-1], 1))  # 1 / Z for z1 = Z / D
        b = -(nums[-2] * a) if -2 in nums else field.lift(field.zero)[0]
        if den != 1:  # never outside Q, so K(z) numerators meet no int
            a *= den
        return (*taylor_shift(field, {k: n for k, n in nums.items() if k >= 0}, a, b, e), a, b, e)

    def inverse(self) -> ElemAuto:
        """(x', (y - f(x')) / z2) with x' = (x - t0) / z1.  ``_unshift`` gives
        x' = (a x + b) / e and f(x') = h / (D m); for z2 = W / D and
        1 / W = c / g, the second component is (D y - h / m) c / g."""
        if not self.is_invertible():
            raise NotAnAutomorphism("elementary map with zero scaling")
        field, den = self.field, self._den
        h, m, a, b, e = self._unshift()
        c, g = field.lift(field.one / field.ratio(self._num[-3], 1))
        if e != 1:  # never outside Q, so K(z) numerators meet no int
            c *= e
        nc = -c
        out = {k: v * nc for k, v in h.items()}
        if g * m != 1:
            a, b = a * g * m, b * g * m
        out[-1], out[-2], out[-3] = a, b, c if den * m == 1 else c * den * m
        return ElemAuto._make(field, *field.normalize(out, e * g * m))

    def split(self) -> tuple[ElemAuto, ElemAuto]:
        """self = rep o b with rep = (x, y + h~(x)): for f(x) = h(z1 x + t0) and
        h = h0 + h1 u + h~(u), b = (z1 x + t0, z2 y + h1 z1 x + h0 + h1 t0).
        h is f((u - t0) / z1), H over D m from ``_unshift``, with z1 = Z / D
        and t0 = T / D; b is over D^2 m."""
        f, nums, den = self.field, self._num, self._den
        if self.is_lower_triangular():
            raise ValueError("shear already triangular")
        zero, one = f.lift(f.zero)[0], f.lift(f.one)[0]
        z, t = nums[-1], nums.get(-2, zero)
        h, m, *_ = self._unshift()
        hd = den * m  # 1 outside Q, so K(z) numerators meet no int
        h0, h1 = h.pop(0, zero), h.pop(1, zero)
        h[-1] = h[-3] = one if hd == 1 else hd
        b = {k: n if hd == 1 else n * hd for k, n in nums.items() if k < 0}
        b[1], b[0] = h1 * z, h1 * t + (h0 if den == 1 else h0 * den)
        return ElemAuto._make(f, *f.normalize(h, hd)), ElemAuto._make(f, *f.normalize(b, den * hd))

    def is_rep(self) -> bool:
        """z1 and z2 are one, and the other keys are f's exponents from 2 up, at least one."""
        nums, one = self._num, self.field.lift(self.field.one)[0] if self._den == 1 else self._den
        return len(nums) > 2 and nums.keys().isdisjoint((-2, 0, 1)) and nums.get(-1) == nums.get(-3) == one

    def to_affine(self) -> AffineAuto:
        if not self.is_lower_triangular():
            raise ValueError("nonlinear shear is not affine")
        return AffineAuto._make(self.field, self._num, self._den)

    @classmethod
    def from_affine(cls, aff: AffineAuto) -> ElemAuto:
        if not aff.is_lower_triangular():
            raise ValueError("affine map with upper triangular part is not elementary")
        return cls._make(aff.field, aff._num, aff._den)

    def is_identity(self) -> bool:
        one = self.field.lift(self.field.one)[0]
        return self._den == 1 and self._num == {-1: one, -3: one}

    def __repr__(self):
        return "ElemAuto(z1=%r, t0=%r, z2=%r, f=%r)" % (self.z1, self.t0, self.z2, self.f)


# -- recognizers ------------------------------------------------------------


def as_affine(auto: PlaneAuto) -> AffineAuto | None:
    """The affine form of the map, or None if it is not affine."""
    if auto.max_degree() > 1:
        return None
    pairs = {k: (g._num[key], g._den) for g, row in ((auto.p, (-1, -4, -2)), (auto.q, (1, -3, 0)))
             for k, key in zip(row, (_X, _Y, 0)) if key in g._num}
    aff = AffineAuto._make(auto.field, *over_lcm(pairs))
    return aff if aff.is_invertible() else None


def as_elementary(auto: PlaneAuto) -> ElemAuto | None:
    """The triangular form (z1 x + t0, z2 y + f(x)), or None."""
    f = auto.field
    p, q = auto.p, auto.q
    z1, z2 = p.coeff(1, 0), q.coeff(0, 1)
    # p is z1 x + t0, and q is z2 y plus the terms without y, which make f
    shear_terms = {i: n for (i, j), n in zip(map(exponents, q._num), q._num.values()) if not j}
    if not (z1 and z2 and p.keys() <= {_X, 0} and len(shear_terms) == len(q._num) - 1):
        return None
    return ElemAuto(f, z1, p.constant_term(), z2, Poly1._normalized(f, shear_terms, q._den))


@dataclass
class AutoProfile:
    """Classification flags of a plane map, in the order ``tameplane classify`` prints them."""

    degree: object
    affine: bool
    elementary: bool
    triangular: bool
    fixes_origin: bool
    identity_differential: bool
    special: bool
    invertible_jacobian: bool
    jacobian: Poly2


def classify(auto: PlaneAuto) -> AutoProfile:
    f = auto.field
    jac = auto.jacobian()
    inv = jac.is_constant() and bool(jac.constant_term())
    aff = as_affine(auto)
    elem = as_elementary(auto)
    return AutoProfile(
        jacobian=jac,
        invertible_jacobian=inv,
        special=jac == Poly2.one(f),
        fixes_origin=auto.fixes_origin(),
        identity_differential=auto.linear_part() == ((f.one, f.zero), (f.zero, f.one)),
        affine=aff is not None,
        elementary=elem is not None,
        triangular=aff is not None and aff.is_lower_triangular(),
        degree=auto.max_degree(),
    )

