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
"""

from __future__ import annotations

from dataclasses import dataclass

from .linear import Mat2, ProjPoint
from .poly import Poly1, Poly2


class NotAnAutomorphism(ValueError):
    """The map is not an invertible polynomial transformation."""


class PlaneAuto:
    """An endomorphism of the plane given by the images of x and y."""

    __slots__ = ("p", "q", "_hash")

    def __init__(self, p: Poly2, q: Poly2):
        if p.field != q.field:
            raise ValueError("components over different fields")
        self.p = p
        self.q = q
        self._hash = None

    @property
    def field(self):
        return self.p.field

    @classmethod
    def identity(cls, field) -> PlaneAuto:
        return cls(Poly2.x(field), Poly2.y(field))

    def compose(self, other: PlaneAuto) -> PlaneAuto:
        """self o other (other acts first)."""
        return PlaneAuto(
            self.p.substitute(other.p, other.q),
            self.q.substitute(other.p, other.q),
        )

    def evaluate(self, point):
        a, b = point
        return (self.p.evaluate(a, b), self.q.evaluate(a, b))

    def max_degree(self):
        return max(self.p.total_degree(), self.q.total_degree())

    def jacobian(self) -> Poly2:
        return self.p.partial_x() * self.q.partial_y() - self.p.partial_y() * self.q.partial_x()

    def linear_part(self) -> Mat2:
        f = self.field
        return Mat2(f, self.p.coeff(1, 0), self.p.coeff(0, 1), self.q.coeff(1, 0), self.q.coeff(0, 1))

    def translation_part(self):
        return (self.p.constant_term(), self.q.constant_term())

    def fixes_origin(self) -> bool:
        return not self.p.constant_term() and not self.q.constant_term()

    def is_identity(self) -> bool:
        f = self.field
        return self.p == Poly2.x(f) and self.q == Poly2.y(f)

    def __eq__(self, other):
        return isinstance(other, PlaneAuto) and self.p == other.p and self.q == other.q

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.p, self.q))
        return self._hash

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


class AffineAuto:
    """v -> m v + shift with m an invertible 2x2 matrix."""

    __slots__ = ("m", "shift")

    def __init__(self, m: Mat2, shift=None):
        self.m = m
        if shift is None:
            shift = (m.field.zero, m.field.zero)
        self.shift = (m.field.of(shift[0]), m.field.of(shift[1]))

    @property
    def field(self):
        return self.m.field

    @classmethod
    def identity(cls, field) -> AffineAuto:
        return cls(Mat2.identity(field))

    def is_invertible(self) -> bool:
        return bool(self.m.det())

    def apply(self, p: Poly2, q: Poly2) -> tuple[Poly2, Poly2]:
        """Components of self o (p, q)."""
        m, (v0, v1) = self.m, self.shift
        return p.scale(m.e00) + q.scale(m.e01) + v0, p.scale(m.e10) + q.scale(m.e11) + v1

    def to_plane(self) -> PlaneAuto:
        return PlaneAuto(*self.apply(Poly2.x(self.field), Poly2.y(self.field)))

    def compose(self, other: AffineAuto) -> AffineAuto:
        mv = self.m.act(other.shift)
        return AffineAuto(
            self.m * other.m,
            (mv[0] + self.shift[0], mv[1] + self.shift[1]),
        )

    def inverse(self) -> AffineAuto:
        mi = self.m.inverse()
        mv = mi.act(self.shift)
        return AffineAuto(mi, (-mv[0], -mv[1]))

    def is_lower_triangular(self) -> bool:
        return self.m.is_lower_triangular()

    def __eq__(self, other):
        return isinstance(other, AffineAuto) and self.m == other.m and self.shift == other.shift

    def __hash__(self):
        return hash((self.m, self.shift))

    def __repr__(self):
        return "AffineAuto(%r, shift=%r)" % (self.m, self.shift)


class ElemAuto:
    """(x, y) -> (z1 x + t0, z2 y + f(x)) with z1, z2 nonzero scalars."""

    __slots__ = ("field", "z1", "t0", "z2", "f")

    def __init__(self, field, z1, t0, z2, f: Poly1):
        self.field = field
        self.z1 = field.of(z1)
        self.t0 = field.of(t0)
        self.z2 = field.of(z2)
        if f.field != field:
            raise ValueError("shear polynomial over the wrong field")
        self.f = f

    @classmethod
    def identity(cls, field) -> ElemAuto:
        return cls(field, field.one, field.zero, field.one, Poly1.zero(field))

    @classmethod
    def shear(cls, field, f: Poly1) -> ElemAuto:
        """(x, y + f(x))."""
        return cls(field, field.one, field.zero, field.one, f)

    def is_invertible(self) -> bool:
        return bool(self.z1) and bool(self.z2)

    def apply(self, p: Poly2, q: Poly2) -> tuple[Poly2, Poly2]:
        """Components of self o (p, q): (z1 p + t0, z2 q + f(p))."""
        return p.scale(self.z1) + self.t0, q.scale(self.z2) + self.f.substitute(p)

    def to_plane(self) -> PlaneAuto:
        return PlaneAuto(*self.apply(Poly2.x(self.field), Poly2.y(self.field)))

    def compose(self, other: ElemAuto) -> ElemAuto:
        # x-part: z1 (z1' x + t0') + t0 ; y-part: z2 (z2' y + f'(x)) + f(z1' x + t0')
        arg = Poly1(self.field, {1: other.z1, 0: other.t0})
        return ElemAuto(
            self.field,
            self.z1 * other.z1,
            self.z1 * other.t0 + self.t0,
            self.z2 * other.z2,
            other.f.scale(self.z2) + self.f.substitute(arg),
        )

    def inverse(self) -> ElemAuto:
        if not self.is_invertible():
            raise NotAnAutomorphism("elementary map with zero scaling")
        iz1 = self.field.one / self.z1
        iz2 = self.field.one / self.z2
        arg = Poly1(self.field, {1: iz1, 0: -self.t0 * iz1})
        return ElemAuto(self.field, iz1, -self.t0 * iz1, iz2, -self.f.substitute(arg).scale(iz2))

    def is_lower_triangular(self) -> bool:
        """True when the map is affine, i.e. lies in the common subgroup."""
        return self.f.degree() <= 1

    def to_affine(self) -> AffineAuto:
        if not self.is_lower_triangular():
            raise ValueError("nonlinear shear is not affine")
        f = self.field
        m = Mat2(f, self.z1, f.zero, self.f.coeff(1), self.z2)
        return AffineAuto(m, (self.t0, self.f.coeff(0)))

    @classmethod
    def from_affine(cls, aff: AffineAuto) -> ElemAuto:
        if not aff.is_lower_triangular():
            raise ValueError("affine map with upper triangular part is not elementary")
        f = aff.field
        poly = Poly1(f, {0: aff.shift[1], 1: aff.m.e10})
        return cls(f, aff.m.e00, aff.shift[0], aff.m.e11, poly)

    def is_identity(self) -> bool:
        f = self.field
        return self.z1 == f.one and self.z2 == f.one and not self.t0 and self.f.is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, ElemAuto)
            and self.field == other.field
            and self.z1 == other.z1
            and self.t0 == other.t0
            and self.z2 == other.z2
            and self.f == other.f
        )

    def __hash__(self):
        return hash((self.field, self.z1, self.t0, self.z2, self.f))

    def __repr__(self):
        return "ElemAuto(z1=%r, t0=%r, z2=%r, f=%r)" % (self.z1, self.t0, self.z2, self.f)


# -- recognizers ------------------------------------------------------------


def as_affine(auto: PlaneAuto) -> AffineAuto | None:
    """The affine form of the map, or None if it is not affine."""
    if auto.max_degree() > 1:
        return None
    m = auto.linear_part()
    if not m.det():
        return None
    return AffineAuto(m, auto.translation_part())


def as_elementary(auto: PlaneAuto) -> ElemAuto | None:
    """The triangular form (z1 x + t0, z2 y + f(x)), or None."""
    f = auto.field
    p, q = auto.p, auto.q
    z1 = p.coeff(1, 0)
    if not z1:
        return None
    if p != Poly2.x(f).scale(z1) + Poly2.constant(f, p.constant_term()):
        return None
    z2 = q.coeff(0, 1)
    if not z2:
        return None
    shear_terms = {}
    for (i, j), c in q.items():
        if j == 0:
            shear_terms[i] = c
        elif (i, j) != (0, 1):
            return None
    return ElemAuto(f, z1, p.constant_term(), z2, Poly1(f, shear_terms))


@dataclass
class AutoProfile:
    """Classification flags for a polynomial plane map."""

    jacobian: Poly2
    invertible_jacobian: bool
    special: bool
    fixes_origin: bool
    identity_differential: bool
    affine: bool
    elementary: bool
    triangular: bool
    degree: object

    def tangent_to_identity(self) -> bool:
        return self.fixes_origin and self.identity_differential


def classify(auto: PlaneAuto) -> AutoProfile:
    f = auto.field
    jac = auto.jacobian()
    inv = jac.is_constant() and bool(jac.constant_term())
    aff = as_affine(auto)
    elem = as_elementary(auto)
    lp = auto.linear_part()
    return AutoProfile(
        jacobian=jac,
        invertible_jacobian=inv,
        special=jac == Poly2.one(f),
        fixes_origin=auto.fixes_origin(),
        identity_differential=lp.is_identity(),
        affine=aff is not None,
        elementary=elem is not None and elem.is_invertible(),
        triangular=aff is not None and elem is not None and aff.is_lower_triangular(),
        degree=auto.max_degree(),
    )


# -- distinguished constructors ---------------------------------------------


def line_shear(delta: ProjPoint, f: Poly1) -> PlaneAuto:
    """The shear v -> v + f(l . v) u along the direction u = (a, b).

    Here l = (b, -a) spans the linear forms vanishing on the line.  For f
    with zero constant and linear coefficients these maps fix the origin
    with identity differential, and distinct directions generate freely.
    """
    field = delta.field
    return PlaneAuto(*apply_line_shear(delta, f, Poly2.x(field), Poly2.y(field)))


def apply_line_shear(delta: ProjPoint, f: Poly1, p: Poly2, q: Poly2) -> tuple[Poly2, Poly2]:
    """Components of line_shear(delta, f) o (p, q): with s = b p - a q,
    the pair (p + a f(s), q + b f(s))."""
    if f.is_zero() or f.coeff(0) or f.coeff(1):
        raise ValueError("shear profile must be nonzero with valuation >= 2")
    a, b = delta.vector()
    fs = f.substitute(p.scale(b) - q.scale(a))
    return p + fs.scale(a), q + fs.scale(b)


def scaled_shear(field, n: int, z, a) -> PlaneAuto:
    """(z x, z^{-1} y + a x^{n-1}), the weight-n twisted family."""
    z = field.of(z)
    a = field.of(a)
    x, y = Poly2.x(field), Poly2.y(field)
    return PlaneAuto(x.scale(z), y.scale(field.one / z) + Poly2.monomial(field, n - 1, 0, a))


def swap_map(field) -> PlaneAuto:
    return PlaneAuto(Poly2.y(field), Poly2.x(field))


def scaling(field, s0, s1) -> PlaneAuto:
    return PlaneAuto(Poly2.x(field).scale(field.of(s0)), Poly2.y(field).scale(field.of(s1)))


def shear_in_y(field, f: Poly1) -> PlaneAuto:
    """(x, y + f(x))."""
    return ElemAuto.shear(field, f).to_plane()
