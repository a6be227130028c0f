"""Matrices of polynomials and points of the projective line.

``PolyMat2`` (entries ``Poly1`` in K[t]) is the package's one 2x2 matrix
type.  Scalar 2x2 matrices live only in the numerator block of
``AffineAuto`` and cross the API as rows ((a, b), (c, d)) of field elements;
``PolyMat2.coeff(k)`` reads the t^k coefficient of a matrix the same way,
as the tuple (a, b, c, d).  The product and ``det`` compute each entry as
one sum of two raw Poly1 products with a single normalize (``_mul_add``).

The square-zero endomorphism e_delta = v w^T attached to a projective point
bridges plane maps that shear along a line and matrices over K[t]; its
factors v, w are fixed once here (``nil_factors``) and shared by every user.
"""

from __future__ import annotations

from .poly import Poly1


class ProjPoint:
    """A point of the projective line in canonical coordinates.

    The representative is (a, 1) for finite points and (1, 0) for the point
    at infinity, so structural equality is projective equality.

    >>> from tameplane.scalars import QQ
    >>> ProjPoint.of(QQ, 3, 6) == ProjPoint.of(QQ, 1, 2)
    True
    """

    __slots__ = ("field", "a", "b")

    def __init__(self, field, a, b):
        self.field = field
        self.a = a
        self.b = b

    @classmethod
    def of(cls, field, a, b) -> ProjPoint:
        a = field.of(a)
        b = field.of(b)
        if b:
            return cls(field, a / b, field.one)
        if a:
            return cls(field, field.one, field.zero)
        raise ValueError("(0, 0) spans no direction")

    @classmethod
    def infinity(cls, field) -> ProjPoint:
        return cls(field, field.one, field.zero)

    @property
    def at_infinity(self) -> bool:
        return not self.b

    def vector(self):
        return (self.a, self.b)

    def __eq__(self, other):
        return (
            isinstance(other, ProjPoint)
            and self.field == other.field
            and self.a == other.a
            and self.b == other.b
        )

    def __hash__(self):
        return hash((self.field, self.a, self.b))

    def __repr__(self):
        return "ProjPoint(%r : %r)" % (self.a, self.b)


def nil_factors(point: ProjPoint):
    """The column v spanning the line and the row w killing it, with
    e_delta = v w^T, as pairs of scalars.

    Finite points (lam : 1) get v = (lam, 1), w = (1, -lam).  The point at
    infinity gets v = (1, 0), w = (0, 1), the sign chosen so that upper
    triangular shears carry the + sign.  Any nonzero multiple of w works;
    all modules share this one.
    """
    f = point.field
    if point.at_infinity:
        return (f.one, f.zero), (f.zero, f.one)
    return (point.a, f.one), (f.one, -point.a)


class PolyMat2:
    """A 2x2 matrix with Poly1 entries (the variable is called t), rows
    (e00 e01; e10 e11)."""

    __slots__ = ("field", "e00", "e01", "e10", "e11")

    def __init__(self, field, e00, e01, e10, e11):
        self.field = field
        self.e00 = e00
        self.e01 = e01
        self.e10 = e10
        self.e11 = e11

    @classmethod
    def identity(cls, field) -> PolyMat2:
        one = Poly1.one(field)
        zero = Poly1.zero(field)
        return cls(field, one, zero, zero, one)

    def entries(self):
        return (self.e00, self.e01, self.e10, self.e11)

    def __mul__(self, other):
        if not isinstance(other, PolyMat2) or other.field != self.field:
            return NotImplemented
        a, b, c, d = self.entries()
        e, f, g, h = other.entries()
        return PolyMat2(self.field, a._mul_add(e, b, g), a._mul_add(f, b, h),
                        c._mul_add(e, d, g), c._mul_add(f, d, h))

    def det(self):
        return self.e00._mul_add(self.e11, self.e01, self.e10, sub=True)

    def degree(self):
        return max(e.degree() for e in self.entries())

    def coeff(self, k: int) -> tuple:
        """The t^k coefficient matrix as its four scalars (a, b, c, d)."""
        return tuple(e.coeff(k) for e in self.entries())

    def is_identity(self) -> bool:
        return self == PolyMat2.identity(self.field)

    def __eq__(self, other):
        return (
            isinstance(other, PolyMat2)
            and self.field == other.field
            and self.entries() == other.entries()
        )

    def __hash__(self):
        return hash((self.field, *self.entries()))

    def __repr__(self):
        return "PolyMat2((%r, %r), (%r, %r))" % self.entries()
