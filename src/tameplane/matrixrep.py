"""Matrix realization of plane maps tangent to the identity.

Maps fixing the origin with identity differential decompose into shears
along projective directions; sending the shear with parameter f along delta
to the polynomial matrix id + (f(t)/t) e_delta (with e_delta the canonical
square-zero endomorphism onto delta) extends to an isomorphism onto the
group of determinant-one polynomial matrices with value id at t = 0.  This
module computes that correspondence in both directions, factors such
matrices into one-line shear factors, and runs the ping-pong degree growth
argument underlying faithfulness.

With e_delta = v w^T (``nil_factors``), a factor id + h e_delta changes a
vector u by the rank-one update h (w . u) v, so peeling and recomposing
apply factors column by column and ping-pong to one vector, one Poly1
product per vector, never as a full 2x2 polynomial-matrix product.

Peeling is Euclid's algorithm in K[t], one reduced letter per step: by
Nagao's theorem SL2(K[t]) = SL2(K) *_{B(K)} B(K[t]) (H. Nagao, J. Inst.
Polytech. Osaka City Univ. 1959; J.-P. Serre, *Trees*, ch. II 1.6) the
group is an amalgam, so a member has one reduced word and its top
coefficient names the first letter's line.  One Poly1 division then gives
that letter's parameter, which walks only the exponents present.
"""

from __future__ import annotations

from dataclasses import dataclass

from .amalgam import shear_decompose
from .automorphisms import PlaneAuto
from .linear import PolyMat2, ProjPoint, nil_factors
from .poly import NEG_INF, Poly1
from .textio import format_poly1


class NotInMatrixGroup(ValueError):
    """Determinant is not the constant 1 or the value at t = 0 is not id."""


class FactorizationInvariantError(RuntimeError):
    """Internal rank or degree bookkeeping broke during matrix peeling."""


@dataclass(frozen=True)
class ShearFactor:
    """One factor id + c t^k e_delta with c nonzero and k >= 1."""

    delta: ProjPoint
    c: object
    k: int

    def pair(self) -> tuple:
        """The (direction, parameter) pair (delta, c t^k) of this factor."""
        return self.delta, Poly1.monomial(self.delta.field, self.k, self.c)

    def to_matrix(self) -> PolyMat2:
        return line_matrix(*self.pair())


def line_matrix(delta: ProjPoint, h: Poly1) -> PolyMat2:
    """id + h(t) e_delta for a polynomial h vanishing at 0."""
    (v0, v1), (w0, w1) = nil_factors(delta)
    one = Poly1.one(delta.field)
    return PolyMat2(delta.field, one + h.scale(v0 * w0), h.scale(v0 * w1),
                    h.scale(v1 * w0), one + h.scale(v1 * w1))


def _rank_one(v, w, h: Poly1, u):
    """u + h (w . u) v: the vector (id + h v w^T) u for scalar pairs v, w."""
    s = h * (u[0].scale(w[0]) + u[1].scale(w[1]))
    return u[0] + s.scale(v[0]), u[1] + s.scale(v[1])


def _shear_left(delta: ProjPoint, h: Poly1, g: PolyMat2) -> PolyMat2:
    """line_matrix(delta, h) * g, one rank-one update per column of g."""
    v, w = nil_factors(delta)
    e00, e10 = _rank_one(v, w, h, (g.e00, g.e10))
    e01, e11 = _rank_one(v, w, h, (g.e01, g.e11))
    return PolyMat2(g.field, e00, e01, e10, e11)


def _validate_group_member(g: PolyMat2) -> None:
    det = g.det()
    if det != Poly1.one(g.field):
        raise NotInMatrixGroup("determinant %s is not 1" % format_poly1(det))
    f = g.field
    if g.coeff(0) != (f.one, f.zero, f.zero, f.one):
        raise NotInMatrixGroup("value at t = 0 is not the identity")


def matrix_reduced_word(g: PolyMat2) -> tuple:
    """The reduced word of g: (direction, parameter) pairs with parameters
    vanishing at 0, adjacent directions distinct, product left to right.

    Each step peels the first letter g = (id + h e_delta) g' with one
    division: delta is the image of the top coefficient, b = w^T g = w^T g'
    and a = u^T g = u^T g' + h b with u^T v = 1, and h is the quotient of an
    entry of a by the entry of b of top degree, its constant term dropped.
    The degree must drop at every letter and the remainder must be id; any
    failure raises FactorizationInvariantError.
    """
    _validate_group_member(g)
    field = g.field
    word = []
    while (deg := g.degree()) >= 1:
        e00, e01, e10, e11 = g.entries()
        c0, c1 = (e00, e10) if max(e00.degree(), e10.degree()) == deg else (e01, e11)
        delta = ProjPoint.of(field, c0.coeff(deg), c1.coeff(deg))
        (v0, v1), (w0, w1) = nil_factors(delta)
        b = (e00.scale(w0) + e10.scale(w1), e01.scale(w0) + e11.scale(w1))
        a = (e00, e01) if delta.at_infinity else (e10, e11)
        j = 0 if b[0].degree() >= b[1].degree() else 1
        h = divmod(a[j], b[j])[0].drop_below(1)
        s0, s1 = h * b[0], h * b[1]
        g = PolyMat2(field, e00 - s0.scale(v0), e01 - s1.scale(v0),
                     e10 - s0.scale(v1), e11 - s1.scale(v1))
        if g.degree() >= deg:
            raise FactorizationInvariantError("degree did not drop at degree %d" % deg)
        word.append((delta, h))
    if not g.is_identity():
        raise FactorizationInvariantError("constant remainder %r is not the identity" % (g,))
    return tuple(word)


def matrix_factor(g: PolyMat2) -> list[ShearFactor]:
    """g as monomial shear factors, product left to right: the letters of
    its reduced word, each split into its terms from the top degree down."""
    return [ShearFactor(delta, c, k) for delta, h in matrix_reduced_word(g)
            for k, c in reversed(h.items())]


def matrix_recompose(field, pairs) -> PolyMat2:
    """The product of id + h e_delta over the (delta, h) pairs, left to
    right, built from the last pair back: each factor multiplies on the
    left as a rank-one column update."""
    out = PolyMat2.identity(field)
    for delta, h in reversed(tuple(pairs)):
        out = _shear_left(delta, h, out)
    return out


# -- the isomorphism with the shear decomposition ------------------------------


def to_matrix(auto_or_pairs) -> PolyMat2:
    """The polynomial matrix image of a map tangent to the identity.

    Accepts either the map itself or its shear decomposition; each shear
    (delta, f) contributes id + (f(t)/t) e_delta, multiplied left to right.
    """
    if isinstance(auto_or_pairs, PlaneAuto):
        pairs = shear_decompose(auto_or_pairs)
        field = auto_or_pairs.field
    else:
        pairs = tuple(auto_or_pairs)
        if not pairs:
            raise ValueError("cannot infer the field from an empty decomposition")
        field = pairs[0][0].field
    return matrix_recompose(field, [(delta, f.shift_down(1)) for delta, f in pairs])


def from_matrix(g: PolyMat2) -> tuple:
    """The shear decomposition whose matrix image is g.

    Each reduced matrix pair (delta, h) lifts to the shear parameter t h(t).
    """
    return tuple((delta, h.shift_up(1)) for delta, h in matrix_reduced_word(g))


# -- ping-pong degree growth ----------------------------------------------------


@dataclass
class PingPongResult:
    """Outcome of pushing a sample direction through a reduced word."""

    start: ProjPoint
    degree: int
    expected_degree: int
    end_direction: ProjPoint | None
    expected_direction: ProjPoint
    moved: bool

    @property
    def ok(self) -> bool:
        return (
            self.moved
            and self.degree == self.expected_degree
            and self.end_direction == self.expected_direction
        )


def pingpong_check(pairs, sample: ProjPoint) -> PingPongResult:
    """Apply the product of (direction, parameter) factors to a constant
    vector along ``sample`` and verify the degree-growth prediction.

    The vector is pushed through the factors one at a time, last pair
    first, each as the rank-one update u + h (w . u) v; the product matrix
    is never formed, and the result is matrix_recompose(...) times u.

    Precondition: pairs is reduced (adjacent directions distinct, parameters
    nonzero with zero constant term) and sample differs from the last
    factor's direction, which acts first.
    """
    pairs = tuple(pairs)
    if not pairs:
        raise ValueError("empty word has nothing to check")
    field = sample.field
    if sample == pairs[-1][0]:
        raise ValueError("sample direction must avoid the first-acting factor")
    for (d1, _), (d2, _) in zip(pairs, pairs[1:]):
        if d1 == d2:
            raise ValueError("word is not reduced")
    u = tuple(Poly1.constant(field, c) for c in sample.vector())
    for delta, h in reversed(pairs):
        u = _rank_one(*nil_factors(delta), h, u)
    u0, u1 = u
    expected_degree = sum(h.degree() for _, h in pairs)
    deg = max(u0.degree(), u1.degree())
    if deg is NEG_INF:
        return PingPongResult(sample, -1, expected_degree, None, pairs[0][0], False)
    end_dir = ProjPoint.of(field, u0.coeff(deg), u1.coeff(deg))
    moved = deg > 0 or end_dir != sample
    return PingPongResult(sample, deg, expected_degree, end_dir, pairs[0][0], moved)


__all__ = [
    "NotInMatrixGroup",
    "FactorizationInvariantError",
    "ShearFactor",
    "line_matrix",
    "matrix_factor",
    "matrix_reduced_word",
    "matrix_recompose",
    "to_matrix",
    "from_matrix",
    "PingPongResult",
    "pingpong_check",
]
