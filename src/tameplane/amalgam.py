"""Factorization of tame plane automorphisms and reduced amalgam words.

Every automorphism with constant nonzero jacobian factors through the affine
and triangular subgroups.  This module computes such a factorization by
degree reduction and normalizes it into the unique reduced word over fixed
coset representatives; it also finds escape witnesses from the triangular
subgroup.  Inversion needs no normal form: it inverts the degree
reduction's own atoms and multiplies them out in reverse order.

The normal form is one push-down loop over the atoms of a product.  The
triangular tail absorbs each atom in turn; while the result is not
triangular, it merges into the last representative when the two have the
same kind, and otherwise splits, in closed form, as a new representative
times a triangular tail, by the atoms' own ``split``.  A word that is
already reduced is unique, so it is returned as it is.

Maps tangent to the identity decompose more finely, into shears along
projective directions, and that decomposition does not go through the
amalgam word: ``shear_decompose`` peels line shears straight off the map,
one top-degree monomial at a time, and ``shear_recompose`` applies them.

Both factorizations take c l^d u off the pair (p, q), along a direction
u = (a, b), where l = b p - a q; that leaves l unchanged, so the powers of
l serve every step along one direction.  The degree reduction (``_peel``
on whole polynomials) is the peel along (0 : 1), where l = p, with a swap
of the components whenever deg p > deg q or the tied degrees leave q
unpeelable.  ``shear_decompose`` peels in place on the graded numerators
of the one component that moves; the degree reduction ran slower on such a
state (ROADMAP item 17), so the two loops are separate.  Both read c at d
times the largest key of l (top degree, largest power of y), where
top(l^d) has a nonzero coefficient, so, like
``matrixrep.matrix_reduced_word``, they keep a step exactly when it lowers
the degree.

Coset representative conventions (right factor acts first everywhere):

* non-triangular affine representatives are the linear maps with matrix
  rows ((0, 1), (1, lam)), one per scalar lam; lam = 0 is the coordinate swap;
* non-triangular shear representatives are (x, y + g(x)) with g having zero
  constant and linear coefficients;
* the word's tail is the leftover triangular map, kept on the right.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .linear import ProjPoint
from .poly import DEG_SHIFT, Poly1, Poly2, Powers
from .automorphisms import (
    AffineAuto,
    ElemAuto,
    NotAnAutomorphism,
    PlaneAuto,
    as_affine,
)
from .ratfunc import field_from_spec, field_spec
from .textio import ParseError, format_poly1, format_scalar, parse_poly1, parse_scalar


def in_borel(auto: PlaneAuto) -> bool:
    """Is the map triangular (affine with lower triangular linear part)?"""
    aff = as_affine(auto)
    return aff is not None and aff.is_lower_triangular()


@dataclass(frozen=True)
class AmalgamWord:
    """A word (factors..., tail): alternating coset representatives, then a
    triangular tail applied first (rightmost)."""

    field: object
    factors: tuple
    tail: ElemAuto

    def __len__(self) -> int:
        return len(self.factors)

    def factor_kinds(self) -> tuple[str, ...]:
        return tuple("affine" if isinstance(g, AffineAuto) else "shear" for g in self.factors)

    def recompose(self) -> PlaneAuto:
        """Multiply the word back out into a plane map."""
        return _multiply_out(self.field, (*self.factors, self.tail))


def _multiply_out(field, atoms) -> PlaneAuto:
    """The plane map atoms[0] o atoms[1] o ..., applied from the left, last
    atom first."""
    p, q = Poly2.x(field), Poly2.y(field)
    for atom in reversed(atoms):
        p, q = atom.apply(p, q)
    return PlaneAuto(p, q)


def normal_form(word: AmalgamWord) -> AmalgamWord:
    """Canonicalize a word; idempotent, and invariant under recomposition.
    A reduced word is unique, so it is returned as it is."""
    if _in_normal_form(word):
        return word
    return word_of_atoms(word.field, (*word.factors, word.tail))


def _in_normal_form(word: AmalgamWord) -> bool:
    """Is the word reduced: alternating representatives, each exactly as the
    conventions above write it, then a triangular invertible tail?"""
    tail, kinds = word.tail, [type(g) for g in word.factors]
    return (all(a is not b for a, b in zip(kinds, kinds[1:])) and all(
                k in (AffineAuto, ElemAuto) and g.is_rep() for k, g in zip(kinds, word.factors))
            and type(tail) is ElemAuto and tail.is_lower_triangular() and tail.is_invertible())


def word_of_atoms(field, atoms) -> AmalgamWord:
    """Normal form of an explicit product of affine and triangular maps.

    Each atom is pushed down into (representatives..., tail) by one loop:
    the tail absorbs the atom, and while that product g is not triangular
    it is merged into the last representative if it has the same kind, or
    else split as rep o b, with rep pushed and b the new tail.
    """
    reps: list = []
    tail = ElemAuto.identity(field)
    for atom in atoms:
        if isinstance(atom, AffineAuto):
            if not atom.is_invertible():
                raise NotAnAutomorphism("singular affine factor")
            g = tail.to_affine().compose(atom)
        elif isinstance(atom, ElemAuto):
            if not atom.is_invertible():
                raise NotAnAutomorphism("degenerate triangular factor")
            g = tail.compose(atom)
        else:
            raise TypeError("expected an affine or triangular factor, got %r" % (atom,))
        while not g.is_lower_triangular():
            if reps and type(reps[-1]) is type(g):
                g = reps.pop().compose(g)
            else:
                rep, g = g.split()
                reps.append(rep)
        tail = ElemAuto.from_affine(g) if isinstance(g, AffineAuto) else g
    return AmalgamWord(field, tuple(reps), tail)


# -- factorization ------------------------------------------------------------


def _peel(powers: Powers, q: Poly2):
    """(d, c, q - c l^d) for l = powers[1] and c read at d times the largest
    key of l (top degree, largest power of y), if that lowers deg q, else
    None; powers is the caller's ladder of l, so each power of l is made once."""
    deg, dl = q.total_degree(), powers[1].total_degree()
    if dl < 1 or deg % dl:
        return None
    d = deg // dl
    power, key = powers[d], d * max(powers[1]._num)
    c = q._coeff_at(key) / power._coeff_at(key)
    rest = q - power.scale(c)
    return (d, c, rest) if rest.total_degree() < deg else None


def _vdk_atoms(auto: PlaneAuto) -> list:
    """The degree reduction's atoms, auto = atoms[0] o atoms[1] o ...

    Each pass swaps or left-multiplies by (x, y - c x^k) to lower deg q, and
    the inverse, the swap or (x, y + c x^k), is a factor.  That multiply is
    the line-shear peel along (0 : 1), with l = p; the monomials peeled
    between two swaps commute, so each run of them makes one shear.
    """
    f = auto.field
    atoms: list = [{}]  # a dict gathers one run's monomials, k -> c, until it becomes a shear
    p, q = auto.p, auto.q
    swap = AffineAuto(f, ((f.zero, f.one), (f.one, f.zero)))
    ladder = Powers(p)
    dp, dq = p.total_degree(), q.total_degree()
    while max(dp, dq) > 1:
        peel = None if dp > dq else _peel(ladder, q)
        if peel is None and dp >= dq:
            atoms += [swap, {}]
            p, q, dp, dq, ladder = q, p, dq, dp, Powers(q)
            peel = _peel(ladder, q)
        if peel is None:
            raise NotAnAutomorphism("degree reduction stuck at degrees (%s, %s)" % (dp, dq))
        k, c, q = peel
        atoms[-1][k] = c
        dq = q.total_degree()
    ending = as_affine(PlaneAuto(p, q))
    if ending is None:
        raise NotAnAutomorphism("affine remainder is singular")
    return [ElemAuto.shear(f, Poly1(f, a)) if type(a) is dict else a for a in atoms if a != {}] + [ending]


def vdk_factor(auto: PlaneAuto) -> AmalgamWord:
    """Factor a tame automorphism into the reduced amalgam word, the normal
    form of the degree reduction's atoms.

    No jacobian is computed: every degree-reduction step applies an
    automorphism, so reaching an invertible affine end certifies the input.
    Any other input (a nonconstant or zero jacobian, or (x + x^p, y) in
    characteristic p) gets degree reduction stuck or leaves a singular
    affine remainder, and both raise NotAnAutomorphism.
    """
    return word_of_atoms(auto.field, _vdk_atoms(auto))


def invert(auto: PlaneAuto) -> PlaneAuto:
    """The inverse automorphism: the degree reduction's atoms, inverted and
    multiplied out in reverse order.  The inverse map is unique, so it needs
    no normal form; non-automorphisms raise as in ``vdk_factor``."""
    return _multiply_out(auto.field, [atom.inverse() for atom in reversed(_vdk_atoms(auto))])


def borel_escape_witness(g: PlaneAuto, context: str) -> tuple[PlaneAuto, PlaneAuto]:
    """A conjugator gamma with gamma o g o gamma^{-1} outside the triangular
    subgroup, returned with that conjugate.

    ``context`` picks the finite candidate family:

    - "origin_special": g scales the axes and shears y by a multiple of x,
      with unit jacobian; the conjugator fixes the origin with jacobian one
      (a rotation, a row operation, or the parabola shear for -id).
    - "congruence": g is (x + u, y + v + w x) with u, v, w multiples of the
      ideal generator r, the function-field variable; the conjugator is
      (x + r y, y), (x, y + r x^3), or their composite, and lies in the
      same congruence subgroup.

    Raises ValueError for the identity and for maps not in the triangular
    subgroup to begin with.
    """
    field = g.field
    if g.is_identity():
        raise ValueError("the identity has no conjugate outside the triangular subgroup")
    if not in_borel(g):
        raise ValueError("map is already outside the triangular subgroup")

    def linear(m00, m01, m10, m11):
        return AffineAuto(field, ((m00, m01), (m10, m11))).to_plane()

    one, zero = field.one, field.zero
    if context == "origin_special":
        candidates = [linear(zero, -one, one, zero), linear(one, one, zero, one),
                      ElemAuto.shear(field, Poly1.monomial(field, 2, one)).to_plane()]
    elif context == "congruence":
        r = getattr(field, "gen", None)
        if not r:
            raise ValueError("congruence context needs a nonzero ideal generator")
        row_add_r = linear(one, r, zero, one)
        cubic = ElemAuto.shear(field, Poly1.monomial(field, 3, r)).to_plane()
        candidates = [row_add_r, cubic, cubic.compose(row_add_r)]
    else:
        raise ValueError("unknown context %r" % (context,))
    for gamma in candidates:
        conj = gamma.compose(g).compose(invert(gamma))
        if not in_borel(conj):
            return gamma, conj
    raise ValueError("no conjugate of %r left the triangular subgroup" % (g,))


# -- decomposition into line shears -------------------------------------------


def shear_decompose(auto: PlaneAuto) -> tuple:
    """Write a map tangent to the identity as a product of line shears.

    The result is a reduced tuple of (direction, parameter polynomial)
    pairs, parameters with zero constant and linear coefficients, the
    product taken left to right: auto = shear_recompose(field, pairs).

    The shears are peeled off the left one monomial at a time.  If
    F = (p, q) = s o G with s the leftmost shear, along u = (a, b) with
    profile f, then F = G + f(l) u for the linear form l = b p - a q, and l
    takes the same value on F and G because b a - a b = 0.  So the top form
    of F is c top(l)^d u, read off as direction u, exponent d and scalar c,
    and F - c l^d u is again a product of line shears, of lower degree.
    A tangent map that is not an automorphism gets the peel stuck.

    Along one direction only one component m moves: q for u = (a, 1), with
    p = l + a q following it, and p at infinity, where q stays.  A run of
    peels holds m alone, as numerators bucketed by total degree over one
    denominator, grown by an lcm only when a step brings a new factor: the
    top form is one bucket, c is read at d times the largest key of l, c l^d
    is subtracted in place, and the peel is exact iff the top bucket
    empties.  The run ends when deg m <= deg l; its monomials make one
    parameter.  The direction read next is new unless the map is no
    automorphism: a top form along u vanishes on l at the probe but not on
    m, so no c top(l)^d matches it.
    """
    field = auto.field
    one, zero = field.one, field.zero
    if not (auto.fixes_origin() and auto.linear_part() == ((one, zero), (zero, one))):
        raise ValueError("map is not tangent to the identity at the origin")
    lift, normalize, ratio = field.lift, field.normalize, field.ratio
    p, q = auto.p, auto.q
    pairs = []
    while (deg := max(p.total_degree(), q.total_degree())) > 1:
        probe = next(k for f in (p, q) for k in f._num if k >> DEG_SHIFT == deg)
        delta = ProjPoint.of(field, p._coeff_at(probe), q._coeff_at(probe))
        if pairs and delta == pairs[-1][0]:
            raise NotAnAutomorphism("line shear peel stuck at degree %d" % deg)
        a, b = delta.vector()
        l = p.scale(b) - q.scale(a)
        dl, lead = l.total_degree(), max(l._num)
        powers = Powers(l)
        m = q if b else p
        den, g = m._den, {}
        for k, v in m._num.items():
            g.setdefault(k >> DEG_SHIFT, {})[k] = v
        terms = {}
        while deg > dl or not terms:  # with deg l = deg, the one step tried refuses
            d = deg // dl if not deg % dl else 0
            key = d * lead if d else None
            top = g[deg]
            if key not in top:
                raise NotAnAutomorphism("line shear peel stuck at degree %d" % deg)
            power = powers[d]
            c = ratio(top[key], den) / ratio(power._num[key], power._den)
            n, sd = lift(c)
            sd *= power._den
            if den % sd:
                r = sd // math.gcd(den, sd)
                den *= r
                g = {e: {k: v * r for k, v in t.items()} for e, t in g.items()}
            if den != sd:
                n = n * (den // sd)
            for k, v in power._num.items():
                t = g.setdefault(k >> DEG_SHIFT, {})
                s = t.get(k)
                t[k] = -(v * n) if s is None else s - v * n
            for e in range(d, deg + 1):  # l has no constant term, so l^d none below degree d
                if t := normalize(g.pop(e, {}), 1)[0]:
                    g[e] = t
            if deg in g:
                raise NotAnAutomorphism("line shear peel stuck at degree %d" % deg)
            terms[d] = c
            deg = max(g)
        m = Poly2._normalized(field, {k: v for t in g.values() for k, v in t.items()}, den)
        p, q = (l + m.scale(a), m) if b else (m, q)
        pairs.append((delta, Poly1(field, terms)))
    auto = PlaneAuto(p, q)
    if not auto.is_identity():
        raise AssertionError("remainder %r after line shear peeling" % (auto,))
    return tuple(pairs)


def shear_recompose(field, pairs) -> PlaneAuto:
    """Multiply (direction, parameter) pairs back into a plane map.

    The shears are applied from the left, last pair first, so each step
    substitutes one linear form into a profile instead of composing maps:
    the shear v -> v + f(l . v) u along u = (a, b), l = (b, -a), sends (p, q)
    to (p + a f(s), q + b f(s)) with s = b p - a q.  A profile needs
    valuation >= 2, so that the shear is tangent to the identity.
    """
    p, q = Poly2.x(field), Poly2.y(field)
    for delta, f in reversed(tuple(pairs)):
        if f.is_zero() or f.coeff(0) or f.coeff(1):
            raise ValueError("shear profile must be nonzero with valuation >= 2")
        a, b = delta.vector()
        fs = f.substitute(p.scale(b) - q.scale(a))
        p, q = p + fs.scale(a), q + fs.scale(b)
    return PlaneAuto(p, q)


# -- serialization -------------------------------------------------------------

_FORMAT = "tameplane-word"
_VERSION = 1


def word_to_json(word: AmalgamWord) -> str:
    def scalar(s) -> str:
        return format_scalar(word.field, s)

    def shear(g: ElemAuto) -> dict:
        return {"z1": scalar(g.z1), "t0": scalar(g.t0), "z2": scalar(g.z2), "f": format_poly1(g.f, "x")}

    recs = []
    for g in word.factors:
        if isinstance(g, AffineAuto):
            recs.append({"kind": "affine", "matrix": [[scalar(e) for e in row] for row in g.m],
                         "shift": [scalar(e) for e in g.shift]})
        else:
            recs.append({"kind": "shear", **shear(g)})
    doc = {
        "format": _FORMAT,
        "version": _VERSION,
        "field": field_spec(word.field),
        "factors": recs,
        "tail": shear(word.tail),
    }
    return json.dumps(doc, indent=2)


def word_from_json(text: str) -> AmalgamWord:
    """Read a word document; every malformed document raises ParseError.

    Degenerate atoms (a singular matrix, a zero scaling) are well formed
    here and are rejected when the word is normalized.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise ParseError("not a JSON document: %s" % exc.msg, exc.pos) from None
    except RecursionError:
        raise ParseError("JSON document nested too deeply") from None
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT:
        raise ParseError("not a %s document" % _FORMAT)
    if type(doc.get("version")) is not int or doc["version"] != _VERSION:  # true and 1.0 compare equal to 1
        raise ParseError("unsupported version %r" % doc.get("version"))
    try:
        field = field_from_spec(doc["field"])

        def scal(s):
            return parse_scalar(field, s)

        def shear(rec) -> ElemAuto:
            return ElemAuto(field, scal(rec["z1"]), scal(rec["t0"]), scal(rec["z2"]), parse_poly1(field, rec["f"], "x"))

        def array(v, what: str, size=None) -> list:
            if not isinstance(v, list) or size is not None and len(v) != size:
                raise ParseError("malformed %s document: %s must be an array%s"
                                 % (_FORMAT, what, "" if size is None else " of %d" % size))
            return v

        factors: list = []
        for rec in array(doc["factors"], "factors"):
            if rec["kind"] == "affine":
                (a, b), (c, d) = (array(row, "a matrix row", 2) for row in array(rec["matrix"], "a matrix", 2))
                sh = array(rec.get("shift", ["0", "0"]), "a shift", 2)
                factors.append(AffineAuto(field, ((scal(a), scal(b)), (scal(c), scal(d))), (scal(sh[0]), scal(sh[1]))))
            elif rec["kind"] == "shear":
                factors.append(shear(rec))
            else:
                raise ParseError("unknown factor kind %r" % rec["kind"])
        return AmalgamWord(field, tuple(factors), shear(doc["tail"]))
    except ParseError:
        raise
    except (LookupError, TypeError, AttributeError, ValueError) as exc:
        raise ParseError("malformed %s document: %s: %s" % (_FORMAT, type(exc).__name__, exc)) from None
