"""Audit of the trusted constructors: every object they build is canonical.

``_SparsePoly._make``, ``AffineAuto._make``, ``ElemAuto._make`` and
``RationalFunction._coprime`` skip the normalize on the caller's word, and
equality, hashing and the normal-form check all assume canonical objects.
The test wraps the four constructors (with monkeypatch, for this module only), runs a seeded corpus
through the public operations over q, fp:5, fp:1000003, q-of-z and
fp:5-of-z, and asserts that no constructed object, and no polynomial in an
operation's result, breaks the canonical form:

* over Q, a positive int denominator, int numerators, and ``normalize`` a
  fixed point (no zero numerator, gcd(den, *numerators) = 1);
* over F_p, residues in [1, p) over 1;
* over K(z), nonzero canonical elements over 1, where an element is
  canonical when its numerator and denominator are, the denominator is
  monic, the two are coprime, and 0 is 0/1;
* every ``Poly2`` key a valid encoding (i + j) << DEG_SHIFT | j of x^i y^j,
  that is an int with 0 <= j <= i + j < 2^DEG_SHIFT.
"""

import math
import random
from fractions import Fraction

import pytest

from tameplane import (
    AffineAuto,
    AmalgamWord,
    ElemAuto,
    NotAnAutomorphism,
    PlaneAuto,
    Poly1,
    Poly2,
    PolyMat2,
    PrimeField,
    ProjPoint,
    RationalFunctionField,
    as_affine,
    as_elementary,
    borel_escape_witness,
    classify,
    compose_all,
    field_from_spec,
    format_auto,
    format_poly1,
    format_polymat,
    from_matrix,
    in_borel,
    invert,
    line_matrix,
    matrix_factor,
    matrix_recompose,
    normal_form,
    parse_auto,
    parse_poly1,
    parse_polymat,
    pingpong_check,
    shear_decompose,
    shear_recompose,
    to_matrix,
    vdk_factor,
    word_from_json,
    word_of_atoms,
    word_to_json,
)
from tameplane.poly import DEG_SHIFT, _SparsePoly
from tameplane.ratfunc import RationalFunction
from tameplane.sampling import random_proj_point, random_shear_pairs, random_tame_atoms

SPECS = ("q", "fp:5", "fp:1000003", "q-of-z", "fp:5-of-z")


def _element_violation(r) -> str | None:
    if not isinstance(r, RationalFunction):
        return "K(z) numerator %r is not an element" % (r,)
    for part in (r.num, r.den):
        bad = _poly_violation(part)
        if bad:
            return bad
    if r.den.is_zero() or r.den.leading_coeff() != r.field.base.one:
        return "denominator of %r is not monic" % (r,)
    if r.num.is_zero():
        return None if r.den == Poly1.one(r.field.base) else "zero %r is not 0/1" % (r,)
    if r.num.gcd(r.den).degree() > 0:
        return "%r is not in lowest terms" % (r,)
    return None


def _numerators_violation(field, nums: dict, den) -> str | None:
    """Why nums / den is not canonical over field, or None."""
    if isinstance(field, PrimeField):
        if den != 1 or not all(type(v) is int and 0 < v < field.p for v in nums.values()):
            return "over %r, %r / %r are not residues over 1" % (field, nums, den)
    elif isinstance(field, RationalFunctionField):
        if den != 1:
            return "over K(z), denominator %r is not 1" % (den,)
        for v in nums.values():
            bad = "zero numerator" if not v else _element_violation(v)
            if bad:
                return bad
    else:
        if type(den) is not int or den <= 0 or not all(type(v) is int for v in nums.values()):
            return "over Q, %r / %r are not ints over a positive int" % (nums, den)
        if 0 in nums.values() or math.gcd(den, *nums.values()) != 1:
            return "over Q, %r / %r is not in lowest terms" % (nums, den)
    return None


def _key_violation(k) -> str | None:
    """Why k is not the key of a monomial x^i y^j of a Poly2, or None."""
    if type(k) is int and 0 <= k & ((1 << DEG_SHIFT) - 1) <= k >> DEG_SHIFT < 1 << DEG_SHIFT:
        return None
    return "%r is not a Poly2 key" % (k,)


def _poly_violation(p) -> str | None:
    if isinstance(p, Poly2):
        bad = next(filter(None, map(_key_violation, p._num)), None)
        if bad:
            return bad
    return _numerators_violation(p.field, p._num, p._den)


class Audit:
    """Counts the objects each wrapped constructor built and collects
    every violation found in them or in checked results."""

    def __init__(self):
        self.calls = {"_make": 0, "AffineAuto._make": 0, "ElemAuto._make": 0, "_coprime": 0}
        self.violations: list = []

    def note(self, bad, where: str) -> None:
        if bad:
            self.violations.append("%s: %s" % (where, bad))

    def check(self, value, where: str) -> None:
        """Walk a result: polynomials, maps, matrices, words and containers."""
        if isinstance(value, _SparsePoly):
            self.note(_poly_violation(value), where)
        elif isinstance(value, PlaneAuto):
            self.check((value.p, value.q), where)
        elif isinstance(value, (AffineAuto, ElemAuto)):
            self.note(_numerators_violation(value.field, value._num, value._den), where)
        elif isinstance(value, PolyMat2):
            self.check(value.entries(), where)
        elif isinstance(value, RationalFunction):
            self.note(_element_violation(value), where)
        elif isinstance(value, (tuple, list)):
            for v in value:
                self.check(v, where)
        elif isinstance(value, AmalgamWord):
            self.check((value.factors, value.tail), where)


@pytest.fixture
def audit(monkeypatch):
    audit = Audit()
    make, atom_make = _SparsePoly._make.__func__, AffineAuto._make.__func__
    coprime = RationalFunction._coprime.__func__

    def checked_make(cls, field, nums, den=1):
        audit.calls["_make"] += 1
        out = make(cls, field, nums, den)
        audit.note(_poly_violation(out), "%s._make" % cls.__name__)
        return out

    def checked_atom_make(cls, field, nums, den):
        where = "%s._make" % cls.__name__
        audit.calls[where] += 1
        out = atom_make(cls, field, nums, den)
        audit.note(_numerators_violation(field, nums, den), where)
        return out

    def checked_coprime(cls, field, num, den):
        audit.calls["_coprime"] += 1
        out = coprime(cls, field, num, den)
        audit.note(_element_violation(out), "RationalFunction._coprime")
        return out

    monkeypatch.setattr(_SparsePoly, "_make", classmethod(checked_make))
    monkeypatch.setattr(AffineAuto, "_make", classmethod(checked_atom_make))
    monkeypatch.setattr(ElemAuto, "_make", classmethod(checked_atom_make))
    monkeypatch.setattr(RationalFunction, "_coprime", classmethod(checked_coprime))
    return audit


def _run_corpus(field, rng: random.Random, audit: Audit) -> None:
    small = isinstance(field, RationalFunctionField)
    rounds = 4 if small else 12
    for _ in range(rounds):
        # tame words: factor, normalize, invert, serialize, print and parse
        atoms = random_tame_atoms(field, rng, max_factors=4, degree_budget=4 if small else 8)
        g = compose_all(*(a.to_plane() for a in atoms))
        word = vdk_factor(g)
        gi = invert(g)
        assert word.recompose() == g and g.compose(gi).is_identity()
        results = [g, word, gi, normal_form(word), word_of_atoms(field, atoms),
                   word_from_json(word_to_json(word)), parse_auto(field, format_auto(g)),
                   g.jacobian(), as_affine(g), as_elementary(g), list(vars(classify(g)).values())]
        for atom in atoms:
            results += [atom.inverse(), atom.to_plane()]
        # line shears: the graded peel, both recompositions and the matrix peel
        pairs = tuple(random_shear_pairs(field, rng, degree_budget=6 if small else 12))
        f = shear_recompose(field, pairs)
        assert shear_decompose(f) == pairs
        m = to_matrix(f)
        assert from_matrix(m) == pairs and to_matrix(pairs) == m
        assert parse_polymat(field, format_polymat(m)) == m
        sample = random_proj_point(field, rng)
        if sample != pairs[-1][0]:
            pingpong_check([(d, h.shift_down(1)) for d, h in pairs], sample)
        results += [f, m, m.det(), matrix_factor(m), [line_matrix(d, h.shift_down(1)) for d, h in pairs],
                    matrix_recompose(field, [(d, h.shift_down(1)) for d, h in pairs])]
        # (x + x^2, y) o f is tangent to the identity with jacobian 1 + 2 f.p, so no
        # automorphism in odd characteristic, and the peel gets stuck on it
        x, y = Poly2.x(field), Poly2.y(field)
        with pytest.raises(NotAnAutomorphism):
            shear_decompose(PlaneAuto(x + x * x, y).compose(f))
        # univariate arithmetic
        p = Poly1(field, {e: field.random_element(rng, 5) for e in range(rng.randint(1, 5))})
        q = Poly1(field, {e: field.random_element(rng, 5) for e in range(2)}) + Poly1.monomial(field, 2, field.one)
        c = field.random_nonzero(rng, 5)
        results += [divmod(p, q), p.gcd(q), p.monic(), p.scale(c), -p, p ** 2, p.shift_up(2),
                    ElemAuto(field, c, field.random_element(rng, 5), field.one, p).inverse(), p.substitute(q),
                    parse_poly1(field, format_poly1(p))]
        # a triangular map, never the identity (it adds c x to y), and its escape
        t = ElemAuto(field, c, field.random_element(rng, 3), field.one, Poly1.monomial(field, 1, c)).to_plane()
        assert in_borel(t)
        results.append(borel_escape_witness(t, context="origin_special"))
        audit.check(results, repr(field))


@pytest.mark.parametrize("spec", SPECS)
def test_trusted_constructors_build_canonical_objects(spec, audit):
    field = field_from_spec(spec)
    _run_corpus(field, random.Random(sum(map(ord, spec))), audit)
    assert audit.violations == []
    assert all(audit.calls[k] > 0 for k in ("_make", "AffineAuto._make", "ElemAuto._make"))
    if isinstance(field, RationalFunctionField):
        assert audit.calls["_coprime"] > 0


def test_the_audit_sees_a_broken_constructor_call(audit):
    """A non-canonical numerator dict handed to a trusted constructor is caught."""
    field = field_from_spec("q")
    Poly1._make(field, {1: 2}, 4)  # 2/4 t is not in lowest terms
    AffineAuto._make(field, {0: 0}, 1)  # a zero numerator
    ProjPoint.of(field, 1, 2)  # no constructor call
    # (x, y + x^2 + x/2) is 2, 2, 2 and 1 over 2; the split's rep (x, y + x^2) is
    # not its numerators without f1's, still over 2
    g = ElemAuto(field, 1, 0, 1, Poly1(field, {2: 1, 1: Fraction(1, 2)}))
    ElemAuto._make(field, {k: n for k, n in g._num.items() if k != 1}, g._den)
    # degree 1 with a y-power of 2, and a degree past the bound
    Poly2._make(field, {1 << DEG_SHIFT | 2: 1})
    Poly2._make(field, {1 << 2 * DEG_SHIFT: 1})
    assert len(audit.violations) == 5
