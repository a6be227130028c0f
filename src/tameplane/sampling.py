"""Seeded random generators for test corpora and the CLI lab drivers.

Everything takes an explicit ``random.Random`` so runs are reproducible;
degree budgets keep composite degrees at desk scale (the exact arithmetic
is happy to blow up otherwise).
"""

from __future__ import annotations

import random

from .automorphisms import AffineAuto, ElemAuto, PlaneAuto, compose_all
from .linear import ProjPoint
from .matrixrep import ShearFactor
from .poly import Poly1


def random_affine(field, rng: random.Random, height: int = 8) -> AffineAuto:
    """The shift first, then four matrix entries per attempt until the
    matrix is invertible."""
    shift = (field.random_element(rng, height), field.random_element(rng, height))
    while True:
        a, b, c, d = (field.random_element(rng, height) for _ in range(4))
        if a * d - b * c:
            return AffineAuto(field, ((a, b), (c, d)), shift)


def random_elementary(field, rng: random.Random, max_deg: int = 3,
                      height: int = 8) -> ElemAuto:
    deg = rng.randint(0, max_deg)
    terms = {e: field.random_element(rng, height) for e in range(deg)}
    terms[deg] = field.random_nonzero(rng, height)
    return ElemAuto(field,
                    field.random_nonzero(rng, height), field.random_element(rng, height),
                    field.random_nonzero(rng, height), Poly1(field, terms))


def random_tame_atoms(field, rng: random.Random, max_factors: int = 6,
                      height: int = 8, degree_budget: int = 12) -> list:
    """Affine/elementary atoms whose elementary degrees multiply to at
    most ``degree_budget``, so the composite stays desk-sized."""
    atoms = []
    budget = degree_budget
    for _ in range(rng.randint(1, max_factors)):
        if rng.random() < 0.5:
            atoms.append(random_affine(field, rng, height))
        else:
            atom = random_elementary(field, rng, max_deg=min(3, budget), height=height)
            d = atom.f.degree()
            if d >= 2:
                budget = max(1, budget // d)
            atoms.append(atom)
    return atoms


def random_tame_auto(field, rng: random.Random, **kwargs) -> PlaneAuto:
    atoms = random_tame_atoms(field, rng, **kwargs)
    return compose_all(*[a.to_plane() for a in atoms])


def random_proj_point(field, rng: random.Random, height: int = 4) -> ProjPoint:
    if rng.random() < 0.15:
        return ProjPoint.infinity(field)
    return ProjPoint.of(field, field.random_element(rng, height), field.one)


def random_shear_pairs(field, rng: random.Random, max_factors: int = 4,
                       deg_cap: int = 6, degree_budget: int = 30) -> list:
    """A reduced word of (direction, parameter) line-shear pairs with
    parameter valuation >= 2 and degree product <= ``degree_budget``."""
    pairs: list = []
    product = 1
    for _ in range(rng.randint(1, max_factors)):
        delta = random_proj_point(field, rng)
        if pairs and pairs[-1][0] == delta:
            continue
        cap = min(deg_cap, degree_budget // product)
        if cap < 2:
            break
        deg = rng.randint(2, cap)
        product *= deg
        terms = {e: field.random_element(rng, 4) for e in range(2, deg)}
        terms[deg] = field.random_nonzero(rng, 4)
        pairs.append((delta, Poly1(field, terms)))
    if not pairs:
        pairs.append((random_proj_point(field, rng),
                      Poly1(field, {2: field.random_nonzero(rng, 4)})))
    return pairs


def random_matrix_factors(field, rng: random.Random, max_factors: int = 5,
                          deg_cap: int = 4, height: int = 6) -> list:
    """Reduced elementary matrix factors (adjacent directions distinct)."""
    factors: list = []
    for _ in range(rng.randint(1, max_factors)):
        delta = random_proj_point(field, rng)
        if factors and factors[-1].delta == delta:
            continue
        factors.append(ShearFactor(delta, field.random_nonzero(rng, height),
                                   rng.randint(1, deg_cap)))
    if not factors:
        factors.append(ShearFactor(random_proj_point(field, rng),
                                   field.random_nonzero(rng, height), 1))
    return factors
