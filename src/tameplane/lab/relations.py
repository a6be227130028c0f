"""Defining relations among a halving homothety, an add-and-swap linear
map, and the quadratic shear, over the rationals.

The three maps are
    H : (x, y) -> (x/2, y/2)
    L : (x, y) -> (x + y, x)
    T : (x, y) -> (x, y + x^2)
H is central among linear maps and conjugating T by H squares it, so
<H, L, T> carries a rich amalgam structure; the report below verifies
both relations exactly, checks that no nonzero power of L is triangular,
and witnesses freeness by normalizing random alternating words.
"""

from __future__ import annotations

import random

from ..amalgam import vdk_factor
from ..automorphisms import AffineAuto, ElemAuto, PlaneAuto, compose_all
from ..poly import Poly1
from ..scalars import QQ
from .report import Report


def halving_homothety(field=QQ) -> PlaneAuto:
    half = field.one / field.of(2)
    return AffineAuto(field, ((half, 0), (0, half))).to_plane()


def addswap_linear(field=QQ) -> PlaneAuto:
    return AffineAuto(field, ((1, 1), (1, 0))).to_plane()


def square_shear(field=QQ) -> PlaneAuto:
    return ElemAuto.shear(field, Poly1.monomial(field, 2, field.one)).to_plane()


def _alternating_word(rng: random.Random) -> PlaneAuto:
    """A reduced word: non-triangular linear atoms alternating with
    non-affine shear atoms, hence nontrivial in the amalgam."""
    homothety = halving_homothety()
    linear = addswap_linear()
    atoms = []
    start_linear = rng.random() < 0.5
    length = rng.randint(2, 6)
    for i in range(length):
        if (i % 2 == 0) == start_linear:
            atom = linear if rng.random() < 0.5 else linear.compose(linear).compose(linear)
            if rng.random() < 0.5:
                atom = homothety.compose(atom)
        else:
            k = rng.choice([-2, -1, 1, 2, 3])
            atom = ElemAuto.shear(QQ, Poly1.monomial(QQ, 2, QQ.of(k))).to_plane()
        atoms.append(atom)
    return compose_all(*atoms)


def relations_report(word_trials: int = 10, seed: int = 2024) -> Report:
    report = Report()
    homothety = halving_homothety()
    homothety_inv = AffineAuto(QQ, ((2, 0), (0, 2))).to_plane()
    linear = addswap_linear()
    shear = square_shear()

    report.add("homothety_commutes_with_linear", True,
               homothety.compose(linear) == linear.compose(homothety))
    report.add("conjugation_squares_the_shear", True,
               compose_all(homothety, shear, homothety_inv) == shear.compose(shear))

    step = AffineAuto(QQ, ((1, 1), (1, 0)))
    back = step.inverse()
    power = inverse_power = AffineAuto.identity(QQ)
    triangular_powers = 0
    for _ in range(20):
        power, inverse_power = power.compose(step), inverse_power.compose(back)
        triangular_powers += power.is_lower_triangular() or inverse_power.is_lower_triangular()
    report.add("linear_powers_leave_triangulars", 0, triangular_powers, n_max=20)

    rng = random.Random(seed)
    trivial = 0
    for _ in range(word_trials):
        word = vdk_factor(_alternating_word(rng))
        if len(word) == 0 and word.tail.is_identity():
            trivial += 1
    report.add("alternating_words_nontrivial", 0, trivial, trials=word_trials)
    return report
