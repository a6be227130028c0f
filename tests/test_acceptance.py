"""Acceptance suite: ten criteria, exact arithmetic, zero tolerance.

Each test prints one "[criterion NN] PASS/FAIL" line (echoed in the
terminal summary) and enforces its runtime budget.  Criteria 3 and 4
reuse the corpus built during criterion 2; its generation cost is charged
to criterion 2's budget.
"""

import random
import time

from tameplane import (
    ElemAuto,
    Poly1,
    PolyMat2,
    QQ,
    ShearFactor,
    borel_escape_witness,
    compose_all,
    from_matrix,
    in_borel,
    invert,
    matrix_factor,
    normal_form,
    pingpong_check,
    shear_recompose,
    to_matrix,
    vdk_factor,
    word_of_atoms,
)
from tameplane.lab.digits import digit_lemma_scan
from tameplane.lab.pgroup import pgroup_nilpotency_index
from tameplane.lab.relations import relations_report
from tameplane.lab.unipotent import RationalMatrix, log_scaling_check
from tameplane.ratfunc import RationalFunctionField
from tameplane.sampling import (
    random_matrix_factors,
    random_proj_point,
    random_shear_pairs,
    random_tame_atoms,
)
from tameplane.textio import parse_polymat

from conftest import ACCEPTANCE_LINES, F5
from oracles import (
    nilpotency_index_by_enumeration,
    power_sum_identity,
    random_congruence_borel,
    random_origin_special_borel,
)


def conclude(num: int, ok: bool, detail: str) -> None:
    line = "[criterion %02d] %s %s" % (num, "PASS" if ok else "FAIL", detail)
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def within(budget: float, elapsed: float) -> str:
    return "%.2fs of %.0fs budget" % (elapsed, budget)


# corpus shared by criteria 2-4: plane-side shear words (with their matrix
# images) and matrix-side factor products, both over Q and F5
_corpus = {}


def get_corpus():
    if not _corpus:
        rng = random.Random(20240)
        plane = []
        for i in range(300):
            field = QQ if i % 2 == 0 else F5
            pairs = random_shear_pairs(field, rng, max_factors=4, deg_cap=6,
                                       degree_budget=24)
            auto = shear_recompose(field, pairs)
            plane.append((field, pairs, auto, to_matrix(auto)))
        matrices = []
        for i in range(300):
            field = QQ if i % 2 == 0 else F5
            factors = random_matrix_factors(field, rng, max_factors=5)
            m = PolyMat2.identity(field)
            for fac in factors:
                m = m * fac.to_matrix()
            matrices.append((field, factors, m))
        _corpus["plane"] = plane
        _corpus["matrices"] = matrices
    return _corpus


def test_criterion_01_factor_and_recompose_round_trip():
    budget, t0 = 10.0, time.perf_counter()
    rng = random.Random(101)
    trials = 0
    for field in (QQ, F5):
        for _ in range(250):
            atoms = random_tame_atoms(field, rng, max_factors=6, height=8)
            g = compose_all(*(a.to_plane() for a in atoms))
            word = vdk_factor(g)
            assert word.recompose() == g
            # the same element assembled a second way: a cancelling
            # triangular pad spliced in at a random cut
            pad = ElemAuto(field, field.of(2), field.one, field.of(2),
                           Poly1.monomial(field, 1, field.one))
            cut = rng.randint(0, len(atoms))
            padded = [*atoms[:cut], pad, pad.inverse(), *atoms[cut:]]
            assert word_of_atoms(field, padded) == normal_form(word)
            trials += 1
    elapsed = time.perf_counter() - t0
    conclude(1, trials == 500 and elapsed <= budget,
             "500 round trips, normal forms agree, %s" % within(budget, elapsed))


def test_criterion_02_matrix_model_is_a_bijective_homomorphism():
    budget, t0 = 20.0, time.perf_counter()
    corpus = get_corpus()
    rng = random.Random(102)
    for field, pairs, auto, m_full in corpus["plane"]:
        # split the word at a random cut; the left part goes back through a
        # composed map so its image is recovered by factoring, not by formula
        cut = rng.randint(0, len(pairs))
        lm = to_matrix(shear_recompose(field, pairs[:cut]))
        rm = (to_matrix(pairs[cut:]) if cut < len(pairs)
              else PolyMat2.identity(field))
        assert lm * rm == m_full
        # reduced words are unique, so recovering the exact word is the
        # strongest form of from_matrix o to_matrix = id
        assert from_matrix(m_full) == tuple(pairs)
    for field, factors, m in corpus["matrices"]:
        assert to_matrix(from_matrix(m)) == m
    elapsed = time.perf_counter() - t0
    conclude(2, elapsed <= budget,
             "300 homomorphism splits, 300+300 inversions, %s"
             % within(budget, elapsed))


def test_criterion_03_peeling_strictly_decreases_degree():
    budget, t0 = 30.0, time.perf_counter()
    corpus = get_corpus()
    checked = 0
    for field, factors, m in corpus["matrices"]:
        peeled = matrix_factor(m)
        rebuilt = PolyMat2.identity(field)
        for fac in peeled:
            rebuilt = rebuilt * fac.to_matrix()
        assert rebuilt == m
        work = m
        while work.degree() >= 1:
            before = work.degree()
            fac = matrix_factor(work)[0]
            work = ShearFactor(fac.delta, -fac.c, fac.k).to_matrix() * work
            assert work.degree() < before
        checked += 1
    g = parse_polymat(QQ, "1, t ; t, 1 + t^2")
    steps = matrix_factor(g)
    assert [f.to_matrix() for f in steps] == [
        parse_polymat(QQ, "1, 0 ; t, 1"),
        parse_polymat(QQ, "1, t ; 0, 1"),
    ]
    elapsed = time.perf_counter() - t0
    conclude(3, checked == 300 and elapsed <= budget,
             "300 matrices peeled, worked example matches, %s"
             % within(budget, elapsed))


def test_criterion_04_degree_laws():
    budget, t0 = 30.0, time.perf_counter()
    corpus = get_corpus()
    violations = []
    for field, pairs, auto, m_full in corpus["plane"]:
        degrees = [f.degree() for _, f in pairs]
        product = 1
        for d in degrees:
            product *= d
        if auto.max_degree() != product:
            violations.append(("auto", degrees, auto.max_degree()))
        if m_full.degree() != sum(degrees) - len(degrees):
            violations.append(("matrix", degrees, m_full.degree()))
    elapsed = time.perf_counter() - t0
    conclude(4, not violations and elapsed <= budget,
             "deg = product and t-deg = sum - count on 300 words, %s%s"
             % (within(budget, elapsed),
                "; violations: %r" % violations[:3] if violations else ""))


def test_criterion_05_distinguished_relations():
    budget, t0 = 1.0, time.perf_counter()
    report = relations_report(word_trials=10, seed=105)
    elapsed = time.perf_counter() - t0
    conclude(5, report.all_pass and elapsed <= budget,
             "%d checks green, %s" % (len(report.records), within(budget, elapsed)))


def test_criterion_06_log_scaling():
    budget, t0 = 1.0, time.perf_counter()
    u = RationalMatrix([[1, 1], [0, 1]])
    h = RationalMatrix([[2, 0], [0, 1]])
    results = [log_scaling_check(h, u, 1)]
    rng = random.Random(106)
    while len(results) < 3:
        g = RationalMatrix([[rng.randint(-4, 4) for _ in range(2)]
                            for _ in range(2)])
        try:
            gi = g.inverse()
        except ValueError:
            continue
        results.append(log_scaling_check(g * h * gi, g * u * gi, 1))
    elapsed = time.perf_counter() - t0
    conclude(6, all(bool(r) for r in results) and elapsed <= budget,
             "base instance and 2 conjugates true, %s" % within(budget, elapsed))


def test_criterion_07_nilpotency_indices():
    # the group is the wreath product C_p wr (C_p)^r, whose class is
    # r*(p-1)+1 by Liebeck's theorem; see notes/decisions.md
    budget, t0 = 30.0, time.perf_counter()
    stated = {(2, 1): 2, (2, 2): 3, (2, 3): 4, (3, 1): 3, (3, 2): 5}
    law = all(v == r * (p - 1) + 1 for (p, r), v in stated.items())
    computed = {pr: pgroup_nilpotency_index(*pr) for pr in sorted(stated)}
    # every case with at most 2048 elements, checked by listing them all
    enumerated = {pr: nilpotency_index_by_enumeration(*pr)
                  for pr in ((2, 1), (2, 2), (3, 1), (2, 3))}
    power_sums = all(
        power_sum_identity(p, r)
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23)
        for r in range(1, 5)
        if p ** r <= 27
    )
    elapsed = time.perf_counter() - t0
    agree = all(enumerated[pr] == computed[pr] for pr in enumerated)
    ok = (law and computed == stated and agree and power_sums
          and elapsed <= budget)
    detail = ("indices %r, enumeration %r, power sums %s, %s"
              % (computed, enumerated, power_sums, within(budget, elapsed)))
    if computed != stated:
        detail += "; stated %r" % (stated,)
    conclude(7, ok, detail)


def test_criterion_08_digit_scans_are_empty():
    budget, t0 = 30.0, time.perf_counter()
    counts = {(p, n): len(digit_lemma_scan(p, n))
              for p, n in ((2, 6), (3, 5), (5, 4))}
    elapsed = time.perf_counter() - t0
    conclude(8, all(c == 0 for c in counts.values()) and elapsed <= budget,
             "no counterexamples in %r, %s" % (counts, within(budget, elapsed)))


def test_criterion_09_pingpong_certificates():
    budget, t0 = 5.0, time.perf_counter()
    rng = random.Random(109)
    landings = 0
    for i in range(100):
        field = QQ if i % 2 == 0 else F5
        fac = random_matrix_factors(field, rng, max_factors=1)[0]
        sample = random_proj_point(field, rng)
        while sample == fac.delta:
            sample = random_proj_point(field, rng)
        result = pingpong_check(
            [(fac.delta, Poly1.monomial(field, fac.k, fac.c))], sample)
        if result.ok and result.end_direction == fac.delta:
            landings += 1
    moved = 0
    for i in range(50):
        field = QQ if i % 2 == 0 else F5
        factors = random_matrix_factors(field, rng, max_factors=4)
        pairs = [(f.delta, Poly1.monomial(field, f.k, f.c)) for f in factors]
        sample = random_proj_point(field, rng)
        while sample == pairs[-1][0]:
            sample = random_proj_point(field, rng)
        if pingpong_check(pairs, sample).ok:
            moved += 1
    elapsed = time.perf_counter() - t0
    conclude(9, landings == 100 and moved == 50 and elapsed <= budget,
             "%d/100 landings, %d/50 words moved, %s"
             % (landings, moved, within(budget, elapsed)))


def test_criterion_10_borel_escape_witnesses():
    budget, t0 = 10.0, time.perf_counter()
    rng = random.Random(110)
    special_ok = 0
    for _ in range(50):
        g = random_origin_special_borel(QQ, rng)
        gamma, conj = borel_escape_witness(g, context="origin_special")
        if conj == compose_all(gamma, g, invert(gamma)) and not in_borel(conj):
            special_ok += 1
    QZ = RationalFunctionField(QQ)
    congruence_ok = 0
    for _ in range(20):
        g = random_congruence_borel(QZ, rng)
        gamma, conj = borel_escape_witness(g, context="congruence")
        if conj == compose_all(gamma, g, invert(gamma)) and not in_borel(conj):
            congruence_ok += 1
    elapsed = time.perf_counter() - t0
    conclude(10, special_ok == 50 and congruence_ok == 20 and elapsed <= budget,
             "%d/50 special, %d/20 congruence, %s"
             % (special_ok, congruence_ok, within(budget, elapsed)))
