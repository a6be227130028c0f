"""The ``tameplane lab`` suites, each a ``Report`` from the parsed arguments.
``tameplane.cli`` imports this module on the first ``lab`` command (the
lab package does not), so the other commands load neither the lab nor
``tameplane.sampling``."""

from __future__ import annotations

import os
import random

from ..cli import EXIT_CHECK_FAILED, EXIT_OK
from ..matrixrep import pingpong_check
from ..sampling import random_matrix_factors, random_proj_point
from ..textio import ParseError
from . import (DEFAULT_WORK_BOUND, RationalMatrix, Report, digit_lemma_scan,
                log_scaling_check, pgroup_nilpotency_index, relations_report)


def _print_report(args, report: Report) -> int:
    if args.format == "jsonl":
        text = report.jsonl()
        if text:
            print(text)
    else:
        for line in report.text_lines():
            print(line)
        print("%d checks, %d failures" % (len(report.records), len(report.failures())))
    return EXIT_OK if report.all_pass else EXIT_CHECK_FAILED


def _lab_pingpong(field, args) -> Report:
    rng = random.Random(args.seed)
    report = Report()
    for check, max_factors, size in (("single_factor_lands_on_line", 1, "trials"),
                                     ("reduced_words_move_samples", 4, "words")):
        count = getattr(args, size)
        failures = 0
        for _ in range(count):
            factors = random_matrix_factors(field, rng, max_factors=max_factors, deg_cap=3)
            pairs = [f.pair() for f in factors]
            sample = random_proj_point(field, rng)
            while sample == pairs[-1][0]:
                sample = random_proj_point(field, rng)
            if not pingpong_check(pairs, sample).ok:
                failures += 1
        report.add(check, 0, failures, **{size: count})
    return report


def _work_bound() -> int:
    """TAMEPLANE_WORK_BOUND, the work bound of the pgroup and digits suites."""
    text = os.environ.get("TAMEPLANE_WORK_BOUND", str(DEFAULT_WORK_BOUND))
    try:
        return int(text)
    except ValueError:
        raise ParseError("TAMEPLANE_WORK_BOUND must be an integer, got %r" % text) from None


def _lab_pgroup(field, args) -> Report:
    report = Report()
    got = pgroup_nilpotency_index(args.p, args.r, work_bound=_work_bound())
    report.add("nilpotency_index", args.p * args.r, got, p=args.p, r=args.r)
    return report


def _lab_digits(field, args) -> Report:
    report = Report()
    violations = digit_lemma_scan(args.p, args.N, work_bound=_work_bound())
    report.add("digit_scan_counterexamples", 0, len(violations), p=args.p, N=args.N)
    return report


def _lab_logscale(field, args) -> Report:
    rng = random.Random(args.seed)
    report = Report()
    u = RationalMatrix([[1, 1], [0, 1]])
    h = RationalMatrix([[2, 0], [0, 1]])
    report.add("shear_doubling_scales_log", True, bool(log_scaling_check(h, u, 1)))
    for i in range(args.trials):
        while True:
            g = RationalMatrix([[rng.randint(-3, 3) for _ in range(2)]
                                for _ in range(2)])
            try:
                gi = g.inverse()
                break
            except ValueError:
                continue
        ok = bool(log_scaling_check(g * h * gi, g * u * gi, 1))
        report.add("conjugated_instance", True, ok, trial=i)
    return report


def _lab_relations(field, args) -> Report:
    return relations_report(word_trials=args.trials, seed=args.seed)


def run(field, args) -> int:
    """Run the suite ``args.suite`` and print its report; the exit code."""
    # each suite with the sizes it reads; a size below 1 would pass vacuously
    suites = {
        "pingpong": (_lab_pingpong, ("trials", "words")),
        "relations": (_lab_relations, ("trials",)),
        "pgroup": (_lab_pgroup, ()),
        "digits": (_lab_digits, ("N",)),
        "logscale": (_lab_logscale, ("trials",)),
    }
    suite, sizes = suites[args.suite]
    for size in sizes:
        if getattr(args, size) < 1:
            raise ValueError("--%s must be at least 1, got %d" % (size, getattr(args, size)))
    return _print_report(args, suite(field, args))
