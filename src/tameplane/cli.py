"""Batch command line front end.

Exit codes: 0 success, 1 a requested check failed (lab suite or
--verify), 2 malformed input, 3 domain errors such as a map that is not
invertible or a matrix outside the degree-filtered group.

The scalar backend is global (--field q | fp:<p> | q-of-z | fp:<p>-of-z),
output is plain text or line-delimited JSON (--format), and every random
draw is seeded (--seed), so identical invocations print identical bytes.
The environment variable TAMEPLANE_WORK_BOUND overrides the p-group work
bound.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from .amalgam import (
    AmalgamWord,
    invert,
    normal_form,
    shear_recompose,
    vdk_factor,
    word_from_json,
    word_to_json,
)
from .automorphisms import AffineAuto, classify, compose_all
from .lab import (
    DEFAULT_WORK_BOUND,
    Report,
    digit_lemma_scan,
    log_scaling_check,
    pgroup_nilpotency_index,
    relations_report,
)
from .lab.unipotent import RationalMatrix
from .matrixrep import from_matrix, pingpong_check, to_matrix
from .poly import Poly1
from .ratfunc import field_from_spec
from .sampling import random_matrix_factors, random_proj_point
from .textio import (
    ParseError,
    format_auto,
    format_poly2,
    format_polymat,
    parse_auto,
    parse_polymat,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_DOMAIN_ERROR = 3


def _emit(args, command: str, result, extra: dict | None = None) -> None:
    if args.format == "jsonl":
        doc = {"command": command, "field": args.field, "result": result}
        if extra:
            doc.update(extra)
        print(json.dumps(doc, sort_keys=True))
    else:
        print(result if isinstance(result, str) else json.dumps(result))


# ---------------------------------------------------------------------------
# expression commands


def _cmd_compose(field, args) -> int:
    autos = [parse_auto(field, text) for text in args.auto]
    _emit(args, "compose", format_auto(compose_all(*autos)))
    return EXIT_OK


def _cmd_invert(field, args) -> int:
    auto = parse_auto(field, args.auto)
    inverse = invert(auto)
    if args.verify and not auto.compose(inverse).is_identity():
        print("verification failed: composite is not the identity", file=sys.stderr)
        return EXIT_CHECK_FAILED
    _emit(args, "invert", format_auto(inverse))
    return EXIT_OK


def _cmd_jacobian(field, args) -> int:
    auto = parse_auto(field, args.auto)
    jac = auto.jacobian()
    if not (jac.is_constant() and jac.constant_term()):
        print("warning: jacobian is not a nonzero constant; "
              "the map is not invertible", file=sys.stderr)
    _emit(args, "jacobian", format_poly2(jac))
    return EXIT_OK


def _cmd_classify(field, args) -> int:
    profile = classify(parse_auto(field, args.auto))
    flags = {
        "degree": profile.degree,
        "affine": profile.affine,
        "elementary": profile.elementary,
        "triangular": profile.triangular,
        "fixes_origin": profile.fixes_origin,
        "identity_differential": profile.identity_differential,
        "special": profile.special,
        "invertible_jacobian": profile.invertible_jacobian,
        "jacobian": format_poly2(profile.jacobian),
    }
    if args.format == "jsonl":
        _emit(args, "classify", flags)
    else:
        print(" ".join("%s=%s" % (k, str(v).lower() if isinstance(v, bool) else v)
                       for k, v in flags.items()))
    return EXIT_OK


# ---------------------------------------------------------------------------
# word and matrix commands


def _word_lines(word: AmalgamWord) -> list:
    lines = []
    for factor in word.factors:
        kind = "affine" if isinstance(factor, AffineAuto) else "shear"
        lines.append("%s: %s" % (kind, format_auto(factor.to_plane())))
    lines.append("tail: %s" % format_auto(word.tail.to_plane()))
    return lines


def _emit_word(args, command: str, word: AmalgamWord) -> None:
    if args.format == "jsonl":
        doc = {"command": command, "field": args.field,
               "result": json.loads(word_to_json(word))}
        print(json.dumps(doc, sort_keys=True))
    else:
        for line in _word_lines(word):
            print(line)


def _cmd_factor(field, args) -> int:
    auto = parse_auto(field, args.auto)
    word = vdk_factor(auto)
    if args.verify and word.recompose() != auto:
        print("verification failed: word does not recompose to the input",
              file=sys.stderr)
        return EXIT_CHECK_FAILED
    _emit_word(args, "factor", word)
    return EXIT_OK


def _cmd_nf(field, args) -> int:
    if args.json:
        text = sys.stdin.read() if args.input == "-" else args.input
        word = word_from_json(text)
    else:
        word = vdk_factor(parse_auto(field, args.input))
    reduced = normal_form(word)
    if args.verify and reduced.recompose() != word.recompose():
        print("verification failed: normal form changed the element",
              file=sys.stderr)
        return EXIT_CHECK_FAILED
    _emit_word(args, "nf", reduced)
    return EXIT_OK


def _cmd_to_matrix(field, args) -> int:
    auto = parse_auto(field, args.auto)
    matrix = to_matrix(auto)
    if args.verify and shear_recompose(field, from_matrix(matrix)) != auto:
        print("verification failed: matrix does not round trip", file=sys.stderr)
        return EXIT_CHECK_FAILED
    _emit(args, "to-matrix", format_polymat(matrix))
    return EXIT_OK


def _cmd_from_matrix(field, args) -> int:
    matrix = parse_polymat(field, args.matrix)
    pairs = from_matrix(matrix)
    auto = shear_recompose(field, pairs)
    if args.verify and to_matrix(pairs) != matrix:
        print("verification failed: word does not rebuild the matrix",
              file=sys.stderr)
        return EXIT_CHECK_FAILED
    _emit(args, "from-matrix", format_auto(auto))
    return EXIT_OK


# ---------------------------------------------------------------------------
# lab suites


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


def _factor_pairs(field, factors) -> list:
    return [(f.delta, Poly1(field, {f.k: f.c})) for f in factors]


def _lab_pingpong(field, args) -> Report:
    rng = random.Random(args.seed)
    report = Report()
    single_failures = 0
    for _ in range(args.trials):
        factors = random_matrix_factors(field, rng, max_factors=1, deg_cap=3)
        sample = random_proj_point(field, rng)
        while sample == factors[0].delta:
            sample = random_proj_point(field, rng)
        if not pingpong_check(_factor_pairs(field, factors), sample).ok:
            single_failures += 1
    report.add("single_factor_lands_on_line", 0, single_failures, trials=args.trials)
    word_failures = 0
    for _ in range(args.words):
        factors = random_matrix_factors(field, rng, max_factors=4, deg_cap=3)
        pairs = _factor_pairs(field, factors)
        sample = random_proj_point(field, rng)
        while sample == pairs[-1][0]:
            sample = random_proj_point(field, rng)
        if not pingpong_check(pairs, sample).ok:
            word_failures += 1
    report.add("reduced_words_move_samples", 0, word_failures, words=args.words)
    return report


def _lab_pgroup(field, args) -> Report:
    text = os.environ.get("TAMEPLANE_WORK_BOUND", str(DEFAULT_WORK_BOUND))
    try:
        bound = int(text)
    except ValueError:
        raise ParseError("TAMEPLANE_WORK_BOUND must be an integer, got %r" % text) from None
    report = Report()
    got = pgroup_nilpotency_index(args.p, args.r, work_bound=bound)
    report.add("nilpotency_index", args.p * args.r, got, p=args.p, r=args.r)
    return report


def _lab_digits(field, args) -> Report:
    report = Report()
    violations = digit_lemma_scan(args.p, args.N)
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


def _cmd_lab(field, args) -> int:
    suites = {
        "pingpong": _lab_pingpong,
        "relations": _lab_relations,
        "pgroup": _lab_pgroup,
        "digits": _lab_digits,
        "logscale": _lab_logscale,
    }
    return _print_report(args, suites[args.suite](field, args))


def _lab_relations(field, args) -> Report:
    return relations_report(word_trials=args.trials, seed=args.seed)


# ---------------------------------------------------------------------------
# argument plumbing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tameplane",
        description="Exact plane polynomial automorphism calculator.")
    parser.add_argument("--field", default="q",
                        help="scalar backend: q, fp:<p>, q-of-z, fp:<p>-of-z")
    parser.add_argument("--format", choices=("text", "jsonl"), default="text")
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compose", help="compose two or more maps, right acts first")
    p.add_argument("auto", nargs="+")
    p.set_defaults(handler=_cmd_compose)

    p = sub.add_parser("invert", help="exact inverse of a tame map")
    p.add_argument("auto")
    p.add_argument("--verify", action="store_true")
    p.set_defaults(handler=_cmd_invert)

    p = sub.add_parser("jacobian", help="jacobian determinant polynomial")
    p.add_argument("auto")
    p.set_defaults(handler=_cmd_jacobian)

    p = sub.add_parser("classify", help="subgroup membership flags")
    p.add_argument("auto")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("factor", help="factor into affine and shear atoms")
    p.add_argument("auto")
    p.add_argument("--verify", action="store_true")
    p.set_defaults(handler=_cmd_factor)

    p = sub.add_parser("nf", help="normal form of a factored word")
    p.add_argument("input")
    p.add_argument("--json", action="store_true",
                   help="input is a serialized word (or - for stdin)")
    p.add_argument("--verify", action="store_true")
    p.set_defaults(handler=_cmd_nf)

    p = sub.add_parser("to-matrix", help="matrix model of an origin-tangent map")
    p.add_argument("auto")
    p.add_argument("--verify", action="store_true")
    p.set_defaults(handler=_cmd_to_matrix)

    p = sub.add_parser("from-matrix", help="plane map of a degree-filtered matrix")
    p.add_argument("matrix")
    p.add_argument("--verify", action="store_true")
    p.set_defaults(handler=_cmd_from_matrix)

    p = sub.add_parser("lab", help="run a verification suite")
    p.add_argument("suite", choices=("pingpong", "relations", "pgroup",
                                     "digits", "logscale"))
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--N", type=int, default=4)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--words", type=int, default=50)
    p.set_defaults(handler=_cmd_lab)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        field = field_from_spec(args.field)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE_ERROR
    try:
        return args.handler(field, args)
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE_ERROR
    except (ValueError, ZeroDivisionError) as exc:
        print("domain error: %s" % exc, file=sys.stderr)
        return EXIT_DOMAIN_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
