"""Batch command line front end.

Exit codes: 0 success, 1 a requested check failed (lab suite or
--verify), 2 malformed input, 3 domain errors such as a map that is not
invertible or a matrix outside the degree-filtered group.  In text, ``nf``
prints each atom as a plane map, so a shear of degree 2^64 or more exits 3;
jsonl prints the word, whose shears are ``Poly1``s of unbounded degree.

The scalar backend is global (--field q | fp:<p> | q-of-z | fp:<p>-of-z),
output is plain text or line-delimited JSON (--format), and every random
draw is seeded (--seed), so identical invocations print identical bytes.
The environment variable TAMEPLANE_WORK_BOUND overrides the work bound of
the pgroup and digits suites.  The lab suites live in
``tameplane.lab.suites``, which the first ``lab`` command imports: the
other commands load neither the lab nor ``tameplane.sampling``.
"""

from __future__ import annotations

import argparse
import functools
import json
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
from .automorphisms import classify, compose_all
from .linear import PolyMat2
from .matrixrep import from_matrix, to_matrix
from .ratfunc import field_from_spec, field_spec
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


def _verify_failed(what: str) -> int:
    print("verification failed: " + what, file=sys.stderr)
    return EXIT_CHECK_FAILED


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
        return _verify_failed("composite is not the identity")
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
    flags = dict(vars(profile), jacobian=format_poly2(profile.jacobian))
    if args.format == "jsonl":
        if flags["degree"] < 0:  # the zero map's degree -inf has no JSON literal
            flags["degree"] = None
        _emit(args, "classify", flags)
    else:
        print(" ".join("%s=%s" % (k, str(v).lower() if isinstance(v, bool) else v)
                       for k, v in flags.items()))
    return EXIT_OK


# ---------------------------------------------------------------------------
# word and matrix commands


def _emit_word(args, command: str, word: AmalgamWord) -> None:
    if args.format == "jsonl":
        _emit(args, command, json.loads(word_to_json(word)))
    else:
        atoms = (*zip(word.factor_kinds(), word.factors), ("tail", word.tail))
        _emit(args, command, "\n".join("%s: %s" % (kind, format_auto(atom.to_plane()))
                                       for kind, atom in atoms))


def _cmd_factor(field, args) -> int:
    auto = parse_auto(field, args.auto)
    word = vdk_factor(auto)
    if args.verify and word.recompose() != auto:
        return _verify_failed("word does not recompose to the input")
    _emit_word(args, "factor", word)
    return EXIT_OK


def _cmd_nf(field, args) -> int:
    if args.json:
        text = sys.stdin.read() if args.input == "-" else args.input
        word = word_from_json(text)
    else:
        auto = parse_auto(field, args.input)
        word = vdk_factor(auto)
    reduced = normal_form(word)
    # text input is checked against the parsed map, so a wrong factorization fails too
    if args.verify and reduced.recompose() != (word.recompose() if args.json else auto):
        return _verify_failed("normal form changed the element")
    _emit_word(args, "nf", reduced)
    return EXIT_OK


def _cmd_to_matrix(field, args) -> int:
    auto = parse_auto(field, args.auto)
    matrix = to_matrix(auto)
    if args.verify and shear_recompose(field, from_matrix(matrix)) != auto:
        return _verify_failed("matrix does not round trip")
    _emit(args, "to-matrix", format_polymat(matrix))
    return EXIT_OK


def _cmd_from_matrix(field, args) -> int:
    matrix = parse_polymat(field, args.matrix)
    pairs = from_matrix(matrix)
    auto = shear_recompose(field, pairs)
    # only the identity decomposes into no pairs, and an empty word names no field
    if args.verify and (to_matrix(pairs) if pairs else PolyMat2.identity(field)) != matrix:
        return _verify_failed("word does not rebuild the matrix")
    _emit(args, "from-matrix", format_auto(auto))
    return EXIT_OK


# ---------------------------------------------------------------------------
# lab suites


def _cmd_lab(field, args) -> int:
    from .lab.suites import run  # the lab loads on the first lab command
    return EXIT_OK if run(field, args) else EXIT_CHECK_FAILED


def __getattr__(name):
    """The suite functions ``_lab_<suite>``, read from ``tameplane.lab.suites``."""
    if name.startswith("_lab_"):
        from .lab import suites
        return getattr(suites, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


# ---------------------------------------------------------------------------
# argument plumbing


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it.

    Parsing leaves the parser unchanged (each call fills a fresh
    namespace), so one parser serves every ``main`` call in a process.  It
    holds no handler: ``main`` looks up ``_cmd_<command>`` by name on each
    call, as ``lab.suites.run`` does for the suites."""
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

    p = sub.add_parser("invert", help="exact inverse of a tame map")
    p.add_argument("auto")
    p.add_argument("--verify", action="store_true")

    p = sub.add_parser("jacobian", help="jacobian determinant polynomial")
    p.add_argument("auto")

    p = sub.add_parser("classify", help="subgroup membership flags")
    p.add_argument("auto")

    p = sub.add_parser("factor", help="factor into affine and shear atoms")
    p.add_argument("auto")
    p.add_argument("--verify", action="store_true")

    p = sub.add_parser("nf", help="normal form of a factored word")
    p.add_argument("input")
    p.add_argument("--json", action="store_true",
                   help="input is a serialized word (or - for stdin)")
    p.add_argument("--verify", action="store_true")

    p = sub.add_parser("to-matrix", help="matrix model of an origin-tangent map")
    p.add_argument("auto")
    p.add_argument("--verify", action="store_true")

    p = sub.add_parser("from-matrix", help="plane map of a degree-filtered matrix")
    p.add_argument("matrix")
    p.add_argument("--verify", action="store_true")

    p = sub.add_parser("lab", help="run a verification suite")
    p.add_argument("suite", choices=("pingpong", "relations", "pgroup",
                                     "digits", "logscale"))
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--N", type=int, default=4)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--words", type=int, default=50)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        field = field_from_spec(args.field)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE_ERROR
    args.field = field_spec(field)  # jsonl echoes the canonical spec
    handler = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        return handler(field, args)
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE_ERROR
    except (ValueError, ZeroDivisionError) as exc:
        print("domain error: %s" % exc, file=sys.stderr)
        return EXIT_DOMAIN_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
