"""End-to-end command line behavior, run in process."""

import json
import os
import subprocess
import sys
import time

import pytest

import tameplane
from tameplane import QQ, cli, to_matrix, vdk_factor
from tameplane.cli import main
from tameplane.textio import parse_auto

TOO_LONG = "%%s too long to print (over %d digits)" % sys.get_int_max_str_digits()
POLY2_BOUND = "Poly2 exponents must be nonnegative with total degree below 2^64"
HUGE_SHEAR_WORD = json.dumps({
    "format": "tameplane-word", "version": 1, "field": "q", "factors": [],
    "tail": {"z1": "1", "t0": "0", "z2": "1", "f": "(x^1{0})^1{0}".format("0" * 3000)}})


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def word_doc(capsys, text="y+x^2, x", mutate=None) -> str:
    """The serialized factor word of a map, optionally altered."""
    _, out, _ = run(capsys, "--format", "jsonl", "factor", text)
    doc = json.loads(out)["result"]
    if mutate:
        mutate(doc)
    return json.dumps(doc)


class TestExpressionCommands:
    def test_compose(self, capsys):
        code, out, _ = run(capsys, "compose", "x, y+x^2", "x, y+x^2")
        assert code == 0 and out == "x, y + 2*x^2\n"

    def test_compose_many(self, capsys):
        code, out, _ = run(capsys, "compose", "y, x", "y, x", "x, y + x^3")
        assert code == 0 and out == "x, y + x^3\n"

    def test_invert(self, capsys):
        code, out, _ = run(capsys, "invert", "y+x^2, x")
        assert code == 0 and out == "y, x - y^2\n"

    def test_invert_verify(self, capsys):
        code, out, _ = run(capsys, "invert", "--verify", "y+x^2, x")
        assert code == 0 and out == "y, x - y^2\n"

    def test_jacobian_warns_on_nonconstant(self, capsys):
        code, out, err = run(capsys, "jacobian", "x^2, y")
        assert code == 0
        assert out == "2*x\n"
        assert "warning" in err

    def test_classify_is_stable_text(self, capsys):
        code1, out1, _ = run(capsys, "classify", "x, y + x^2")
        code2, out2, _ = run(capsys, "classify", "x, y + x^2")
        assert code1 == code2 == 0 and out1 == out2
        assert "elementary=true" in out1 and "affine=false" in out1

    def test_to_matrix(self, capsys):
        code, out, _ = run(capsys, "to-matrix", "x, y+x^2")
        assert code == 0 and out == "1, 0 ; t, 1\n"

    def test_from_matrix_degree_four(self, capsys):
        code, out, _ = run(capsys, "from-matrix", "--verify", "1, t ; t, 1+t^2")
        assert code == 0
        assert out == "x + y^2, y + x^2 + 2*x*y^2 + y^4\n"

    @pytest.mark.parametrize("spec", ["q", "q-of-z"])
    def test_from_matrix_verifies_the_identity(self, capsys, spec):
        # the identity decomposes into the empty word, which names no field
        code, out, err = run(capsys, "--field", spec, "from-matrix", "--verify", "1, 0 ; 0, 1")
        assert (code, out, err) == (0, "x, y\n", "")
        code, out, err = run(capsys, "--field", spec, "--format", "jsonl",
                             "from-matrix", "--verify", "1, 0 ; 0, 1")
        assert code == 0 and err == ""
        assert json.loads(out) == {"command": "from-matrix", "field": spec, "result": "x, y"}

    def test_factor_lists_atoms(self, capsys):
        code, out, _ = run(capsys, "factor", "--verify", "y+x^2, x")
        lines = out.splitlines()
        assert code == 0
        assert lines[0].startswith("affine: ")
        assert lines[-1].startswith("tail: ")

    def test_nf_accepts_json_words(self, capsys):
        code, out, _ = run(capsys, "--format", "jsonl", "factor", "y+x^2, x")
        doc = json.loads(out)["result"]
        code2, out2, _ = run(capsys, "nf", "--json", json.dumps(doc))
        assert code == code2 == 0
        assert out2.splitlines()[-1].startswith("tail: ")

    @pytest.mark.parametrize("spec, canonical", [(" Q ", "q"), ("FP:05", "fp:5"), ("Q-of-Z", "q-of-z")])
    def test_jsonl_echoes_the_canonical_field(self, capsys, spec, canonical):
        code, out, _ = run(capsys, "--field", spec, "--format", "jsonl", "factor", "x, y")
        doc = json.loads(out)
        assert code == 0 and doc["field"] == doc["result"]["field"] == canonical

    def test_field_flag(self, capsys):
        code, out, _ = run(capsys, "--field", "fp:5", "compose",
                           "x, y+x^2", "x, y+4*x^2")
        assert code == 0 and out == "x, y\n"

    @pytest.mark.parametrize("p", ["1000003", "2305843009213693951"])
    def test_large_prime_fields(self, capsys, p):
        code, out, _ = run(capsys, "--field", "fp:" + p, "compose",
                           "x + y^2, y", "x, y + 3*x^2")
        assert code == 0
        assert out == "x + y^2 + 6*x^2*y + 9*x^4, y + 3*x^2\n"

    # one-term inputs with a huge exponent: every power of a monomial is a
    # squaring and a substitution of a scaled variable touches the terms
    # present only, so each call takes milliseconds; budget 2 s a call
    SPARSE_EXPONENT_CALLS = [
        (("from-matrix", "1, t^100000000 ; 0, 1"), "x - y^100000001, y\n"),
        (("to-matrix", "x, y + x^100000000"), "1, 0 ; t^99999999, 1\n"),
        (("compose", "x^100000000, y", "-x, y"), "x^100000000, y\n"),
        (("compose", "x^100000000, y", "0, y"), "0, y\n"),
        (("factor", "x, y + x^100000000"), "shear: x, y + x^100000000\ntail: x, y\n"),
        (("nf", "x, y + x^100000000"), "shear: x, y + x^100000000\ntail: x, y\n"),
        (("invert", "x, y + x^100000000"), "x, y - x^100000000\n"),
    ]

    @pytest.mark.parametrize("argv, want", [
        pytest.param(argv, want, id=" ".join(argv)) for argv, want in
        SPARSE_EXPONENT_CALLS + [((argv[0], "--verify", *argv[1:]), want)
                                 for argv, want in SPARSE_EXPONENT_CALLS if argv[0] != "compose"]])
    def test_sparse_huge_exponents_within_budget(self, capsys, argv, want):
        t0 = time.perf_counter()
        code, out, err = run(capsys, *argv)
        elapsed = time.perf_counter() - t0
        assert (code, out, err) == (0, want, "")
        assert elapsed < 2.0, "%.2fs of 2s budget" % elapsed

    def test_sparse_shear_absorbs_a_scaling_tail_within_budget(self, capsys):
        # the tail's scaling 2x (no shift) is substituted into x^100000000 when
        # the shear absorbs it, and again when the split takes it back out:
        # both touch the terms present only
        word = json.dumps({"format": "tameplane-word", "version": 1, "field": "fp:5",
                           "factors": [{"kind": "shear", "z1": "1", "t0": "0", "z2": "1",
                                        "f": "x^100000000"}],
                           "tail": {"z1": "2", "t0": "0", "z2": "1", "f": "x^2"}})
        t0 = time.perf_counter()
        code, out, err = run(capsys, "--field", "fp:5", "nf", "--json", word)
        elapsed = time.perf_counter() - t0
        assert (code, out, err) == (0, "shear: x, y + 4*x^2 + x^100000000\ntail: 2*x, y\n", "")
        assert elapsed < 2.0, "%.2fs of 2s budget" % elapsed

    # an int literal is a field element, so its power is one power mod p
    @pytest.mark.parametrize("spec, want", [("fp:5", "3*x, y\n"), ("fp:5-of-z", "3*x, y\n"),
                                            ("fp:1000003", "197617*x, y\n")])
    def test_literal_power_within_budget(self, capsys, spec, want):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "--field", spec, "compose", "3^30000001*x, y", "x, y")
        elapsed = time.perf_counter() - t0
        assert (code, out, err) == (0, want, "")
        assert elapsed < 2.0, "%.2fs of 2s budget" % elapsed


class TestExitCodes:
    def test_parse_error_is_2(self, capsys):
        code, _, err = run(capsys, "compose", "x, y+")
        assert code == 2 and "parse error" in err
        # the factor word of y + x^2, x is (affine, shear, tail)
        malformed_words = [
            word_doc(capsys, mutate=lambda d: d.pop("tail")),
            word_doc(capsys, mutate=lambda d: d["factors"][0].pop("matrix")),
            word_doc(capsys, mutate=lambda d: d.update(field=5)),
            word_doc(capsys, mutate=lambda d: d.update(format="other")),
            word_doc(capsys, mutate=lambda d: d.update(version=2)),
            # JSON true and 1.0 compare equal to 1 but are not the integer version
            word_doc(capsys, mutate=lambda d: d.update(version=True)),
            word_doc(capsys, mutate=lambda d: d.update(version=1.0)),
            "[]",
            "not json",
        ]
        deep = "(" * 300 + "x" + ")" * 300
        for argv in (
            *(("nf", "--json", doc) for doc in malformed_words),
            ("compose", deep + ", y"),
            ("compose", "-" * 1000 + "x, y"),
            ("from-matrix", "1, " + deep.replace("x", "t") + " ; 0, 1"),
            ("--field", "fp:5", "compose", "7" * 5000 + "*x, y", "x, y"),
            ("--field", "fp:5", "compose", "x^" + "7" * 5000 + ", y", "x, y"),
        ):
            code, _, err = run(capsys, *argv)
            assert code == 2 and "parse error" in err, argv
            assert "Traceback" not in err

    @pytest.mark.parametrize("key, value", [
        ("matrix", ["01", "10"]),
        ("matrix", "0110"),
        ("matrix", [["0", "1"]]),
        ("matrix", [["0", "1"], ["1", "0"], ["1", "1"]]),
        ("matrix", [["0", "1", "1"], ["1", "0"]]),
        ("matrix", [["0", "1"], "10"]),
        ("matrix", {"0": "0", "1": "1"}),
        ("shift", "34"),
        ("shift", ["3"]),
        ("shift", ["3", "4", "5"]),
        ("shift", {"0": "3", "1": "4"}),
    ])
    def test_affine_factor_needs_two_element_arrays(self, capsys, key, value):
        # the factor word of y + x^2, x starts with an affine factor
        doc = word_doc(capsys, mutate=lambda d: d["factors"][0].update({key: value}))
        code, out, err = run(capsys, "nf", "--json", doc)
        assert code == 2 and out == ""
        assert "parse error" in err and "must be an array" in err and "Traceback" not in err

    @pytest.mark.parametrize("value", ["", "ab", {}, {"kind": "affine"}])
    def test_factors_must_be_an_array(self, capsys, value):
        doc = word_doc(capsys, mutate=lambda d: d.update(factors=value))
        code, out, err = run(capsys, "nf", "--json", doc)
        assert code == 2 and out == "" and "parse error" in err

    def test_bad_field_is_2(self, capsys):
        code, _, err = run(capsys, "--field", "fp:6", "classify", "x, y")
        assert code == 2

    def test_strong_pseudoprime_field_is_2(self, capsys):
        # 3215031751 passes Miller-Rabin to bases 2, 3, 5 and 7
        code, _, err = run(capsys, "--field", "fp:3215031751", "classify", "x, y")
        assert code == 2 and "not a prime" in err

    def test_domain_error_is_3(self, capsys):
        # to-matrix inputs are tangent to the identity but not automorphisms
        for argv in (
            ("invert", "x^2, y"),
            ("to-matrix", "x, y + x^2 + y^2"),
            ("to-matrix", "x + y^2, y + x^2"),
            ("--field", "fp:5", "to-matrix", "x + x^5, y"),
            ("nf", "--json", word_doc(capsys, mutate=lambda d: d["tail"].update(z1="0"))),
        ):
            code, _, err = run(capsys, *argv)
            assert code == 3 and "domain error" in err, argv

    def test_non_group_matrix_is_3(self, capsys):
        for argv, message in (
            (("from-matrix", "1+t, 0 ; 0, 1"), "determinant 1 + t is not 1"),
            (("from-matrix", "1, 1 ; 0, 1"), "value at t = 0 is not the identity"),
            (("--field", "fp:5", "from-matrix", "2, 0 ; 0, 3"), "value at t = 0 is not the identity"),
            (("--field", "q-of-z", "from-matrix", "z, 0 ; 0, 1/z"),
             "value at t = 0 is not the identity"),
        ):
            assert run(capsys, *argv) == (3, "", "domain error: %s\n" % message), argv

    def test_non_group_matrix_message_prints_the_determinant_as_text(self, capsys):
        code, out, err = run(capsys, "from-matrix", "1, t ; t, 1")
        assert (code, out) == (3, "")
        assert err == "domain error: determinant 1 - t^2 is not 1\n"

    @pytest.mark.parametrize("p", ["-3", "0", "1"])
    def test_digits_base_below_two_is_3(self, capsys, p):
        code, out, err = run(capsys, "lab", "digits", "--p", p, "--N", "2")
        assert (code, out) == (3, "")
        assert "domain error" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (("factor", "x + y^2, y + x^2"), "degree reduction stuck at degrees (2, 2)"),
        (("factor", "1, y^2"), "degree reduction stuck at degrees (0, 2)"),
        (("factor", "x + y, x + y"), "affine remainder is singular"),
        (("to-matrix", "x + x^2, y"), "line shear peel stuck at degree 2"),
        (("to-matrix", "x + x^2*y, y"), "line shear peel stuck at degree 3"),
        # the result is exact but one of its integers is past Python's int-to-text limit
        (("compose", "x^20000, y", "2*x, y"), TOO_LONG % "coefficient"),
        (("--format", "jsonl", "compose", "x^20000, y", "2*x, y"), TOO_LONG % "coefficient"),
        (("factor", "x, y + 7^6000*x^2"), TOO_LONG % "coefficient"),
        (("--format", "jsonl", "factor", "x, y + 7^6000*x^2"), TOO_LONG % "coefficient"),
        # a Poly1 exponent has no bound: (x^10^3000)^10^3000 parses but cannot print
        (("--format", "jsonl", "nf", "--json", HUGE_SHEAR_WORD), TOO_LONG % "exponent"),
        # a Poly2 total degree of 2^64 or more is refused before any work
        (("compose", "x^1%s, y" % ("0" * 3000), "x^1%s, y" % ("0" * 3000)), POLY2_BOUND),
    ])
    def test_refused_maps_print_where_the_peel_stopped(self, capsys, argv, message):
        assert run(capsys, *argv) == (3, "", "domain error: %s\n" % message)

    @pytest.mark.parametrize("argv", [
        ("compose", "x, y + x^1180591620717411303424", "y, x"),
        ("compose", "x^9223372036854775808, y", "x^2, y"),
        ("factor", "x, y + x^18446744073709551616"),
        ("from-matrix", "1, t^18446744073709551616 ; 0, 1"),
        ("--format", "jsonl", "invert", "x + y^18446744073709551616, y"),
    ])
    def test_poly2_total_degrees_of_2_to_the_64_are_3(self, capsys, argv):
        assert run(capsys, *argv) == (3, "", "domain error: %s\n" % POLY2_BOUND)

    def test_the_largest_total_degree_below_the_bound_is_answered(self, capsys):
        assert run(capsys, "factor", "x, y + x^18446744073709551615") == (
            0, "shear: x, y + x^18446744073709551615\ntail: x, y\n", "")

    @pytest.mark.parametrize("argv, message", [
        (("digits", "--p", "2", "--N", "0"), "--N must be at least 1, got 0"),
        (("digits", "--p", "2", "--N", "-3"), "--N must be at least 1, got -3"),
        (("pingpong", "--trials", "-2", "--words", "0"), "--trials must be at least 1, got -2"),
        (("pingpong", "--words", "0"), "--words must be at least 1, got 0"),
        (("logscale", "--trials", "-1"), "--trials must be at least 1, got -1"),
        (("relations", "--trials", "0"), "--trials must be at least 1, got 0"),
    ])
    def test_lab_sizes_below_one_are_3(self, capsys, argv, message):
        # a suite with nothing to check would otherwise pass vacuously
        assert run(capsys, "lab", *argv) == (3, "", "domain error: %s\n" % message)

    @pytest.mark.parametrize("argv, name, fake, message", [
        (("invert", "y + x^2, x"), "invert", lambda auto: auto,
         "composite is not the identity"),
        (("factor", "y + x^2, x"), "vdk_factor",
         lambda auto: vdk_factor(parse_auto(QQ, "y, x")),
         "word does not recompose to the input"),
        (("nf", "y + x^2, x"), "normal_form",
         lambda word: vdk_factor(parse_auto(QQ, "y, x")),
         "normal form changed the element"),
        (("to-matrix", "x, y + x^2"), "from_matrix", lambda matrix: [],
         "matrix does not round trip"),
        (("from-matrix", "1, t ; t, 1 + t^2"), "to_matrix",
         lambda pairs: to_matrix(pairs[1:]),
         "word does not rebuild the matrix"),
        # nf --verify checks the parsed map, so a wrong factorization fails too
        (("nf", "y + x^2, x"), "vdk_factor",
         lambda auto: vdk_factor(parse_auto(QQ, "y, x")),
         "normal form changed the element"),
    ])
    def test_failed_verification_is_1(self, capsys, monkeypatch, argv, name, fake, message):
        # a wrong result from the library must be caught by --verify
        monkeypatch.setattr(cli, name, fake)
        command, *rest = argv
        assert run(capsys, command, "--verify", *rest) == (
            1, "", "verification failed: %s\n" % message)

    def test_failing_lab_suite_is_1(self, capsys):
        code, out, _ = run(capsys, "lab", "pgroup", "--p", "2", "--r", "2")
        assert code == 1 and "FAIL" in out


class TestJsonl:
    def test_result_documents_are_single_lines(self, capsys):
        code, out, _ = run(capsys, "--format", "jsonl", "invert", "y+x^2, x")
        assert code == 0
        doc = json.loads(out)
        assert doc == {"command": "invert", "field": "q", "result": "y, x - y^2"}

    def test_zero_map_degree_is_strict_json(self, capsys):
        def refuse(name):
            raise ValueError("non-standard JSON constant " + name)

        code, out, _ = run(capsys, "--format", "jsonl", "classify", "0, 0")
        assert code == 0
        assert json.loads(out, parse_constant=refuse)["result"]["degree"] is None
        code, out, _ = run(capsys, "classify", "0, 0")
        assert code == 0 and out.startswith("degree=-inf ")

    def test_lab_records_are_one_json_per_line(self, capsys):
        code, out, _ = run(capsys, "--format", "jsonl",
                           "lab", "digits", "--p", "2", "--N", "4")
        assert code == 0
        for line in out.splitlines():
            rec = json.loads(line)
            assert rec["pass"] is True


class TestLabSuites:
    def test_pingpong_passes(self, capsys):
        code, out, _ = run(capsys, "lab", "pingpong",
                           "--trials", "10", "--words", "5")
        assert code == 0 and "0 failures" in out

    def test_relations_passes(self, capsys):
        code, out, _ = run(capsys, "lab", "relations", "--trials", "5")
        assert code == 0

    def test_pgroup_rank_one_passes(self, capsys):
        code, out, _ = run(capsys, "lab", "pgroup", "--p", "2", "--r", "1")
        assert code == 0 and "pass" in out

    def test_logscale_passes(self, capsys):
        code, out, _ = run(capsys, "lab", "logscale", "--trials", "2")
        assert code == 0

    def test_work_bound_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("TAMEPLANE_WORK_BOUND", "10")
        code, _, err = run(capsys, "lab", "pgroup", "--p", "3", "--r", "2")
        assert code == 3 and "work bound" in err

    @pytest.mark.parametrize("n", ["30", "1000000000"])
    def test_digit_scans_past_the_work_bound_are_3(self, capsys, n):
        # the scan is exponential in N, so its bound is checked before it starts
        start = time.perf_counter()
        code, out, err = run(capsys, "lab", "digits", "--p", "2", "--N", n)
        assert (code, out) == (3, "") and "work bound exceeded for (p, N) = (2, %s)" % n in err
        assert time.perf_counter() - start < 2

    def test_raised_work_bound_lets_a_longer_digit_scan_run(self, capsys, monkeypatch):
        assert run(capsys, "lab", "digits", "--p", "2", "--N", "12")[0] == 3
        monkeypatch.setenv("TAMEPLANE_WORK_BOUND", "1000000")
        code, out, _ = run(capsys, "lab", "digits", "--p", "2", "--N", "12")
        assert code == 0 and "pass" in out
        # the bound is counted in ints, so a p^N past any float still ends in exit 3
        monkeypatch.setenv("TAMEPLANE_WORK_BOUND", "1" + "0" * 500)
        assert run(capsys, "lab", "digits", "--p", str(10 ** 200), "--N", "3")[0] == 3

    @pytest.mark.parametrize("value", ["abc", "", "1e5"])
    def test_malformed_work_bound_is_a_parse_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("TAMEPLANE_WORK_BOUND", value)
        code, _, err = run(capsys, "lab", "pgroup", "--p", "2", "--r", "1")
        assert code == 2 and "TAMEPLANE_WORK_BOUND" in err
        assert "(at position" not in err

    @pytest.mark.parametrize("p,r", [("2305843009213693951", "1"), ("3", "100000000000")])
    def test_huge_parameters_stop_at_the_work_bound(self, capsys, p, r):
        start = time.perf_counter()
        code, _, err = run(capsys, "lab", "pgroup", "--p", p, "--r", r)
        assert code == 3 and "work bound" in err
        assert time.perf_counter() - start < 1.0


class TestSharedParser:
    """One parser serves every main call in a process."""

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("argv", [
        ("--format", "jsonl", "factor", "--verify", "y + x^2, x"),
        ("--field", "fp:5", "nf", "--verify", "y + x^2, x"),
        ("--seed", "3", "lab", "pingpong", "--trials", "4", "--words", "2"),
    ])
    def test_repeated_calls_print_identical_bytes(self, capsys, argv):
        first = run(capsys, *argv)
        assert first[0] == 0 and first[1]
        assert run(capsys, *argv) == first

    @pytest.mark.parametrize("bad", [
        ("frobnicate", "x, y"),
        ("--format", "xml", "invert", "y+x^2, x"),
        ("--seed", "7", "--field", "fp:5", "lab", "digits", "--N", "two"),
    ])
    def test_argparse_failure_leaves_the_parser_usable(self, capsys, bad):
        with pytest.raises(SystemExit) as exc:
            main(list(bad))
        assert exc.value.code == 2
        capsys.readouterr()
        # no option of the failed call carries over into the next one
        assert run(capsys, "invert", "y+x^2, x") == (0, "y, x - y^2\n", "")
        assert run(capsys, "lab", "pingpong", "--trials", "4", "--words", "2") == run(
            capsys, "--seed", "0", "--field", "q", "lab", "pingpong", "--trials", "4", "--words", "2")

    def test_handlers_are_looked_up_at_call_time(self, capsys, monkeypatch):
        cli.build_parser()
        monkeypatch.setattr(cli, "_cmd_jacobian", lambda field, args: cli.EXIT_CHECK_FAILED)
        assert run(capsys, "jacobian", "x, y") == (1, "", "")


def fresh_interpreter(code: str) -> str:
    """Stdout of ``code`` run by a new interpreter that imports this checkout."""
    src = os.path.dirname(os.path.dirname(tameplane.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


LAB_MODULES = "[m for m in ('tameplane.lab', 'tameplane.sampling') if m in sys.modules]"


class TestColdStart:
    """The expression commands never load the lab suites or their sampler;
    the first ``lab`` command of a process does."""

    def test_importing_the_cli_loads_neither_lab_nor_sampling(self):
        out = fresh_interpreter("import sys, tameplane.cli\nprint(%s)" % LAB_MODULES)
        assert out == "[]\n"

    def test_lab_after_compose_prints_the_same_in_one_process(self):
        out = fresh_interpreter(
            "import sys\n"
            "from tameplane.cli import main\n"
            "codes = [main(['compose', 'x, y + x^2', 'x, y + x^2'])]\n"
            "print(%s)\n"
            "codes.append(main(['lab', 'digits']))\n"
            "print(codes, %s)\n" % (LAB_MODULES, LAB_MODULES))
        assert out == ("x, y + 2*x^2\n"
                       "[]\n"
                       "digit_scan_counterexamples p=2 N=4 expected=0 got=0 pass\n"
                       "1 checks, 0 failures\n"
                       "[0, 0] ['tameplane.lab', 'tameplane.sampling']\n")

    def test_suite_functions_are_read_through_the_cli(self):
        # perfbench/tracer.py wraps the suites by these names on the cli module
        from tameplane.lab import suites

        assert cli._lab_digits is suites._lab_digits
        with pytest.raises(AttributeError):
            cli._cmd_frobnicate


class TestDeterminism:
    def test_same_seed_same_bytes(self, capsys):
        a = run(capsys, "--seed", "5", "lab", "pingpong",
                "--trials", "8", "--words", "4")
        b = run(capsys, "--seed", "5", "lab", "pingpong",
                "--trials", "8", "--words", "4")
        assert a == b
