"""End-to-end command line behavior, run in process."""

import json
import time

import pytest

from tameplane.cli import main


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
            "[]",
            "not json",
        ]
        deep = "(" * 300 + "x" + ")" * 300
        for argv in (
            *(("nf", "--json", doc) for doc in malformed_words),
            ("compose", deep + ", y"),
            ("compose", "-" * 1000 + "x, y"),
            ("from-matrix", "1, " + deep.replace("x", "t") + " ; 0, 1"),
        ):
            code, _, err = run(capsys, *argv)
            assert code == 2 and "parse error" in err, argv
            assert "Traceback" not in err

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
        code, _, err = run(capsys, "from-matrix", "1+t, 0 ; 0, 1")
        assert code == 3

    def test_failing_lab_suite_is_1(self, capsys):
        code, out, _ = run(capsys, "lab", "pgroup", "--p", "2", "--r", "2")
        assert code == 1 and "FAIL" in out


class TestJsonl:
    def test_result_documents_are_single_lines(self, capsys):
        code, out, _ = run(capsys, "--format", "jsonl", "invert", "y+x^2, x")
        assert code == 0
        doc = json.loads(out)
        assert doc == {"command": "invert", "field": "q", "result": "y, x - y^2"}

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


class TestDeterminism:
    def test_same_seed_same_bytes(self, capsys):
        a = run(capsys, "--seed", "5", "lab", "pingpong",
                "--trials", "8", "--words", "4")
        b = run(capsys, "--seed", "5", "lab", "pingpong",
                "--trials", "8", "--words", "4")
        assert a == b
