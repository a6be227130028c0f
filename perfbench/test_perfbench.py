"""The benchmark's own tests: every metric is emitted with its unit, and a
wrong answer is counted as a failure.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import oracle  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = tuple(workloads.WORKLOADS)


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_bench(*args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(name, trace):
    # a run this short gets a one-block pool
    code, out, err = run_bench("--workload", name, "--seed", "3", "--seconds", "0.2",
                               "--trace", str(trace))
    assert code == 0, err
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = bench_spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def _untraced(name, seconds=0.0):
    wl, setup_s, _ = worker.setup(name)
    args = argparse.Namespace(seed=5, seconds=seconds)
    return worker.run_untraced(wl, args, setup_s)


@pytest.mark.parametrize("name, target, wrong", [
    # the inverse is the map itself: map o inverse is not the identity
    ("tame-roundtrip", "invert", lambda g: g),
    # the matrix of every word is the identity
    ("shear-matrix", "to_matrix", lambda a: workloads.PolyMat2.identity(workloads.QQ)),
    # peeling finds no factors
    ("matrix-peel", "matrix_factor", lambda m: []),
])
def test_injected_wrong_answer_raises_fail_ratio(name, target, wrong, monkeypatch):
    monkeypatch.setattr(workloads, target, wrong)
    res = _untraced(name)
    assert res["attempted"] >= worker.MIN_OPS
    assert res["failed"] / res["attempted"] > 0


def test_cli_exit_code_mismatch_is_a_failure(monkeypatch):
    from tameplane import cli

    monkeypatch.setattr(cli, "_cmd_jacobian", lambda field, args: cli.EXIT_CHECK_FAILED)
    res = _untraced("cli-mix")
    assert 0 < res["failed"] < res["attempted"]


def test_cli_stdout_digest_is_pinned(monkeypatch):
    res = _untraced("cli-mix")
    assert res["failed"] == 0
    assert res["reference_pinned"] is True
    from tameplane import cli

    real_emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda args, command, result, extra=None:
                        real_emit(args, command, result + " " if isinstance(result, str)
                                  else result, extra))
    changed = _untraced("cli-mix")
    assert changed["reference_pinned"] is False


def test_missing_pins_fail_the_reference_check(monkeypatch, tmp_path):
    monkeypatch.setattr(worker, "PINNED", str(tmp_path / "absent.json"))
    res = _untraced("cli-mix")
    assert res["reference_pinned"] is False
    assert res["stdout_pinned"] is None


def test_costs_are_scaled_by_the_calibration_around_them(monkeypatch):
    # a host running at half the nominal speed: every calibration loop
    # takes twice the nominal time, so costs are half the measured times
    monkeypatch.setattr(worker, "calibration_ns", lambda: 2 * worker.CAL_NOMINAL_NS)
    wl, _, _ = worker.setup("matrix-peel")
    pool = wl.build_pool(5, 1)
    _, tally, costs, measured, block_cal = worker.timed_loop(wl, pool, 0.0, 0)
    assert len(tally.latencies) == worker.REPEATS * len(costs) == worker.REPEATS * len(pool)
    assert block_cal == [2 * worker.CAL_NOMINAL_NS]
    assert all(abs(c - m / 2) <= 1 for c, m in zip(costs, measured))


def test_oracle_rejects_a_wrong_inverse():
    # (x + y^2, y) over Q: (x - y^2, y) inverts it, the map itself does not
    m = [[[1, 0, 1, 1], [0, 2, 1, 1]], [[0, 1, 1, 1]]]
    good = [[[1, 0, 1, 1], [0, 2, -1, 1]], [[0, 1, 1, 1]]]
    assert oracle.check({"check": "inverse", "p": 0, "map": m, "inverse": good}) is None
    assert oracle.check({"check": "inverse", "p": 0, "map": m, "inverse": m})
    assert oracle.check({"check": "jacobian_constant", "p": 5, "map": m}) is None
    # det of (1 + t, 0; 0, 1) is not 1
    bad = [[[0, 1, 1], [1, 1, 1]], [], [], [[0, 1, 1]]]
    assert oracle.check({"check": "det_one", "p": 0, "matrix": bad})


def test_oracle_parses_cli_text():
    record = {"check": "cli_inverse", "field": "fp:5", "format": "text",
              "map": "x + 2*y^2, y", "stdout": "x + 3*y^2, y\n"}
    assert oracle.check(record) is None
    record["stdout"] = "x + 2*y^2, y\n"
    assert oracle.check(record)


def test_runs_refuse_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith((".py", ".json")):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    (tmp_path / "BENCHMARK.json").write_bytes(open(os.path.join(ROOT, "BENCHMARK.json"),
                                                   "rb").read())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "matrix-peel",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
