"""tameplane benchmark: one seeded closed-loop workload per run.

    python3 perfbench/run.py --workload tame-roundtrip --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workload runs in a fresh interpreter
(``worker.py``); set-up is timed in further fresh interpreters; a seeded
sample of outputs is checked with sympy after timing.  Human-readable lines
come first; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones from a traced run.
Exit status: 0 when every check passed, 1 when a check failed, 2 when the
benchmark could not run at all (nothing is printed on stdout then).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("tame-roundtrip", "shear-matrix", "matrix-peel", "cli-mix")
# fresh-interpreter set-ups per run, counting the worker's own
SETUP_SPAWNS = {"cli-mix": 5}
DEFAULT_SETUP_SPAWNS = 11
WORKER_TIMEOUT_S = 150
# the layer self times must account for at least this share of traced op time
MIN_COVERAGE = 0.5


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def worker(args: list, timeout: float) -> dict:
    """Run worker.py in a fresh interpreter and parse its last stdout line."""
    proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError("worker %s exited %d:\n%s" % (" ".join(args), proc.returncode,
                                                         proc.stderr[-4000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(backend: str) -> dict:
    lines = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    lines += sum(1 for _ in fh)
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "python": platform.python_version(),
        "rational_backend": backend,
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "src_lines": lines,
    }


def run_oracle(records: list) -> list:
    import oracle

    return [msg for msg in map(oracle.check, records) if msg]


def worker_args(args) -> list:
    return ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]


def end_to_end(args) -> tuple:
    """Timed run, set-up spawns and the oracle:
    (result, metrics, problems, warnings, notes)."""
    res = worker(worker_args(args), WORKER_TIMEOUT_S)
    spawns = [res] + [worker(worker_args(args) + ["--setup-only"], 60)
                      for _ in range(SETUP_SPAWNS.get(args.workload, DEFAULT_SETUP_SPAWNS) - 1)]
    setups = [r["setup_s"] for r in spawns]
    nominal_setups = [r["setup_s"] * r["setup_scale"] for r in spawns]
    disagreements = run_oracle(res["oracle"])
    metrics = {
        "ops_per_s": res["ops_per_s"],
        "op_p50_ms": res["op_p50_ms"],
        "op_p90_ms": res["op_p90_ms"],
        "setup_s": statistics.median(nominal_setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    problems = list(res["failures"]) + disagreements
    warnings = []
    if args.workload == "cli-mix":
        if not res["reference_pinned"]:
            problems.append("reference block: cli-mix stdout differs from the pinned bytes"
                            " (or no digest is pinned)")
        if res["stdout_pinned"] is False:
            problems.append("seed %d: cli-mix stdout differs from the pinned bytes" % args.seed)
        elif res["stdout_pinned"] is None:
            warnings.append("seed %d has no pinned cli-mix digest; only the reference block's"
                            " stdout is checked for identical bytes" % args.seed)
    notes = {
        "fail_ratio": res["failed"] / res["attempted"],
        "ops": res["ops"],
        "blocks": res["blocks"],
        "calls": res["calls"],
        "elapsed_s": res["elapsed_s"],
        "measured_p50_ms": res["measured_p50_ms"],
        "measured_p90_ms": res["measured_p90_ms"],
        "calibration_ms": res["calibration_ms"],
        "beyond_p90": res["beyond_p90"],
        "beyond_p90_classes": res["beyond_p90_classes"],
        "setup_samples_s": setups,
        "setup_measured_s": statistics.median(setups),
        "oracle_checked": len(res["oracle"]),
        "slowest_op": res["slowest"],
        "generate_s": res["generate_s"],
    }
    for key in ("stdout_sha256", "stdout_pinned", "reference_sha256", "reference_pinned"):
        if key in res:
            notes[key] = res[key]
    return res, metrics, problems, warnings, notes


def traced(args) -> tuple:
    res = worker(worker_args(args) + ["--trace"], WORKER_TIMEOUT_S)
    layers = res["layers"]
    problems = list(res["failures"])
    coverage = layers["trace.coverage"]
    if not MIN_COVERAGE <= coverage <= 1.0 + 1e-9:
        problems.append("layer self times cover %.3f of the traced op time" % coverage)
    notes = {key: res[key] for key in
             ("trace_ops", "trace_op_s", "untraced_s", "traced_s", "bookkeeping_s")}
    return res, layers, problems, [], notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tameplane", "__init__.py")):
        print("error: no tameplane sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    try:
        bench = spec()
        res, values, problems, warnings, notes = (traced if args.trace else end_to_end)(args)
    except (OSError, RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    names = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    env = environment(res["backend"])
    print("workload %s seed %d trace %d" % (args.workload, args.seed, args.trace))
    for key, value in env.items():
        print("env %s %s" % (key, value))
    for name, m in metrics.items():
        print("metric %-36s %14.6g %s" % (name, m["value"], m["unit"]))
    for key, value in notes.items():
        print("note %s %s" % (key, json.dumps(value)))
    for msg in warnings:
        print("WARN %s" % msg)
    for msg in problems:
        print("FAIL %s" % msg)
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
