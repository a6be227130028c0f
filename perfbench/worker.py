"""One benchmark process: set up, build the seeded pool, run the closed loop.

``run.py`` starts this file in a fresh interpreter, so the process's peak
RSS and its set-up time are the workload's own.  The last line of stdout is
one JSON object that ``run.py`` reads.

    python3 perfbench/worker.py --workload tame-roundtrip --seed 1 --seconds 20
    python3 perfbench/worker.py --workload cli-mix --seed 1 --seconds 20 --setup-only
    python3 perfbench/worker.py --workload matrix-peel --seed 1 --seconds 20 --trace
"""

import time

# a fixed pure-Python loop, timed after every op, measures how fast the
# shared host runs at that moment
CAL_LOOPS = 5000
# calibration loops timed before and after set-up in each fresh interpreter
SETUP_CAL_LOOPS = 20


def calibration_ns() -> int:
    """Time of one pass of the fixed calibration loop."""
    t0 = time.perf_counter_ns()
    s = 0
    for i in range(CAL_LOOPS):
        s += i * i % 7
    return time.perf_counter_ns() - t0


_CAL_BEFORE = [calibration_ns() for _ in range(SETUP_CAL_LOOPS)]
_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

# a run measures at least this many inputs, so at least ten lie beyond p90
MIN_OPS = 100
ORACLE_SAMPLES = 6
# each block of inputs is run this many times over; an input's cost is the
# median of its passes
REPEATS = 3
# the calibration loop's time on the nominal host; op times are scaled to it
CAL_NOMINAL_NS = 400_000
# an op is scaled by the median of the calibration times this many ops
# before and after it
CAL_WINDOW = 5
PINNED = os.path.join(HERE, "pinned_digests.json")


def setup(name):
    """Import what the workload uses and build its fields (and, for the
    CLI, its argument parser); returns the workload and the timings."""
    import workloads

    wl = workloads.WORKLOADS[name]
    t0 = time.perf_counter()
    wl.fields()
    field_s = time.perf_counter() - t0
    if wl.needs_parser:
        from tameplane import cli

        cli.build_parser()
    return wl, time.perf_counter() - _START, field_s


def _call(wl, item, keep):
    """One timed op: (latency in ns, failure message or None)."""
    t0 = time.perf_counter_ns()
    try:
        msg = wl.op(item, keep)
    except Exception as exc:  # an op that raises is a failed op
        msg = "%s: %s" % (type(exc).__name__, exc)
    return time.perf_counter_ns() - t0, msg


def host_scale(samples) -> float:
    """Factor from times measured now to times on the nominal host: the
    nominal calibration time over the median of ``samples``."""
    return CAL_NOMINAL_NS / statistics.median(samples)


class Tally:
    """Latencies, failures and oracle records of a sequence of ops."""

    def __init__(self):
        self.latencies, self.failures, self.kept = [], [], []

    def run(self, wl, item, keep=False) -> int:
        """One op; returns its latency in ns."""
        out = [] if keep else None
        ns, msg = _call(wl, item, out)
        self.latencies.append(ns)
        if msg:
            self.failures.append(msg)
        if out:
            self.kept.append(out)
        return ns


def run_ops(wl, items, keep_first=0) -> Tally:
    """Run ``items`` once each, in order."""
    tally = Tally()
    for i, item in enumerate(items):
        tally.run(wl, item, i < keep_first)
    return tally


def timed_loop(wl, pool, seconds, keep_first):
    """Closed loop, one client: the next op starts when the previous one
    returns.  Each block of the pool is run ``REPEATS`` times over, and a
    calibration loop is timed after every op.  Each op time is scaled to
    the nominal host by the calibration times around it; an input's cost is
    the median of its scaled times.  Runs whole blocks, at least ``seconds``
    and ``MIN_OPS`` inputs, cycling the pool if it runs out.

    Returns (elapsed s, tally, nominal costs in ns, median measured ns,
    median calibration time of each block in ns)."""
    tally = Tally()
    costs, measured, block_cal = [], [], []
    gc.collect()
    start = time.perf_counter()
    deadline = start + seconds
    done = 0
    while done < MIN_OPS or time.perf_counter() < deadline:
        lo = done % len(pool)
        block = pool[lo:lo + wl.block]
        times, cals = [], []
        for rep in range(REPEATS):
            for i, item in enumerate(block):
                times.append(tally.run(wl, item, rep == 0 and done + i < keep_first))
                cals.append(calibration_ns())
        block_cal.append(statistics.median(cals))
        scaled = [t * host_scale(cals[max(0, k - CAL_WINDOW):k + CAL_WINDOW + 1])
                  for k, t in enumerate(times)]
        n = len(block)
        for i in range(n):
            costs.append(statistics.median(scaled[i::n]))
            measured.append(statistics.median(times[i::n]))
        done += n
    return time.perf_counter() - start, tally, costs, measured, block_cal


def stdout_digest(kept) -> str:
    h = hashlib.sha256()
    for records in kept:
        for rec in records:
            if rec["check"] == "cli_stdout":
                h.update(rec["stdout"].encode())
    return h.hexdigest()


def _poly_terms(p):
    """Coefficients as [i, (j,) num, den] rows; F_p residues have den 1."""
    rows = []
    for key, c in sorted(p.terms.items()):
        key = list(key) if isinstance(key, tuple) else [key]
        if hasattr(c, "value"):
            rows.append(key + [c.value, 1])
        else:
            rows.append(key + [c.numerator, c.denominator])
    return rows


def _auto_doc(a):
    return [_poly_terms(a.p), _poly_terms(a.q)]


def oracle_records(kept, seed):
    """A seeded sample of kept outputs, in plain JSON for the sympy oracle.
    Only maps of degree <= 6 over Q or F_p are sampled, so that sympy's
    expansion of map o inverse stays within seconds."""
    from tameplane.scalars import QQ, PrimeField

    candidates = []
    for records in kept:
        for rec in records:
            check = rec["check"]
            if check == "cli_stdout":
                continue
            if check == "cli_inverse":
                candidates.append(dict(rec))
                continue
            field = (rec.get("map") or rec.get("matrix")).field
            if field is not QQ and not isinstance(field, PrimeField):
                continue
            doc = {"check": check, "p": 0 if field is QQ else field.p}
            if check == "det_one":
                doc["matrix"] = [_poly_terms(e) for e in rec["matrix"].entries()]
            else:
                autos = [rec["map"]] + ([rec["inverse"]] if check == "inverse" else [])
                if max(a.max_degree() for a in autos) > 6:
                    continue
                doc["map"] = _auto_doc(rec["map"])
                if check == "inverse":
                    doc["inverse"] = _auto_doc(rec["inverse"])
            candidates.append(doc)
    rng = random.Random(seed * 7919 + 17)
    return rng.sample(candidates, min(ORACLE_SAMPLES, len(candidates)))


def percentile_ms(latencies, q):
    return statistics.quantiles(latencies, n=100, method="inclusive")[q - 1] / 1e6


def pinned_digests(name) -> dict:
    """The pinned stdout digests of a workload; none when the file is gone."""
    try:
        with open(PINNED) as fh:
            return json.load(fh).get(name, {})
    except FileNotFoundError:
        return {}


def run_untraced(wl, args, setup_s):
    import workloads

    t0 = time.perf_counter()
    pool = wl.build_pool(args.seed, wl.pool_blocks(args.seconds))
    reference = wl.build_pool(workloads.REFERENCE_SEED, 1)[:wl.warmup]
    generate_s = time.perf_counter() - t0

    # warm-up on the fixed reference inputs; their CLI stdout must match
    # the pinned bytes on every run, whatever the seed
    warm = run_ops(wl, reference, len(reference))
    elapsed, tally, costs, measured, block_cal = timed_loop(wl, pool, args.seconds, wl.block)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    p90 = percentile_ms(costs, 90)
    # throughput of each complete block of the pool (same size classes in
    # the same order, whatever the seed)
    blocks = [wl.block * 1e9 / sum(costs[i:i + wl.block]) for i in range(0, len(costs), wl.block)]
    slow = max(range(len(measured)), key=measured.__getitem__)
    tail = Counter(" ".join(map(str, wl.key(pool[i % len(pool)])))
                   for i, v in enumerate(costs) if v / 1e6 > p90)
    out = {
        "setup_s": setup_s,
        "generate_s": generate_s,
        "elapsed_s": elapsed,
        "attempted": len(tally.latencies) + len(warm.latencies),
        "failed": len(tally.failures) + len(warm.failures),
        "failures": (warm.failures + tally.failures)[:5],
        "ops": len(costs),
        "calls": len(tally.latencies),
        "ops_per_s": statistics.median(blocks),
        "blocks": len(blocks),
        "op_p50_ms": statistics.median(costs) / 1e6,
        "op_p90_ms": p90,
        "measured_p50_ms": statistics.median(measured) / 1e6,
        "measured_p90_ms": percentile_ms(measured, 90),
        "calibration_ms": [round(c / 1e6, 4) for c in block_cal],
        "beyond_p90": sum(tail.values()),
        "beyond_p90_classes": dict(tail.most_common()),
        "peak_rss_mb": peak_rss_mb,
        "slowest": {"ms": measured[slow] / 1e6, "input": wl.label(pool[slow % len(pool)])},
        "oracle": oracle_records(tally.kept, args.seed),
        "backend": _backend(),
    }
    if wl.name == "cli-mix":
        # the reference block must always match; a seed may have no pin
        pinned = pinned_digests(wl.name)
        digest = stdout_digest(tally.kept)
        reference_digest = stdout_digest(warm.kept)
        out["stdout_sha256"] = digest
        out["stdout_pinned"] = None if str(args.seed) not in pinned else \
            pinned[str(args.seed)] == digest
        out["reference_sha256"] = reference_digest
        out["reference_pinned"] = pinned.get("reference") == reference_digest
    return out


def run_traced(wl, args, field_s):
    """The same fixed items twice: untraced, then traced.  Per-layer
    numbers come from the second pass; the ratio of the passes' wall
    times is the tracing overhead."""
    import tracer as tracer_mod

    blocks = min(wl.pool_blocks(args.seconds), -(-wl.trace_items // wl.block))
    items = wl.build_pool(args.seed, blocks)[:wl.trace_items]
    run_ops(wl, items[:wl.warmup])
    gc.collect()
    t0 = time.perf_counter()
    plain = run_ops(wl, items)
    plain_s = time.perf_counter() - t0
    tracer = tracer_mod.Tracer()
    tracer.install(HERE)
    gc.collect()
    t0 = time.perf_counter()
    traced = run_ops(wl, items)
    traced_s = time.perf_counter() - t0
    tracer.uninstall()
    op_s = sum(traced.latencies) / 1e9
    layers = tracer.layer_metrics()
    self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    layers.update({
        "scalars.field_setup_s": field_s,
        "trace.overhead": traced_s / plain_s,
        "trace.coverage": self_total / (op_s - tracer.bookkeeping_s),
    })
    return {
        "attempted": len(plain.latencies) + len(traced.latencies),
        "failed": len(plain.failures) + len(traced.failures),
        "failures": (plain.failures + traced.failures)[:5],
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "trace_ops": len(items),
        "trace_op_s": op_s,
        "bookkeeping_s": tracer.bookkeeping_s,
        "layers": layers,
        "backend": _backend(),
    }


def _backend() -> str:
    from tameplane import scalars

    ratio = scalars._ratio
    return "%s.%s" % (getattr(ratio, "__module__", "?"), getattr(ratio, "__name__", repr(ratio)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="run length; the pool is sized for it")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    wl, setup_s, field_s = setup(args.workload)
    if args.trace:
        out = run_traced(wl, args, field_s)
    else:
        # host speed around set-up: just before it and just after it
        scale = host_scale(_CAL_BEFORE + [calibration_ns() for _ in range(SETUP_CAL_LOOPS)])
        out = {"setup_s": setup_s, "setup_scale": scale} if args.setup_only else \
            run_untraced(wl, args, setup_s) | {"setup_scale": scale}
    sys.stdout.write(json.dumps(out, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
