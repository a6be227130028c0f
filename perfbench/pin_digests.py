"""Record the sha256 of cli-mix stdout, so runs can enforce identical bytes.

    python3 perfbench/pin_digests.py

Pins the stdout of the reference block and of the first block of seeds
0..99.  A run of the cli-mix workload hashes the stdout of the reference
block it warms up on and of the first block of its pool; it fails when the
reference digest is missing or differs, or when the seed's digest differs.
Regenerate only at a commit whose CLI output is known good: the point of
the pin is that later changes keep the bytes.
"""

from __future__ import annotations

import json
import sys

import worker

PINNED_SEEDS = range(100)


def main() -> int:
    import workloads

    wl, _, _ = worker.setup("cli-mix")
    seeds = [("reference", workloads.REFERENCE_SEED)] + [(str(s), s) for s in PINNED_SEEDS]
    found = {}
    for key, seed in seeds:
        block = wl.build_pool(seed, 1)
        found[key] = worker.stdout_digest(worker.run_ops(wl, block, len(block)).kept)
    with open(worker.PINNED, "w") as fh:
        json.dump({"cli-mix": found}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
