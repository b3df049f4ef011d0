#!/usr/bin/env python3
"""Rewrite pinned_inputs.json from the inputs the generators produce now.

Run this only when the inputs were changed on purpose (a new workload size,
a fixed generator); a digest that moved for any other reason is the drift
the pins exist to catch.

    python3 benchmarks/serving/pin_inputs.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent.parent / "src"), str(HERE)]

PINNED_SEEDS = range(1, 21)


def main() -> int:
    from serving_bench import report, workloads

    with open(report.BENCHMARK_JSON) as fh:
        seconds = float(json.load(fh)["run_seconds"])
    pinned = {"seconds": seconds, "workloads": {}}
    for name, spec in workloads.SPECS.items():
        digests = {}
        for seed in PINNED_SEEDS:
            built = workloads.build_inputs(spec, seed, seconds)
            digests[str(seed)] = built.input_digest
        pinned["workloads"][name] = {
            "dataset_digest": built.dataset_digest,
            "input_digest": digests,
        }
        print(f"{name}: dataset {built.dataset_digest[:16]}  {len(digests)} seeds")
    with open(report.PINNED_JSON, "w") as fh:
        json.dump(pinned, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
