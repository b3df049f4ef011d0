#!/usr/bin/env python3
"""Run the benchmark the way the driver does and record the spread.

    python3 benchmarks/serving/calibrate.py --runs 10 --first-seed 1 \
        --out benchmarks/serving/calibration/set-a.json

For every workload: ``--runs`` end-to-end runs, each with another seed.  Per
end-to-end metric the file keeps every value, the median, and the distance
between the first and third quartile as a share of the median -- the
number that has to stay within the metric's ``bound`` in BENCHMARK.json.
The committed files under ``calibration/`` are the runs the bounds rest on.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def one_run(command, workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=str(ROOT), capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}:\n{done.stdout[-2000:]}\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*", default=None)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    document = {"run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in names:
        runs = [one_run(bench["command"], workload, seed, bench["run_seconds"], 0) for seed in seeds]
        entry = {"wall_s": [r["wall_s"] for r in runs], "failed": [r["failed"] for r in runs], "metrics": {}}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            entry["metrics"][metric] = {
                "values": values, "median": median, "spread": spread, "bound": bound,
            }
            print(f"{workload:<14} {metric:<18} median {median:10.4f}  spread {spread:6.3f}  bound {bound:.2f}"
                  f"  {'ok' if spread <= bound / 3 else 'WIDE' if spread <= bound else 'OVER'}")
        print(f"{workload:<14} wall per run: median {statistics.median(entry['wall_s']):.1f} s, max {max(entry['wall_s']):.1f} s")
        sys.stdout.flush()
        document["workloads"][workload] = entry
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        json.dump(document, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
