#!/usr/bin/env python3
"""Open-loop TCP serving benchmark: one command, every metric by name.

    python3 benchmarks/serving/run.py --workload hot_reads --seed 1
    python3 benchmarks/serving/run.py --workload churn_subs --trace 1
    python3 benchmarks/serving/run.py --smoke            # all four, 5 s each

Starts the server under test as a subprocess, drives it over loopback TCP
from this process (one asyncio thread, two connections), checks every
answer against the centralized oracle and prints the metrics; the last
line of standard output is one JSON object for the driver.  See README.md
in this directory for the glossary and how to read the numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None, help="one of the four workload names (default: all)")
    parser.add_argument("--seed", type=int, default=1, help="draws the traffic; same seed, same inputs")
    parser.add_argument("--seconds", type=float, default=None, help="measured time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1), help="1: the traced per-layer run instead of the end-to-end run")
    parser.add_argument("--out", default=None, help="file for the full JSON report (default: benchmarks/serving/out/)")
    parser.add_argument("--smoke", action="store_true", help="5 s phases and one set-up; not for claims")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # The traced run measures the inner rungs in this process; give it
        # the same fixed str-hash salt the server subprocess gets (sut.py).
        os.environ["PYTHONHASHSEED"] = "0"
        rest = sys.argv[1:] if argv is None else list(argv)
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *rest])
    try:
        from serving_bench import report, sut, workloads
    except ImportError as exc:
        print(f"cannot import the server under test from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not report.BENCHMARK_JSON.exists():
        print(f"{report.BENCHMARK_JSON} is missing", file=sys.stderr)
        return 2
    from serving_bench import session_run

    names = [args.workload] if args.workload else list(workloads.SPECS)
    unknown = [name for name in names if name not in workloads.SPECS]
    if unknown:
        print(f"unknown workload {unknown[0]!r} (known: {', '.join(workloads.SPECS)})", file=sys.stderr)
        return 2
    with open(report.BENCHMARK_JSON) as fh:
        run_seconds = json.load(fh)["run_seconds"]
    seconds = args.seconds if args.seconds is not None else (5.0 if args.smoke else float(run_seconds))

    sut.install_reaper()
    status = 0
    for name in names:
        out = Path(args.out) if args.out and len(names) == 1 else None
        status |= session_run.run_workload(
            workloads.SPECS[name], seed=args.seed, seconds=seconds,
            trace=bool(args.trace), smoke=args.smoke, out=out,
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
