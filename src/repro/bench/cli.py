"""``python -m repro.bench``: the one way the paper's experiments run.

Runs the named experiments (or ``--all``) and emits one JSON record -- per
experiment, x-value and algorithm the instance shape and, per query, the
exact rounds / messages / DS counters, with PT and wall time beside them.
``BENCH_PAPER.json`` at the repository root is the committed ``--all``
output; ``--check`` re-derives and fails on any counter that moved.

Examples
--------
::

    python -m repro.bench 6ab table1
    python -m repro.bench --all --out BENCH_PAPER.json
    python -m repro.bench --all --check BENCH_PAPER.json
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Callable, Dict, List, Optional

from repro.bench import figures
from repro.bench.harness import ExperimentSeries, drift
from repro.bench.smoke import write_record

#: experiment id -> callable(scale) returning its series
EXPERIMENTS: Dict[str, Callable[[float], ExperimentSeries]] = {
    "6ab": figures.fig6_ab_vary_fragments,
    "6cd": figures.fig6_cd_vary_query,
    "6ef": figures.fig6_ef_vary_vf,
    "6gh": figures.fig6_gh_vary_diameter,
    "6ij": figures.fig6_ij_vary_fragments_dag,
    "6kl": figures.fig6_kl_vary_vf_dag,
    "6mn": figures.fig6_mn_synthetic_fragments,
    "6op": figures.fig6_op_synthetic_size,
    "ablation": figures.ablation_optimizations,
    "trees": figures.trees_series,
    "table1": figures.table1_bounds,
    # the gadget families come in one size per n: nothing to scale
    "thm1-rounds": lambda scale: figures.theorem1_rounds(),
    "thm1-shipment": lambda scale: figures.theorem1_shipment(),
}


def run_experiments(ids: List[str], scale: float = 1.0) -> dict:
    """The record's payload for ``ids``: JSON-shaped, counters exact."""
    return {
        "scale": scale,
        "experiments": {
            key: dataclasses.asdict(EXPERIMENTS[key](scale)) for key in ids
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Reproduce the experiments of 'Distributed Graph Simulation: "
        "Impossibility and Possibility' (VLDB 2014) as one JSON record.",
        epilog="experiment ids: " + ", ".join(EXPERIMENTS),
    )
    parser.add_argument("ids", nargs="*", metavar="ID", help="experiments to run")
    parser.add_argument("--all", action="store_true", help="run every experiment")
    parser.add_argument(
        "--scale", type=float, default=1.0, metavar="X", help="graph-size multiplier"
    )
    parser.add_argument(
        "--out", metavar="FILE", help="write the record here instead of stdout"
    )
    parser.add_argument(
        "--check", metavar="FILE",
        help="compare every counter with this record; exit 1 on any difference",
    )
    args = parser.parse_args(argv)

    # the paper's spelling is accepted too: ``fig6ab`` is ``6ab``
    ids = list(EXPERIMENTS) if args.all else [
        key.lower().removeprefix("fig") for key in args.ids
    ]
    unknown = [key for key in ids if key not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s) {unknown}; ids: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    if not ids:
        parser.print_help()
        return 0

    payload = run_experiments(ids, args.scale)
    if args.out:
        write_record(args.out, "paper", payload)
    elif not args.check:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        print()
    if args.check:
        with open(args.check) as fh:
            committed = json.load(fh)
        held = committed["experiments"]
        expected = {
            "scale": committed.get("scale"),
            "experiments": {key: held[key] for key in ids if key in held},
        }
        lines = drift(expected, payload)
        for line in lines:
            print(line)
        if lines:
            print(f"FAIL: {len(lines)} counter(s) differ from {args.check}")
            return 1
        print(f"ok: {len(ids)} experiment(s) reproduce {args.check} exactly")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
