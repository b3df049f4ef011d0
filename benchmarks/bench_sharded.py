"""Per-worker memory of the sharded backend: the fragment-ownership gate.

The whole point of ``backend="sharded"`` is that a worker holds only its
*owned* fragments -- the paper's site model -- so per-worker memory scales
with ``|F|/n`` rather than ``|F|``.  This benchmark spawns two sharded
pools over the same 8000-node/32000-edge web graph at ``|F| = 16`` -- one
worker owning all 16 fragments, then 4 workers owning 4 each -- with the
``spawn`` start method (no copy-on-write sharing: every page a worker holds
is its own, so ``VmHWM`` is honest), serves the same query stream through
each, and compares per-worker peak RSS.

Gate: **max per-worker peak RSS at 4 workers < 0.6x the single worker's**,
with answers parity-checked against a from-scratch simulation.
Workers report their own peak RSS through ``shard_stats()``; where a worker
cannot read it the gate degrades to parity-only, loudly reported.

Run ``python benchmarks/bench_sharded.py [--smoke]``; CI runs ``--smoke``.
"""

from typing import Dict, List

from repro import ConcurrentSessionServer, hash_partition, simulation, web_graph
from repro.bench.smoke import record_smoke
from repro.bench.workloads import cyclic_pattern

RSS_RATIO_GATE = 0.6


def sharded_memory_run(
    n_nodes: int = 8000,
    n_edges: int = 32000,
    n_fragments: int = 16,
    n_workers: int = 4,
    n_queries: int = 6,
    seed: int = 17,
) -> Dict[str, object]:
    """Serve one stream through both pool widths; return parity + RSS facts."""
    graph = web_graph(n_nodes, n_edges, n_labels=5, seed=seed)
    frag = hash_partition(graph, n_fragments, seed=seed)
    queries = [cyclic_pattern(graph, 3, 4, seed=s) for s in range(n_queries)]
    oracles = [simulation(q, graph) for q in queries]

    def drive(workers: int) -> Dict[str, object]:
        with ConcurrentSessionServer(
            frag, backend="sharded", n_workers=workers, mp_context="spawn"
        ) as server:
            parity = all(
                server.run(q, algorithm="dgpm").relation == oracle
                for q, oracle in zip(queries, oracles)
            )
            # each worker reports its own VmHWM (0 where unreadable)
            rss = [s["peak_rss_kb"] for s in server.shard_stats()]
        return {"parity": parity, "rss_kb": rss}

    single = drive(1)
    sharded = drive(n_workers)
    one_rss = [r for r in single["rss_kb"] if r]
    sh_rss = [r for r in sharded["rss_kb"] if r]
    ratio = (max(sh_rss) / max(one_rss)) if one_rss and sh_rss else None
    return {
        "n_nodes": n_nodes,
        "n_edges": n_edges,
        "n_fragments": n_fragments,
        "n_workers": n_workers,
        "parity": bool(single["parity"] and sharded["parity"]),
        "single_worker_peak_rss_kb": one_rss,
        "sharded_peak_rss_kb": sh_rss,
        "rss_ratio": ratio,
    }


def render(run: Dict[str, object]) -> str:
    lines = [
        "sharded per-worker peak RSS, 1 worker vs "
        f"{run['n_workers']} (|F|={run['n_fragments']}, "
        f"{run['n_nodes']} nodes / {run['n_edges']} edges)",
        f"  1 worker:   {run['single_worker_peak_rss_kb']} kB",
        f"  {run['n_workers']} workers:  {run['sharded_peak_rss_kb']} kB",
        (
            f"  max ratio:  {run['rss_ratio']:.3f} (gate < {RSS_RATIO_GATE})"
            if run["rss_ratio"] is not None
            else "  max ratio:  n/a (workers cannot read their peak RSS here)"
        ),
        f"  parity:     {'ok' if run['parity'] else 'FAIL'}",
    ]
    return "\n".join(lines)


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="CI-sized run")
    parser.add_argument("--nodes", type=int, default=12000)
    parser.add_argument("--edges", type=int, default=48000)
    parser.add_argument("--fragments", type=int, default=16)
    parser.add_argument("--workers", type=int, default=4)
    args = parser.parse_args(argv)
    if args.smoke:
        # Big enough that fragment data dominates the per-process
        # interpreter baseline, small enough for CI seconds.
        args.nodes, args.edges = 8000, 32000

    run = sharded_memory_run(
        n_nodes=args.nodes,
        n_edges=args.edges,
        n_fragments=args.fragments,
        n_workers=args.workers,
    )
    print(render(run))
    failures: List[str] = []
    if not run["parity"]:
        failures.append("answer parity violated")
    if run["rss_ratio"] is None:
        print(
            "note: per-worker RSS is unreadable on this platform -- the "
            "0.6x gate is skipped (parity still enforced)"
        )
    elif run["rss_ratio"] >= RSS_RATIO_GATE:
        failures.append(
            f"max {run['n_workers']}-worker/1-worker RSS ratio {run['rss_ratio']:.3f} "
            f">= {RSS_RATIO_GATE}"
        )
    record_smoke(
        "sharded",
        {
            "smoke": args.smoke,
            "ok": not failures,
            "gate": RSS_RATIO_GATE,
            **run,
        },
    )
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
