"""Cut quality and online repartitioning: the partition-performance gates.

The paper's cost model (Section 6) charges message volume and response
time to the boundary ``|Fi.O| + |Fi.I|``, i.e. to crossing edges; this
benchmark enforces that our cut-minimizing partitioner actually buys the
reduction, and that buying it *at runtime* pays for itself on a live
server.  Two gates:

* **Cut gate** -- on the power-law ``web_graph`` workload at ``|F| = 16``,
  ``min_cut_partition`` must leave at most ``0.6x`` the crossing edges of
  ``hash_partition``.

* **Rebalance gate** -- drive a skewed hot-region stream (edge churn plus
  queries, all concentrated on the preferential-attachment hub region)
  through a sharded server fragmented by ``hash_partition``, call
  ``rebalance()`` (traffic-weighted, from the live counters the stream
  itself populated), replay the stream, and require ``>= 1.2x`` ops/s.
  The win is structural, not parallelism: a lower cut shrinks mutation
  cascades, watcher fan-out, and shipped boundary state, so it holds on a
  single CPU.  Answers are parity-checked against a from-scratch
  simulation after the stream (deletes are paired with re-inserts, so the
  graph ends unchanged).

Run ``python benchmarks/bench_partition.py [--smoke] [--out FILE]``; CI runs
``--smoke``.
"""

import time
from typing import Dict, List

from repro import ConcurrentSessionServer, hash_partition, simulation, web_graph
from repro.bench.smoke import write_record
from repro.bench.workloads import cyclic_pattern
from repro.graph.mutations import DeleteEdge, InsertEdge
from repro.partition.metrics import partition_stats
from repro.partition.partitioners import min_cut_partition

CUT_RATIO_GATE = 0.6
REBALANCE_SPEEDUP_GATE = 1.2


def partition_run(
    n_nodes: int = 4000,
    n_edges: int = 20000,
    n_fragments: int = 16,
    n_workers: int = 2,
    n_rounds: int = 30,
    seed: int = 17,
) -> Dict[str, object]:
    """Measure both gates on one generated instance; return the facts."""
    graph = web_graph(n_nodes, n_edges, n_labels=5, seed=seed)
    hash_frag = hash_partition(graph, n_fragments, seed=seed)
    min_frag = min_cut_partition(graph, n_fragments, seed=seed)
    cut_ratio = min_frag.n_crossing_edges / hash_frag.n_crossing_edges

    # The skewed stream: web_graph grows by preferential attachment, so low
    # node ids are the hubs -- edge churn inside that region concentrates
    # traffic on whichever fragments happen to own it.
    hub = max(2, n_nodes // 8)
    hot_edges = [(u, v) for u, v in graph.edges() if u < hub and v < hub]
    if len(hot_edges) < 2 * n_rounds:
        raise ValueError("instance too small for the requested stream length")
    queries = [cyclic_pattern(graph, 3, 4, seed=s) for s in range(6)]

    def drive(server: ConcurrentSessionServer, edges: List) -> float:
        """Ops/s over one pass of the churn+query stream."""
        t0 = time.perf_counter()
        n_ops = 0
        for i, (u, v) in enumerate(edges):
            server.apply([DeleteEdge(u, v)])
            server.apply([InsertEdge(u, v)])
            n_ops += 2
            if i % 5 == 0:
                server.run(queries[i % len(queries)], algorithm="dgpm")
                n_ops += 1
        return n_ops / (time.perf_counter() - t0)

    with ConcurrentSessionServer(
        hash_frag, backend="sharded", n_workers=n_workers
    ) as server:
        server.run(queries[0], algorithm="dgpm")  # warm labels/deps once
        ops_before = drive(server, hot_edges[:n_rounds])
        outcome = server.rebalance()  # traffic-weighted from live counters
        ops_after = drive(server, hot_edges[n_rounds : 2 * n_rounds])
        parity = all(
            server.run(q, algorithm="dgpm").relation == simulation(q, graph)
            for q in queries
        )

    return {
        "n_nodes": n_nodes,
        "n_edges": n_edges,
        "n_fragments": n_fragments,
        "n_workers": n_workers,
        "n_rounds": n_rounds,
        "cut_hash": hash_frag.n_crossing_edges,
        "cut_min": min_frag.n_crossing_edges,
        "cut_ratio": cut_ratio,
        "boundary_hash": partition_stats(hash_frag).total_boundary,
        "boundary_min": partition_stats(min_frag).total_boundary,
        "rebalance_cut_before": outcome.cut_before,
        "rebalance_cut_after": outcome.cut_after,
        "rebalance_moved": outcome.moved,
        "rebalance_wall_seconds": outcome.wall_seconds,
        "ops_before": ops_before,
        "ops_after": ops_after,
        "speedup": ops_after / ops_before,
        "parity": parity,
    }


def render(run: Dict[str, object]) -> str:
    return "\n".join(
        [
            "cut-minimizing partitioner + online rebalance "
            f"(|F|={run['n_fragments']}, {run['n_nodes']} nodes / "
            f"{run['n_edges']} edges, {run['n_workers']} workers)",
            f"  crossing edges: hash {run['cut_hash']} -> "
            f"min_cut {run['cut_min']} "
            f"(ratio {run['cut_ratio']:.3f}, gate <= {CUT_RATIO_GATE})",
            f"  total boundary: hash {run['boundary_hash']} -> "
            f"min_cut {run['boundary_min']}",
            f"  rebalance(): cut {run['rebalance_cut_before']} -> "
            f"{run['rebalance_cut_after']}, moved {run['rebalance_moved']} "
            f"nodes in {run['rebalance_wall_seconds']:.2f}s",
            f"  skewed stream: {run['ops_before']:.1f} -> "
            f"{run['ops_after']:.1f} ops/s "
            f"(speedup {run['speedup']:.2f}x, gate >= "
            f"{REBALANCE_SPEEDUP_GATE})",
            f"  parity:       {'ok' if run['parity'] else 'FAIL'}",
        ]
    )


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="CI-sized run")
    parser.add_argument("--nodes", type=int, default=6000)
    parser.add_argument("--edges", type=int, default=30000)
    parser.add_argument("--fragments", type=int, default=16)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--rounds", type=int, default=40)
    parser.add_argument("--out", metavar="FILE", help="write the record here")
    args = parser.parse_args(argv)
    if args.smoke:
        args.nodes, args.edges, args.rounds = 4000, 20000, 30

    run = partition_run(
        n_nodes=args.nodes,
        n_edges=args.edges,
        n_fragments=args.fragments,
        n_workers=args.workers,
        n_rounds=args.rounds,
    )
    print(render(run))
    failures: List[str] = []
    if not run["parity"]:
        failures.append("answer parity violated")
    if run["cut_ratio"] > CUT_RATIO_GATE:
        failures.append(
            f"cut ratio {run['cut_ratio']:.3f} > {CUT_RATIO_GATE}"
        )
    if run["speedup"] < REBALANCE_SPEEDUP_GATE:
        failures.append(
            f"rebalance speedup {run['speedup']:.2f}x < {REBALANCE_SPEEDUP_GATE}"
        )
    if args.out:
        write_record(
            args.out,
            "partition",
            {
                "smoke": args.smoke,
                "ok": not failures,
                "cut_gate": CUT_RATIO_GATE,
                "speedup_gate": REBALANCE_SPEEDUP_GATE,
                **run,
            },
        )
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
