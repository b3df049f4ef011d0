#!/usr/bin/env python
"""A query server whose graph changes underneath it -- without dropping caches.

The highly-dynamic serving scenario: a fragmented social/web graph stays
resident at its sites while *both* queries and updates stream in.  One
:class:`~repro.session.SimulationSession` is the read and the write path:

* hot queries are answered from the LRU cache; the first update that may
  change a hot answer gives it a warm incremental state (the paper's
  Section-4.2 incremental lEval, kept alive per query) -- reads build none;
* ``session.apply([DeleteEdge(u, v)])``, the one write call, patches the
  fragmentation in place -- fragment subgraphs, ``Fi.O``/``Fi.I`` metadata,
  watcher tables -- and repairs the warm answers through the affected area
  only (``O(|AFF|)``);
* cached entries that the update provably cannot touch (no query edge
  carries the deleted edge's label pair) are simply kept;
* an insertion re-evaluates only the affected warm entries.

``Fragmentation.validate()`` holds after every update, and every answer
stays equal to a from-scratch centralized oracle.

Run:  python examples/mutating_query_server.py
"""

import random
import time

from repro import SimulationSession, partition, simulation, web_graph
from repro.bench.workloads import cyclic_pattern
from repro.graph.mutations import DeleteEdge, InsertEdge


def main() -> None:
    graph = web_graph(2000, 10000, n_labels=12, seed=23)
    fragmentation = partition(graph, n_fragments=8, seed=23, vf_ratio=0.25)
    print(f"resident graph: {fragmentation!r}")

    session = SimulationSession(fragmentation).warm()
    hot = [cyclic_pattern(graph, n_nodes=3, n_edges=4, seed=s) for s in range(3)]

    # Serve the hot set twice: the second pass hits the cache, which makes
    # the queries hot -- and builds nothing yet.
    for _ in range(2):
        session.run_many(hot, algorithm="dgpm")

    # Interleave live updates with queries: mostly unfollows (deletions),
    # some of them later undone (insertions).
    rng = random.Random(23)
    relevant = {(q.label(a), q.label(b)) for q in hot for a, b in q.edges()}
    deleted = []
    t0 = time.perf_counter()
    for step in range(40):
        if step % 5 == 4 and deleted:
            u, v = deleted.pop(rng.randrange(len(deleted)))
            session.apply([InsertEdge(u, v)])
        else:
            edges = [
                (u, v)
                for u, v in graph.edges()
                if (graph.label(u), graph.label(v)) in relevant
            ] if step % 2 == 0 else list(graph.edges())
            u, v = edges[rng.randrange(len(edges))]
            outcome = session.apply([DeleteEdge(u, v)])[0]
            deleted.append((u, v))
            if step == 0:
                print("hot queries warmed by the first relevant update: "
                      f"{session.stats.entries_promoted} incremental state(s) live")
            if outcome.cache_repaired:
                print(
                    f"  step {step:>2}: delete ({u}, {v}) changed "
                    f"{outcome.cache_repaired} hot answer(s) -- repaired in "
                    f"place (|AFF| ~ {outcome.falsified})"
                )
        session.run(hot[step % len(hot)], algorithm="dgpm")
    elapsed = time.perf_counter() - t0

    stats = session.stats
    print(f"\nprocessed 40 mutations + 40 queries in {elapsed:.3f}s "
          f"({80 / elapsed:.0f} ops/sec)")
    print(f"cache maintenance: {stats.entries_kept} kept, "
          f"{stats.entries_repaired} repaired, {stats.entries_evicted} evicted, "
          f"{stats.entries_promoted} promoted to warm, "
          f"{stats.invalidations} full invalidations")
    print(f"hit rate while mutating: {stats.hit_rate:.0%}")

    # The invariants and the answers survive the whole stream.
    fragmentation.validate()
    for q in hot:
        assert session.run(q, algorithm="dgpm").relation == simulation(q, graph)
    print("Section-2.2 invariants valid; all answers equal the centralized oracle  [ok]")


if __name__ == "__main__":
    main()
