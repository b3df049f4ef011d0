#!/usr/bin/env python
"""Serving one resident graph from many clients at once.

What this example shows
-----------------------

``ConcurrentSessionServer`` fronts one resident
:class:`~repro.session.SimulationSession` with a reader-writer protocol:

* **many clients read at once** -- every in-flight ``submit()``/``run()``
  proceeds concurrently under a shared read lock;
* **writes wait for a quiescent point** -- each batch is applied under its
  own write hold, one batch at a time and only while no query is in
  flight, so a query can never observe half of a batch;
* **every answer is stamped** -- ``result.stamp`` is the number of mutations
  the graph had absorbed when the query ran.  A result stamped ``s`` equals
  a from-scratch simulation on the graph after its first ``s`` updates:
  clients can reason about exactly which version of the world they saw.

Two backends behind the same API and the same result cache; the backend
only decides where a cache miss computes:

* ``backend="thread"`` (used below, works everywhere): in process, with
  overlap and fairness; compute stays GIL-bound.
* ``backend="sharded"``: the paper's site model -- a pool of OS worker
  processes each owning only its ring-assigned fragments, this server as
  coordinator; ``server.shard_stats()`` reports what each worker holds
  (``tests/session/test_sharding.py`` pins it per worker).

Run:  python examples/concurrent_query_server.py
"""

import random
import threading
import time

from repro import ConcurrentSessionServer, partition, simulation, web_graph
from repro.bench.workloads import cyclic_pattern
from repro.graph.mutations import DeleteEdge, InsertEdge


def main() -> None:
    graph = web_graph(1500, 7500, n_labels=10, seed=31)
    fragmentation = partition(graph, n_fragments=8, seed=31, vf_ratio=0.25)
    initial = graph.copy()  # kept aside to audit snapshot stamps at the end
    print(f"resident graph: {fragmentation!r}")

    hot = [cyclic_pattern(graph, n_nodes=3, n_edges=4, seed=s) for s in range(4)]
    audited = []  # (query index, StampedResult) pairs, appended by clients

    with ConcurrentSessionServer(
        fragmentation, backend="thread", n_workers=4
    ) as server:
        # --- a handful of reader "clients" and one mutating "feed" ------
        def client(cid: int) -> None:
            rng = random.Random(cid)
            for _ in range(12):
                qi = rng.randrange(len(hot))
                result = server.run(hot[qi], algorithm="dgpm")
                audited.append((qi, result))

        def feed() -> None:
            rng = random.Random(99)
            deleted = []
            for step in range(10):
                if step % 4 == 3 and deleted:
                    u, v = deleted.pop()
                    server.apply([InsertEdge(u, v)])
                else:
                    edges = list(graph.edges())
                    u, v = edges[rng.randrange(len(edges))]
                    server.apply([DeleteEdge(u, v)])
                    deleted.append((u, v))

        t0 = time.perf_counter()
        threads = [threading.Thread(target=client, args=(c,)) for c in range(4)]
        threads.append(threading.Thread(target=feed))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0

        stats = server.stats
        print(
            f"served {stats.queries_served} queries ({stats.hit_rate:.0%} from "
            f"cache) while absorbing {server.stamp} mutations in {wall:.2f}s"
        )

        # --- audit the snapshot contract --------------------------------
        # The resident graph now sits at the final stamp; every result that
        # reports it must equal a from-scratch oracle on the current graph.
        # (The stress suite replays *every* stamp; this is the cheap check.)
        stamps = sorted({r.stamp for _, r in audited})
        oracle = {}
        checked = 0
        for qi, result in audited:
            if result.stamp == server.stamp:
                if qi not in oracle:
                    oracle[qi] = simulation(hot[qi], graph)
                assert result.relation == oracle[qi]
                checked += 1
        print(
            f"stamps observed by clients: {stamps}; audited {checked} "
            f"final-stamp answers against the from-scratch oracle: ok"
        )
        assert graph.n_edges < initial.n_edges  # the feed really mutated

    print("server closed cleanly")


if __name__ == "__main__":
    main()
