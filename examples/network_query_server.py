#!/usr/bin/env python
"""A real client/server topology on localhost: one graph, many sockets.

What this example shows
-----------------------

``repro.net`` puts the concurrent serving stack behind a TCP socket:

* the **server** is an asyncio ingress (started here on a background
  thread via :func:`repro.net.serve_in_thread`) fronting a
  :class:`~repro.session.ConcurrentSessionServer` over one resident
  fragmentation;
* a **sync client** (:class:`~repro.net.SessionClient`) issues queries over
  a blocking connection, the way a worker thread in another service would;
* an **asyncio client** (:class:`~repro.net.AsyncSessionClient`) pipelines
  a whole batch of queries on a single connection --
  ``asyncio.gather`` overlaps them, replies arrive in completion order and
  are matched back by sequence number;
* a **mutation feed** (a second sync client) streams edge deletions and
  insertions through the same socket; the server applies them at quiescent
  points, so every reply still carries the exact mutation stamp its answer
  observed.

At the end, the snapshot contract is audited *per stamp*: each client-observed
result must equal a from-scratch centralized simulation on a replay of the
graph after exactly ``result.stamp`` updates -- network serving changes the
wire, never the answers.

Run:  python examples/network_query_server.py
"""

import asyncio
import random
import threading
import time

from repro import partition, simulation, web_graph
from repro.bench.workloads import cyclic_pattern
from repro.net import (
    AsyncSessionClient,
    DeleteEdge,
    InsertEdge,
    SessionClient,
    serve_in_thread,
)


def replay(graph, ops, n):
    """The graph after the first ``n`` updates (fresh copy each call)."""
    replayed = graph.copy()
    for op in ops[:n]:
        if isinstance(op, DeleteEdge):
            replayed.remove_edge(op.u, op.v)
        else:
            replayed.add_edge(op.u, op.v)
    return replayed


def main() -> None:
    graph = web_graph(800, 4000, n_labels=8, seed=23)
    fragmentation = partition(graph, n_fragments=4, seed=23, vf_ratio=0.25)
    initial = graph.copy()  # the stamp-0 oracle graph; replays start here
    hot = [cyclic_pattern(graph, n_nodes=3, n_edges=4, seed=s) for s in range(4)]

    audited = []  # (query index, StampedResult) from every client
    ops = []      # the feed's updates, in application (= stamp) order

    with serve_in_thread(fragmentation, backend="thread", n_workers=4) as srv:
        host, port = srv.address
        print(f"serving {fragmentation!r}")
        print(f"listening on {host}:{port}")

        def sync_client() -> None:
            rng = random.Random(1)
            with SessionClient(host, port, timeout=120.0) as client:
                for _ in range(10):
                    qi = rng.randrange(len(hot))
                    audited.append((qi, client.run(hot[qi], algorithm="dgpm")))

        def feed() -> None:
            rng = random.Random(99)
            deleted = []
            with SessionClient(host, port, timeout=120.0) as client:
                for step in range(6):
                    if step % 3 == 2 and deleted:
                        op = InsertEdge(*deleted.pop())
                    else:
                        edges = list(graph.edges())
                        op = DeleteEdge(*edges[rng.randrange(len(edges))])
                        deleted.append((op.u, op.v))
                    (outcome,) = client.apply([op])
                    ops.append(op)
                    assert outcome.stamp == len(ops)
                    time.sleep(0.01)  # let queries land between stamps

        async def async_client() -> None:
            async with await AsyncSessionClient.connect(host, port) as client:
                # Two pipelined waves of the whole hot set on ONE connection.
                for _ in range(2):
                    results = await asyncio.gather(
                        *[client.run(q, algorithm="dgpm") for q in hot]
                    )
                    audited.extend(zip(range(len(hot)), results))
                reply = await client.stats()
                print(
                    f"server stats via asyncio client: "
                    f"{reply.stats.queries_served} served, "
                    f"stamp {reply.stamp}, backend {reply.backend!r}"
                )

        t0 = time.perf_counter()
        threads = [
            threading.Thread(target=sync_client),
            threading.Thread(target=feed),
            threading.Thread(target=lambda: asyncio.run(async_client())),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
        print(
            f"2 query clients + 1 mutation feed: {len(audited)} answers, "
            f"{len(ops)} mutations in {wall:.2f}s"
        )

    # --- audit the snapshot contract, stamp by stamp --------------------
    # Every result equals a from-scratch simulation on the graph after its
    # first `stamp` updates.  (tests/net/ asserts the same end-to-end.)
    oracles = {}
    for qi, result in audited:
        key = (qi, result.stamp)
        if key not in oracles:
            oracles[key] = simulation(hot[qi], replay(initial, ops, result.stamp))
        assert result.relation == oracles[key], (
            f"answer at stamp {result.stamp} diverged from the oracle"
        )
    stamps = sorted({r.stamp for _, r in audited})
    print(
        f"audited all {len(audited)} answers against from-scratch replays "
        f"at stamps {stamps}: ok"
    )
    print("server closed cleanly")


if __name__ == "__main__":
    main()
