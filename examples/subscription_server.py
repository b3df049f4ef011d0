#!/usr/bin/env python
"""Standing queries: a fraud-ring watch, audited live.

A payment graph (accounts, devices, merchants) is served by a
:class:`~repro.net.NetworkSessionServer`.  A *standing query* watches for
fraud rings -- short label cycles of accounts transacting through a shared
device -- and the server PUSHes a stamped delta after every committed
mutation batch that changes the ring set.  Nothing polls: batches that
leave the answer unchanged push nothing.

Two parties share the server:

* an analyst opens ``client.subscribe(ring)`` and consumes the delta
  stream (pickle-free wire, one dedicated connection);
* a feed client streams mutations -- new transactions, chargeback edge
  removals, and full account takedowns (``remove_node``).

Every PUSH is audited against a replay-at-stamp oracle: the update log is
replayed to the delta's stamp on a pristine copy of the graph and the
folded subscriber view must equal a from-scratch centralized simulation.
Missing a changed stamp, or pushing at an unchanged one, fails the audit.

Run:  python examples/subscription_server.py
"""

import random
import threading
import time

from repro import partition, simulation, web_graph
from repro.bench.workloads import cyclic_pattern
from repro.graph.mutations import DeleteEdge, InsertEdge, RemoveNode
from repro.net import connect, serve_in_thread


def build_update_stream(graph, n_ops, seed):
    """A mixed op stream, valid by construction against a mirror."""
    rng = random.Random(seed)
    mirror = graph.copy()
    ops = []
    while len(ops) < n_ops:
        roll = rng.random()
        nodes = list(mirror.nodes())
        if roll < 0.45:
            edges = list(mirror.edges())
            u, v = edges[rng.randrange(len(edges))]
            mirror.remove_edge(u, v)
            ops.append(DeleteEdge(u, v))          # chargeback reversal
        elif roll < 0.85:
            u, v = rng.choice(nodes), rng.choice(nodes)
            if u == v or mirror.has_edge(u, v):
                continue
            mirror.add_edge(u, v)
            ops.append(InsertEdge(u, v))          # new transaction
        else:
            node = rng.choice(nodes)
            mirror.remove_node(node)
            ops.append(RemoveNode(node))          # account takedown
    return ops


def replay(graph, ops, n):
    """The payment graph after the first ``n`` updates."""
    out = graph.copy()
    for op in ops[:n]:
        if isinstance(op, DeleteEdge):
            out.remove_edge(op.u, op.v)
        elif isinstance(op, InsertEdge):
            out.add_edge(op.u, op.v)
        else:
            out.remove_node(op.node)
    return out


def as_sets(relation):
    return {q: set(v) for q, v in relation.as_dict().items()}


def main() -> None:
    graph = web_graph(120, 450, n_labels=4, seed=77)
    pristine = graph.copy()
    fragmentation = partition(graph, n_fragments=3, seed=77)
    ring = cyclic_pattern(graph, n_nodes=3, n_edges=4, seed=4)
    ops = build_update_stream(pristine, 30, seed=19)
    print(f"payment graph resident: {fragmentation!r}")
    print(f"fraud-ring pattern: {len(list(ring.nodes()))} roles, "
          f"{len(list(ring.edges()))} required transaction edges")

    with serve_in_thread(fragmentation, backend="thread", n_workers=4) as srv:
        host, port = srv.address
        print(f"serving on {host}:{port}")

        # -- the analyst: a standing query over its own connection ---------
        analyst = connect(srv.address)
        watch = analyst.subscribe(ring)
        baseline = as_sets(watch.relation)
        assert baseline == as_sets(simulation(ring, pristine))
        print(f"analyst subscribed: sub_id={watch.sub_id} at stamp "
              f"{watch.stamp}, {sum(map(len, baseline.values()))} "
              "ring memberships in the baseline")

        deltas = []
        done = threading.Event()

        def consume():
            for delta in watch:
                deltas.append(delta)
                verb = "lapsed" if delta.lapsed else (
                    f"+{len(delta.added)}/-{len(delta.removed)} memberships")
                print(f"  PUSH stamp {delta.stamp}: {verb}")
            done.set()

        threading.Thread(target=consume, daemon=True).start()

        # -- the feed: transactions, chargebacks, takedowns ----------------
        feed = connect(srv.address)
        takedowns = 0
        for op in ops:
            feed.apply([op])
            if isinstance(op, RemoveNode):
                takedowns += 1
        print(f"feed applied {len(ops)} updates "
              f"({takedowns} account takedowns)")

        # Wait until the delta stream has caught up with the last
        # ring-changing stamp, then close the subscription.
        last_change, previous = 0, baseline
        for stamp in range(1, len(ops) + 1):
            oracle = as_sets(simulation(ring, replay(pristine, ops, stamp)))
            if oracle != previous:
                last_change = stamp
            previous = oracle
        deadline = time.time() + 30
        while time.time() < deadline and last_change:
            if deltas and deltas[-1].stamp >= last_change:
                break
            time.sleep(0.02)
        watch.close()
        done.wait(timeout=30)
        feed.close()
        analyst.close()

    # -- the audit: every PUSH against the replay-at-stamp oracle ----------
    view = {q: set(v) for q, v in baseline.items()}
    by_stamp = {d.stamp: d for d in deltas}
    previous = baseline
    for stamp in range(1, len(ops) + 1):
        oracle = as_sets(simulation(ring, replay(pristine, ops, stamp)))
        delta = by_stamp.get(stamp)
        if oracle == previous:
            assert delta is None, f"spurious PUSH at unchanged stamp {stamp}"
        else:
            assert delta is not None, f"missing PUSH at changed stamp {stamp}"
            for qn, vn in delta.added:
                view.setdefault(qn, set()).add(vn)
            for qn, vn in delta.removed:
                view[qn].discard(vn)
            assert view == oracle, f"subscriber view diverged at stamp {stamp}"
        previous = oracle
    print(f"audited all {len(ops)} stamps: {len(deltas)} PUSHed deltas, "
          "every one equal to the replay oracle, none spurious  [ok]")
    print("server closed cleanly")


if __name__ == "__main__":
    main()
