"""Standing queries end to end: every PUSH audited against a replay oracle.

The acceptance contract: a subscriber receives a stamped delta for every
mutation batch that changes its query's match set and nothing otherwise,
and applying the deltas on top of the baseline reproduces, at every stamp,
exactly what a from-scratch centralized simulation computes on the graph
replayed to that stamp -- across the thread and sharded backends,
with ``remove_node`` in the update stream.

Also here: the optional HELLO probe (clients that never say it can run,
apply and subscribe; a version-1 header is refused), replies larger than
one read, and subscription lapse/teardown behavior.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time
from typing import Dict, List, Set, Tuple

import pytest

from repro import ConcurrentSessionServer, partition, simulation, web_graph
from repro.bench.workloads import cyclic_pattern
from repro.errors import TransportError, WireFormatError
from repro.graph.digraph import DiGraph
from repro.graph.mutations import (
    AddNode,
    DeleteEdge,
    InsertEdge,
    MutationOp,
    RemoveNode,
)
from repro.graph.pattern import Pattern
from repro.net import protocol
from repro.net.client import AsyncSessionClient, SessionClient, connect
from repro.net.protocol import FrameKind
from repro.net.server import serve_in_thread
from repro.partition.fragmentation import fragment_graph

JOIN_TIMEOUT = 60.0


# ----------------------------------------------------------------------
# oracle machinery
# ----------------------------------------------------------------------
def _replay(graph: DiGraph, ops: List[MutationOp], n: int) -> DiGraph:
    """The graph after the first ``n`` updates (fresh copy each call)."""
    replayed = graph.copy()
    for op in ops[:n]:
        kind = op.kind
        if kind == "delete":
            replayed.remove_edge(op.u, op.v)
        elif kind == "insert":
            replayed.add_edge(op.u, op.v)
        elif kind == "remove_node":
            replayed.remove_node(op.node)
        else:
            replayed.add_node(op.node, op.label)
    return replayed


def _as_sets(relation) -> Dict[object, Set[object]]:
    return {q: set(v) for q, v in relation.as_dict().items()}


def _mutation_script(graph: DiGraph, n_ops: int, seed: int) -> List[MutationOp]:
    """A mixed op stream (inserts, deletes, node removals), valid by
    construction against a mirror of ``graph``."""
    import random

    rng = random.Random(seed)
    mirror = graph.copy()
    ops: List[MutationOp] = []
    while len(ops) < n_ops:
        roll = rng.random()
        nodes = list(mirror.nodes())
        if roll < 0.45:
            edges = list(mirror.edges())
            if not edges:
                continue
            u, v = edges[rng.randrange(len(edges))]
            mirror.remove_edge(u, v)
            ops.append(DeleteEdge(u, v))
        elif roll < 0.8:
            u, v = rng.choice(nodes), rng.choice(nodes)
            if u == v or mirror.has_edge(u, v):
                continue
            mirror.add_edge(u, v)
            ops.append(InsertEdge(u, v))
        else:
            node = rng.choice(nodes)
            mirror.remove_node(node)
            ops.append(RemoveNode(node))
    return ops


def _audit(
    graph: DiGraph,
    query,
    baseline: Dict[object, Set[object]],
    ops: List[MutationOp],
    deltas: List[protocol.PushDelta],
) -> None:
    """Replay-at-stamp oracle: deltas land exactly at the match-changing
    stamps, and the evolving view matches the oracle at each one."""
    view = {q: set(v) for q, v in baseline.items()}
    stamps = [d.stamp for d in deltas]
    assert stamps == sorted(set(stamps)), "delta stamps must strictly increase"
    by_stamp = {d.stamp: d for d in deltas}
    previous = {q: set(v) for q, v in baseline.items()}
    for stamp in range(1, len(ops) + 1):
        oracle = _as_sets(simulation(query, _replay(graph, ops, stamp)))
        delta = by_stamp.get(stamp)
        if oracle == previous:
            assert delta is None, (
                f"stamp {stamp}: delta pushed for a batch that left the "
                "answer unchanged"
            )
        else:
            assert delta is not None, (
                f"stamp {stamp}: the answer changed but no delta arrived"
            )
            assert not delta.lapsed
            assert delta.added or delta.removed
            # An exact diff of the view: nothing held is added again, nothing
            # absent is removed, and no pair is listed twice.
            assert len(set(delta.added)) == len(delta.added), stamp
            assert len(set(delta.removed)) == len(delta.removed), stamp
            for qn, vn in delta.added:
                assert vn not in view.get(qn, ()), (stamp, qn, vn)
                view.setdefault(qn, set()).add(vn)
            for qn, vn in delta.removed:
                assert vn in view[qn], (stamp, qn, vn)
                view[qn].discard(vn)
            assert view == oracle, f"stamp {stamp}: view diverged from oracle"
        previous = oracle


def _last_change_stamp(
    graph: DiGraph,
    query,
    baseline: Dict[object, Set[object]],
    ops: List[MutationOp],
) -> int:
    """The highest stamp at which the query's answer changes (0 if never)."""
    last = 0
    previous = baseline
    for stamp in range(1, len(ops) + 1):
        oracle = _as_sets(simulation(query, _replay(graph, ops, stamp)))
        if oracle != previous:
            last = stamp
        previous = oracle
    return last


def _collect_until(sub, target_stamp: int, out: List) -> None:
    """Drain a blocking Subscription until a delta reaches ``target_stamp``."""
    for delta in sub:
        out.append(delta)
        if delta.stamp >= target_stamp:
            return


class _DeltaLog(list):
    """A list of deltas whose appends wake :meth:`wait_for_stamp`."""

    def __init__(self) -> None:
        super().__init__()
        self._cond = threading.Condition()

    def append(self, delta) -> None:
        with self._cond:
            super().append(delta)
            self._cond.notify_all()

    def wait_for_stamp(self, stamp: int) -> bool:
        """Block until a delta at ``stamp`` or later arrived (0: at once)."""
        with self._cond:
            return self._cond.wait_for(
                lambda: not stamp or (self and self[-1].stamp >= stamp),
                timeout=JOIN_TIMEOUT,
            )


def _registry_emptied(registry, monkeypatch) -> threading.Event:
    """An event set by the ``unsubscribe`` call that leaves ``registry``
    with no subscription (install it while one is still registered)."""
    emptied = threading.Event()
    unsubscribe = registry.unsubscribe

    def watched(sub_id: int) -> bool:
        try:
            return unsubscribe(sub_id)
        finally:
            if not registry._subs:
                emptied.set()

    monkeypatch.setattr(registry, "unsubscribe", watched)
    return emptied


# ----------------------------------------------------------------------
# fixtures
# ----------------------------------------------------------------------
@pytest.fixture()
def instance():
    graph = web_graph(80, 280, n_labels=4, seed=11)
    frag = partition(graph, 3, seed=11)
    query = cyclic_pattern(graph, 3, 4, seed=2)
    return graph, frag, query


# ----------------------------------------------------------------------
# negotiation
# ----------------------------------------------------------------------
class TestNegotiation:
    def test_connect_negotiates_v2(self, instance):
        graph, frag, query = instance
        with serve_in_thread(frag, backend="thread") as srv:
            with connect(srv.address, timeout=JOIN_TIMEOUT) as client:
                assert client.hello() == protocol.Hello(role="server")
                assert _as_sets(client.run(query).relation) == _as_sets(
                    simulation(query, graph)
                )

    def test_un_negotiated_client_runs_applies_and_subscribes(self, instance):
        """HELLO is optional: a client that never says it gets everything."""
        graph, frag, query = instance
        with serve_in_thread(frag, backend="thread") as srv:
            with SessionClient(*srv.address, timeout=JOIN_TIMEOUT) as client:
                assert _as_sets(client.run(query).relation) == _as_sets(
                    simulation(query, graph)
                )
                u, v = next(iter(graph.edges()))
                assert client.apply([DeleteEdge(u, v)])[0].stamp == 1
                with client.subscribe(query) as sub:
                    assert sub.stamp == 1
                    assert _as_sets(sub.relation) == _as_sets(
                        simulation(query, graph)
                    )

    def test_un_negotiated_async_client_runs_applies_and_subscribes(self, instance):
        graph, frag, query = instance

        async def main():
            with serve_in_thread(frag, backend="thread") as srv:
                client = await AsyncSessionClient.connect(*srv.address)
                try:
                    u, v = next(iter(graph.edges()))
                    assert (await client.apply([DeleteEdge(u, v)]))[0].stamp == 1
                    assert (await client.run(query)).stamp == 1
                    sub = await client.subscribe(query)
                    assert sub.stamp == 1
                    await sub.aclose()
                finally:
                    await client.aclose()

        asyncio.run(main())

    def test_server_announces_v2_only(self, instance):
        """The version travels in every frame header (byte 4), the server's
        HELLO reply included."""
        _graph, frag, _query = instance
        with serve_in_thread(frag, backend="thread") as srv:
            sock = socket.create_connection(srv.address, timeout=JOIN_TIMEOUT)
            try:
                sock.sendall(protocol.encode(protocol.Hello(role="client"), seq=3))
                data = sock.recv(65536)
                assert data[4] == 2
                assert protocol.decode(data) == (protocol.Hello(role="server"), 3)
            finally:
                sock.close()

    def test_subscribe_frame_at_v1_is_refused(self, instance):
        """A hand-rolled version-1 SUBSCRIBE header earns one v2 ERROR
        (seq 0: the stream is not trusted past the bad header) and a
        hang-up, even though the kind is known."""
        _graph, frag, query = instance
        with serve_in_thread(frag, backend="thread") as srv:
            sock = socket.create_connection(srv.address, timeout=JOIN_TIMEOUT)
            try:
                frame = bytearray(
                    protocol.encode(protocol.SubscribeRequest(query=query), seq=5)
                )
                frame[4] = 1  # the header's version byte
                sock.sendall(bytes(frame))
                conn = protocol.Connection()
                (event,) = conn.receive(sock.recv(65536))
                kind, seq, payload = event
                assert (kind, seq) == (FrameKind.ERROR, 0)
                assert payload.kind == "WireFormatError"
                assert "protocol version 1" in payload.message
                with pytest.raises(EOFError):
                    conn.receive(sock.recv(65536))
            finally:
                sock.close()

    def test_async_connect_negotiates_v2(self, instance):
        graph, frag, query = instance

        async def main():
            with serve_in_thread(frag, backend="thread") as srv:
                client = await connect(srv.address, async_=True)
                try:
                    assert await client.hello() == protocol.Hello(role="server")
                    result = await client.run(query)
                    assert _as_sets(result.relation) == _as_sets(
                        simulation(query, graph)
                    )
                finally:
                    await client.aclose()

        asyncio.run(main())


# ----------------------------------------------------------------------
# the serving-stack registry (no sockets)
# ----------------------------------------------------------------------
class TestRegistry:
    def test_callback_fires_only_on_match_changes(self, instance):
        graph, frag, query = instance
        fired: List[Tuple[int, int, Tuple, Tuple]] = []
        with ConcurrentSessionServer(frag, backend="thread") as server:
            sub_id, baseline = server.subscribe(
                query, lambda *args: fired.append(args)
            )
            assert baseline.stamp == 0
            assert _as_sets(baseline.relation) == _as_sets(
                simulation(query, graph)
            )
            # An edge between fresh, query-irrelevant nodes: no push.
            server.apply([AddNode(10_001, "zz-unused")])
            server.apply([AddNode(10_002, "zz-unused")])
            server.apply([InsertEdge(10_001, 10_002)])
            assert fired == []
            # Destroy every match by deleting every edge: pushes follow.
            before = _as_sets(simulation(query, graph))
            for u, v in list(graph.edges()):
                server.apply([DeleteEdge(u, v)])
            if any(before.values()):
                assert fired, "match set emptied but no callback fired"
                stamps = [stamp for _sub, stamp, _a, _r in fired]
                assert stamps == sorted(set(stamps))
                assert all(sub == sub_id for sub, *_ in fired)
                assert stamps[-1] <= server.stamp
                # Folding the deltas over the baseline empties the view.
                view = {q: set(v) for q, v in before.items()}
                for _sub, _stamp, added, removed in fired:
                    for qn, vn in added:
                        view.setdefault(qn, set()).add(vn)
                    for qn, vn in removed:
                        view[qn].discard(vn)
                assert not any(view.values())
            assert server.unsubscribe(sub_id)
            assert not server.unsubscribe(sub_id)

    def test_raising_callback_is_retired(self, instance):
        graph, frag, query = instance

        def boom(*_args):
            raise RuntimeError("subscriber bug")

        with ConcurrentSessionServer(frag, backend="thread") as server:
            sub_id, _ = server.subscribe(query, boom)
            for u, v in list(graph.edges()):
                server.apply([DeleteEdge(u, v)])
            # The first match-changing batch tripped the callback; the
            # registry must have dropped it rather than poison the writer.
            assert sub_id not in server._subs

    def test_a_stale_virtual_candidacy_pushes_nothing(self):
        """A virtual copy of an answer pair the owner falsified can stay
        true (a parentless query node's falsifications never ship): removing
        that node leaves the answer as it was, so nothing is pushed."""
        graph = DiGraph({"x": "A", "y": "B", "u": "A", "w": "A"})
        graph.add_edge("x", "y")
        graph.add_edge("w", "u")  # u: a virtual copy at fragment 1
        frag = fragment_graph(graph, {"x": 0, "y": 0, "u": 0, "w": 1})
        query = Pattern({"a": "A", "b": "B"}, [("a", "b")])
        fired: List[Tuple[int, int, Tuple, Tuple]] = []
        with ConcurrentSessionServer(frag, backend="thread") as server:
            server.subscribe(query, lambda *delta: fired.append(delta))
            server.apply([RemoveNode("u")])
            assert server.run(query).relation == simulation(query, graph)
        assert fired == []


# ----------------------------------------------------------------------
# end-to-end oracle, all backends
# ----------------------------------------------------------------------
class TestSubscriptionOracle:
    @pytest.mark.parametrize("backend", ["thread", "sharded"])
    def test_every_push_matches_replay_oracle(self, backend):
        graph = web_graph(60, 200, n_labels=3, seed=23)
        # The thread backend serves this very object, mutating it in place:
        # everything oracle-shaped must work from a pristine snapshot.
        initial = graph.copy()
        frag = partition(graph, 3, seed=23)
        query = cyclic_pattern(graph, 3, 3, seed=5)
        ops = _mutation_script(initial, 24, seed=41)
        deltas = _DeltaLog()
        with serve_in_thread(frag, backend=backend, n_workers=3) as srv:
            with connect(srv.address, timeout=JOIN_TIMEOUT) as client:
                sub = client.subscribe(query)
                baseline = _as_sets(sub.relation)
                assert sub.stamp == 0
                assert baseline == _as_sets(simulation(query, initial))
                collector = threading.Thread(
                    target=_collect_until,
                    args=(sub, len(ops), deltas),
                    daemon=True,
                )
                collector.start()
                for op in ops:
                    client.apply([op])
                last_change_stamp = _last_change_stamp(
                    initial, query, baseline, ops
                )
                # Wait for the tail push (if any); closing the subscription
                # ends the collector however far it got.
                deltas.wait_for_stamp(last_change_stamp)
                # A read is served from the pinned entry the pushes came
                # from: the relation those change sets patched is exact too.
                assert _as_sets(client.run(query).relation) == _as_sets(
                    simulation(query, _replay(initial, ops, len(ops)))
                )
                sub.close()
                collector.join(timeout=JOIN_TIMEOUT)
        _audit(initial, query, baseline, ops, deltas)
        assert deltas, "a 24-op mixed script should change the answer at least once"

    @pytest.mark.parametrize("backend", ["thread", "sharded"])
    def test_subscribed_only_query_is_repaired_not_rerun(self, backend):
        """A standing query nobody else reads is pinned warm by its baseline:
        every batch repairs it -- one protocol run in all, none under the
        write lock, and no batch has to promote it."""
        graph = web_graph(1000, 5000, seed=7)
        initial = graph.copy()
        query = cyclic_pattern(graph, 4, 6, seed=3)
        matched = _as_sets(simulation(query, graph))
        # u's only witness for a query edge: deleting it changes the answer,
        # re-inserting it changes it back.
        witness = next(
            (u, targets[0])
            for a, b in query.edges()
            for u in sorted(matched[a])
            for targets in [[v for v in graph.successors(u) if v in matched[b]]]
            if len(targets) == 1
        )
        n = 8
        ops = [(InsertEdge if i % 2 else DeleteEdge)(*witness) for i in range(n)]
        deltas: List[protocol.PushDelta] = []
        frag = partition(graph, 16, 7, vf_ratio=0.25)
        with ConcurrentSessionServer(frag, backend=backend, n_workers=2) as server:
            _, baseline = server.subscribe(
                query, lambda *delta: deltas.append(protocol.PushDelta(*delta))
            )
            for op in ops:
                server.apply([op])
            stats = server.stats
        assert [d.stamp for d in deltas] == list(range(1, n + 1))
        _audit(initial, query, _as_sets(baseline.relation), ops, deltas)
        assert (stats.cache_misses, stats.entries_evicted) == (1, 0)
        assert (stats.entries_promoted, stats.entries_repaired) == (0, n)

    def test_two_subscribers_one_mutating_client(self, instance):
        """Independent subscriptions see independent, equally-correct
        streams (PR-3 parity, now over PUSH)."""
        graph, frag, query = instance
        initial = graph.copy()
        ops = _mutation_script(initial, 12, seed=7)
        with serve_in_thread(frag, backend="thread") as srv:
            with connect(srv.address, timeout=JOIN_TIMEOUT) as client:
                sub_a = client.subscribe(query)
                sub_b = client.subscribe(query)
                base_a = _as_sets(sub_a.relation)
                base_b = _as_sets(sub_b.relation)
                assert base_a == base_b
                got_a, got_b = _DeltaLog(), _DeltaLog()
                ta = threading.Thread(
                    target=_collect_until, args=(sub_a, len(ops), got_a), daemon=True
                )
                tb = threading.Thread(
                    target=_collect_until, args=(sub_b, len(ops), got_b), daemon=True
                )
                ta.start()
                tb.start()
                for op in ops:
                    client.apply([op])
                last_change = _last_change_stamp(initial, query, base_a, ops)
                got_a.wait_for_stamp(last_change)
                got_b.wait_for_stamp(last_change)
                sub_a.close()
                sub_b.close()
        _audit(initial, query, base_a, ops, got_a)
        _audit(initial, query, base_b, ops, got_b)


class TestBlockingSubscription:
    def test_quiet_subscription_outlives_the_client_timeout(self, instance):
        """``timeout`` bounds the dial and the SUBSCRIBED ack, never the wait
        for the next delta: a subscription with nothing to report for three
        timeouts is still listening when the answer finally changes."""
        graph, frag, query = instance
        assert any(_as_sets(simulation(query, graph)).values())
        got: List[protocol.PushDelta] = []
        ended = threading.Event()

        def consume(sub) -> None:
            for delta in sub:
                got.append(delta)
                break
            ended.set()

        with serve_in_thread(frag, backend="thread") as srv:
            with connect(srv.address, timeout=0.2) as watcher, connect(
                srv.address, timeout=JOIN_TIMEOUT
            ) as feed:
                with watcher.subscribe(query) as sub:
                    threading.Thread(target=consume, args=(sub,), daemon=True).start()
                    assert not ended.wait(0.6), "iteration ended by itself"
                    feed.apply([DeleteEdge(u, v) for u, v in list(graph.edges())])
                    assert ended.wait(JOIN_TIMEOUT)
        assert [d.lapsed for d in got] == [False]
        assert got[0].removed and not got[0].added

    def test_another_connections_unsubscribe_is_a_no_op(self, instance):
        """UNSUBSCRIBE cancels only the sender's own subscriptions: a second
        connection quoting A's ``sub_id`` is acked, and A still gets the
        PUSH of the next batch that changes its answer."""
        graph, frag, query = instance
        assert any(_as_sets(simulation(query, graph)).values())
        got: List[protocol.PushDelta] = []
        pushed = threading.Event()

        def consume(sub) -> None:
            for delta in sub:
                got.append(delta)
                break
            pushed.set()

        with serve_in_thread(frag, backend="thread") as srv:
            with connect(srv.address, timeout=JOIN_TIMEOUT) as a, connect(
                srv.address, timeout=JOIN_TIMEOUT
            ) as b:
                with a.subscribe(query) as sub:
                    threading.Thread(target=consume, args=(sub,), daemon=True).start()
                    ack = b._req(
                        protocol.UnsubscribeRequest(sub_id=sub.sub_id),
                        FrameKind.SUBSCRIBED,
                    )
                    assert (ack.sub_id, ack.relation) == (sub.sub_id, None)
                    assert list(srv.ingress.server._subs) == [sub.sub_id]
                    b.apply([DeleteEdge(u, v) for u, v in list(graph.edges())])
                    assert pushed.wait(JOIN_TIMEOUT)
        assert [d.lapsed for d in got] == [False]
        assert got[0].sub_id == sub.sub_id and got[0].removed


def _applied(
    baseline: Dict[object, Set[object]], deltas: List[protocol.PushDelta]
) -> Dict[object, Set[object]]:
    view = {q: set(v) for q, v in baseline.items()}
    for d in list(deltas):
        for qn, vn in d.added:
            view.setdefault(qn, set()).add(vn)
        for qn, vn in d.removed:
            view[qn].discard(vn)
    return view


# ----------------------------------------------------------------------
# async subscription + lapse + teardown
# ----------------------------------------------------------------------
class TestAsyncSubscription:
    def test_async_stream_matches_oracle(self, instance):
        graph, frag, query = instance
        initial = graph.copy()
        ops = _mutation_script(initial, 10, seed=13)

        async def main():
            with serve_in_thread(frag, backend="thread") as srv:
                client = await connect(srv.address, async_=True)
                try:
                    sub = await client.subscribe(query)
                    baseline = _as_sets(sub.relation)
                    deltas: List[protocol.PushDelta] = []
                    last_change = _last_change_stamp(
                        initial, query, baseline, ops
                    )
                    reached = asyncio.Event()

                    async def consume():
                        async for d in sub:
                            deltas.append(d)
                            if d.stamp >= last_change:
                                reached.set()

                    task = asyncio.create_task(consume())
                    for op in ops:
                        await client.apply([op])
                    if last_change:
                        await asyncio.wait_for(reached.wait(), timeout=JOIN_TIMEOUT)
                    await sub.aclose()
                    await asyncio.wait_for(task, timeout=JOIN_TIMEOUT)
                    return baseline, deltas
                finally:
                    await client.aclose()

        baseline, deltas = asyncio.run(main())
        _audit(initial, query, baseline, ops, deltas)

    def test_slow_consumer_lapses_locally(self, instance, monkeypatch):
        """A consumer that never drains past ``buffer`` deltas receives one
        final lapsed marker and the server forgets the subscription."""
        graph, frag, query = instance

        async def main():
            with serve_in_thread(frag, backend="thread") as srv:
                client = await connect(srv.address, async_=True)
                try:
                    sub = await client.subscribe(query, buffer=1)
                    registry = srv.ingress.server
                    emptied = _registry_emptied(registry, monkeypatch)
                    # Not consuming: each edge deletion that changes the
                    # answer lands in the size-1 queue; the second overflows.
                    for u, v in list(graph.edges()):
                        await client.apply([DeleteEdge(u, v)])
                    deadline = time.time() + JOIN_TIMEOUT
                    got: List[protocol.PushDelta] = []
                    async for d in sub:
                        got.append(d)
                        if d.lapsed:
                            break
                        if time.time() > deadline:  # pragma: no cover
                            pytest.fail("no lapse within the deadline")
                    assert got[-1].lapsed
                    # The fire-and-forget UNSUBSCRIBE reaches the registry.
                    assert await asyncio.to_thread(emptied.wait, JOIN_TIMEOUT)
                    assert not registry._subs
                finally:
                    await client.aclose()

        asyncio.run(main())

    def test_close_unsubscribes_server_side(self, instance, monkeypatch):
        graph, frag, query = instance
        with serve_in_thread(frag, backend="thread") as srv:
            with connect(srv.address, timeout=JOIN_TIMEOUT) as client:
                sub = client.subscribe(query)
                registry = srv.ingress.server
                assert len(registry._subs) == 1
                emptied = _registry_emptied(registry, monkeypatch)
                sub.close()
                assert emptied.wait(JOIN_TIMEOUT)
                assert not registry._subs

    def test_disconnect_unsubscribes_server_side(self, instance, monkeypatch):
        """A vanished subscriber must not leak registry entries."""
        graph, frag, query = instance
        with serve_in_thread(frag, backend="thread") as srv:
            client = connect(srv.address, timeout=JOIN_TIMEOUT)
            sub = client.subscribe(query)
            registry = srv.ingress.server
            assert len(registry._subs) == 1
            emptied = _registry_emptied(registry, monkeypatch)
            # Simulate a crash: no UNSUBSCRIBE, no BYE, just the FIN the
            # kernel sends for a dead process.
            sub._link.close()
            client.close()
            assert emptied.wait(5.0)  # a real leak fails in seconds
            assert not registry._subs


# ----------------------------------------------------------------------
# replies larger than one read
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def large_reply():
    """A graph and a query whose RESULT frame is larger than one
    ``READ_SIZE`` read (~140 KB: eight query nodes, each matching most of
    2,000 nodes)."""
    graph = web_graph(2000, 8000, n_labels=1, seed=3)
    label = graph.label(next(iter(graph.nodes())))
    names = "abcdefgh"
    query = Pattern({u: label for u in names}, list(zip(names, names[1:])))
    return graph, partition(graph, 3, seed=3), query


class TestLargeReplies:
    def test_a_reply_larger_than_one_read_arrives_exact(self, large_reply):
        graph, frag, query = large_reply
        expected = _as_sets(simulation(query, graph))
        with serve_in_thread(frag, backend="thread") as srv:
            with connect(srv.address, timeout=JOIN_TIMEOUT) as client:
                result = client.run(query)
        reply = protocol.RunReply(result.relation, result.metrics, result.stamp)
        assert len(protocol.encode(reply)) > protocol.READ_SIZE
        assert _as_sets(result.relation) == expected

    def test_async_client_reads_a_reply_larger_than_one_read(self, large_reply):
        graph, frag, query = large_reply

        async def main():
            with serve_in_thread(frag, backend="thread") as srv:
                client = await connect(srv.address, async_=True)
                try:
                    return await client.run(query)
                finally:
                    await client.aclose()

        result = asyncio.run(main())
        assert _as_sets(result.relation) == _as_sets(simulation(query, graph))

    def test_a_reply_larger_than_max_frame_comes_back_as_an_error(self, large_reply):
        """The server refuses to frame it and says why on the request's own
        seq; the connection keeps serving."""
        graph, frag, query = large_reply
        small = Pattern({"a": "nope"}, [])
        with serve_in_thread(frag, backend="thread", max_frame=protocol.READ_SIZE) as srv:
            with connect(srv.address, timeout=JOIN_TIMEOUT) as client:
                with pytest.raises(WireFormatError, match="refusing to send"):
                    client.run(query)
                assert _as_sets(client.run(small).relation) == _as_sets(
                    simulation(small, graph)
                )
