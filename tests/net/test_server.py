"""End-to-end tests for the asyncio ingress and both clients.

The load-bearing assertion mirrors the acceptance contract of the network
layer: one server, at least two clients (one blocking, one asyncio), and
*every* client-observed result equals a from-scratch centralized simulation
on a replay of the graph after exactly ``result.stamp`` updates -- the
socket changes the wire, never the snapshot semantics.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time
from typing import List, Tuple

import pytest

from repro import (
    ConcurrentSessionServer,
    partition,
    simulation,
    web_graph,
)
from repro.bench.workloads import cyclic_pattern
from repro.errors import (
    GraphError,
    MutationBatchError,
    Overloaded,
    ReproError,
    TransportError,
    WireFormatError,
)
from repro.graph.digraph import DiGraph
from repro.graph.mutations import DeleteEdge, InsertEdge
from repro.graph.pattern import Pattern
from repro.net import protocol
from repro.net import server as server_module
from repro.net.protocol import Connection, FrameKind
from repro.net import AsyncSessionClient, SessionClient, serve_in_thread
from repro.net.server import NetworkSessionServer
from repro.partition.fragmentation import fragment_graph
from repro.session.concurrent import INLINE_MAX_OPS

from tests.net.test_protocol import _frame, _retired_config, _struct
from tests.session.test_concurrent_server import _hold, _SignallingCondition

JOIN_TIMEOUT = 60.0
#: the retired ``OBJ`` kind (opaque pickled bodies): now simply unknown
RETIRED_OBJ_KIND = 10


@pytest.fixture()
def instance():
    graph = web_graph(150, 600, n_labels=5, seed=17)
    frag = partition(graph, 3, seed=17)
    queries = [cyclic_pattern(graph, 3, 4, seed=s) for s in range(3)]
    return graph, frag, queries


def _replay(graph: DiGraph, ops: List[DeleteEdge], n: int) -> DiGraph:
    """The graph after the first ``n`` deletions (fresh copy each call)."""
    replayed = graph.copy()
    for op in ops[:n]:
        replayed.remove_edge(op.u, op.v)
    return replayed


class TestSyncClient:
    def test_parity_and_zero_stamp(self, instance):
        graph, frag, queries = instance
        with serve_in_thread(frag, backend="thread", n_workers=4) as srv:
            with SessionClient(*srv.address, timeout=60.0) as client:
                for q in queries:
                    result = client.run(q, algorithm="dgpm")
                    assert result.stamp == 0
                    assert result.relation == simulation(q, graph)

    def test_run_many_in_order(self, instance):
        graph, frag, queries = instance
        with serve_in_thread(frag, backend="thread", n_workers=4) as srv:
            with SessionClient(*srv.address, timeout=60.0) as client:
                results = client.run_many(queries, algorithm="dgpm")
                for q, r in zip(queries, results):
                    assert r.relation == simulation(q, graph)

    def test_mutations_advance_stamps_and_answers(self, instance):
        graph, frag, queries = instance
        with serve_in_thread(frag, backend="thread", n_workers=4) as srv:
            with SessionClient(*srv.address, timeout=60.0) as client:
                edges = list(graph.edges())
                for i, (u, v) in enumerate(edges[:3]):
                    outcome = client.apply([DeleteEdge(u, v)])[0]
                    assert outcome.stamp == i + 1
                    result = client.run(queries[0], algorithm="dgpm")
                    assert result.stamp == i + 1
                    assert result.relation == simulation(queries[0], graph)
                outcome = client.apply([InsertEdge(*edges[2])])[0]
                assert outcome.stamp == 4
                assert outcome.outcome.kind == "insert"

    def test_batch_apply_over_the_wire(self, instance):
        graph, frag, queries = instance
        with serve_in_thread(frag, backend="thread", n_workers=2) as srv:
            with SessionClient(*srv.address, timeout=60.0) as client:
                edges = list(graph.edges())
                outcomes = client.apply(
                    [DeleteEdge(*edges[0]), DeleteEdge(*edges[1])]
                )
                assert [o.stamp for o in outcomes] == [1, 2]
                result = client.run(queries[0], algorithm="dgpm")
                assert result.stamp == 2
                assert result.relation == simulation(queries[0], graph)

    def test_stats_frame(self, instance):
        graph, frag, queries = instance
        with serve_in_thread(frag, backend="thread", n_workers=2) as srv:
            with SessionClient(*srv.address, timeout=60.0) as client:
                client.run(queries[0], algorithm="dgpm")
                client.apply([DeleteEdge(*list(graph.edges())[0])])
                reply = client.stats()
                assert reply.backend == "thread"
                assert reply.stamp == 1
                assert reply.stats.queries_served >= 1
                assert reply.stats.mutations == 1

    def test_stats_reply_carries_a_snapshot_not_the_live_counters(self, instance):
        """The STATS arm encodes a copy: pool threads keep counting into the
        live object (and adding traffic fids to its dicts) meanwhile."""
        graph, frag, queries = instance
        with ConcurrentSessionServer(frag, backend="thread", n_workers=2) as server:
            server.run(queries[0], algorithm="dgpm")
            sent: List[object] = []

            async def capture(seq: int, frame: object) -> None:
                sent.append(frame)

            ingress = NetworkSessionServer(server)
            asyncio.run(ingress._dispatch(FrameKind.STATS, 1, None, capture, {}))
            (reply,) = sent
            assert reply.stats == server.stats
            server.run(queries[1], algorithm="dgpm")
            server.stats.bump_fragment("fragment_queries", [10_000])
            assert reply.stats.queries_served == 1
            assert 10_000 not in reply.stats.fragment_queries

    def test_hello_handshake(self, instance):
        graph, frag, queries = instance
        with serve_in_thread(frag, backend="thread", n_workers=2) as srv:
            with SessionClient(*srv.address, timeout=60.0) as client:
                reply = client.hello()
                assert reply.role == "server"
                # the handshake is a plain request: the connection keeps working
                assert client.run(queries[0], algorithm="dgpm").stamp == 0

    def test_server_errors_reraise_original_type(self, instance):
        graph, frag, queries = instance
        with serve_in_thread(frag, backend="thread", n_workers=2) as srv:
            with SessionClient(*srv.address, timeout=60.0) as client:
                with pytest.raises(GraphError):
                    client.apply([DeleteEdge("no-such", "edge")])
                # a session serves dGPM, dGPMd and dGPMt only: a baseline or
                # the retired dGPMNOpt alias is refused like any unknown name
                for name in ("not-an-algorithm", "dmes", "dishhk", "match", "dgpmnopt"):
                    with pytest.raises(ReproError) as err:
                        client.run(queries[0], algorithm=name)
                    assert str(err.value) == (
                        f"unknown algorithm {name!r} (known: auto, dgpm, dgpmd, dgpmt)"
                    )
                # the connection survives per-request failures
                assert client.run(queries[0], algorithm="dgpm").stamp == 0

    def test_unreachable_server(self):
        with pytest.raises(TransportError, match="cannot reach"):
            SessionClient("127.0.0.1", 1, timeout=0.5)

    def test_timeout_marks_client_broken(self, instance):
        """After a recv timeout the stream is desynchronized; the client
        must refuse further use instead of mispairing late replies."""
        graph, frag, queries = instance
        silent = socket.create_server(("127.0.0.1", 0))
        try:
            client = SessionClient(*silent.getsockname()[:2], timeout=0.2)
            with pytest.raises(TransportError, match="connection to server lost"):
                client.run(queries[0])
            with pytest.raises(TransportError, match="closed"):
                client.run(queries[0])
        finally:
            silent.close()

    def test_client_close_is_idempotent_and_final(self, instance):
        graph, frag, queries = instance
        with serve_in_thread(frag, backend="thread", n_workers=2) as srv:
            client = SessionClient(*srv.address, timeout=60.0)
            client.close()
            client.close()
            with pytest.raises(TransportError, match="closed"):
                client.run(queries[0])


def _drain(sock: socket.socket) -> List[protocol.Event]:
    """Every frame the peer sends until it hangs up."""
    conn, events = Connection(), []
    try:
        while True:
            events += conn.receive(sock.recv(65536))
    except EOFError:
        return events


class TestNoPickleOnTheClientPort:
    """Nothing arriving on the unauthenticated port is ever unpickled."""

    @pytest.mark.parametrize(
        "kind, version",
        [(RETIRED_OBJ_KIND, 2), (FrameKind.RUN, 1)],
        ids=["v2-obj-frame", "v1-run-frame"],
    )
    def test_pickle_frame_earns_one_error_and_a_hang_up(
        self, instance, pickle_bomb, kind, version
    ):
        graph, frag, queries = instance
        bomb, sentinel = pickle_bomb
        with serve_in_thread(frag, backend="thread", n_workers=2) as srv:
            with socket.create_connection(srv.address, timeout=JOIN_TIMEOUT) as sock:
                sock.sendall(_frame(kind, bomb, version=version))
                events = _drain(sock)  # returns on the server's hang-up
            assert [(k, seq) for k, seq, _ in events] == [(FrameKind.ERROR, 0)]
            assert events[0][2].kind == "WireFormatError"
            assert not sentinel.exists()
            with SessionClient(*srv.address, timeout=60.0) as client:
                assert client.run(queries[0]).relation == simulation(queries[0], graph)

    @pytest.mark.parametrize("answer", ["obj-frame", "pre-change-error-reply"])
    def test_client_never_unpickles_a_reply(self, instance, pickle_bomb, answer):
        """A hostile server: whatever it answers RUN with, the client raises
        WireFormatError, loads nothing, and refuses further use."""
        _graph, _frag, queries = instance
        bomb, sentinel = pickle_bomb
        if answer == "obj-frame":
            reply = _frame(RETIRED_OBJ_KIND, bomb)
        else:  # ErrorReply as it was: (message, kind, payload=<pickle>)
            old_struct = _struct("ErrorReply", "boom", "GraphError", bomb)
            reply = _frame(FrameKind.ERROR, old_struct)
        listener = socket.create_server(("127.0.0.1", 0))

        def serve_one() -> None:
            peer, _ = listener.accept()
            with peer:
                peer.recv(65536)
                peer.sendall(reply)
                peer.recv(65536)  # hold the socket until the client drops it

        fake = threading.Thread(target=serve_one, daemon=True)
        fake.start()
        try:
            client = SessionClient(*listener.getsockname()[:2], timeout=JOIN_TIMEOUT)
            with pytest.raises(WireFormatError):
                client.run(queries[0])
            assert not sentinel.exists()
            with pytest.raises(TransportError, match="closed"):
                client.run(queries[0])
        finally:
            listener.close()
            fake.join(timeout=JOIN_TIMEOUT)


def _refused_at_decode(instance, kind, name: str, fields: dict, field: str) -> None:
    """A frame whose ``field`` has the wrong type earns one ERROR frame
    (WireFormatError, seq 0) and a hang-up, serves nothing, and the next
    client is served as usual."""
    graph, frag, queries = instance
    with serve_in_thread(frag, backend="thread", n_workers=2) as srv:
        with socket.create_connection(srv.address, timeout=JOIN_TIMEOUT) as sock:
            sock.sendall(_frame(kind, _struct(name, *fields.values())))
            events = _drain(sock)  # returns on the server's hang-up
        assert [(k, seq) for k, seq, _ in events] == [(FrameKind.ERROR, 0)]
        assert events[0][2].kind == "WireFormatError"
        assert f"{name}.{field} must be" in events[0][2].message
        with SessionClient(*srv.address, timeout=60.0) as client:
            assert client.stats().stats.queries_served == 0
            assert client.run(queries[0]).relation == simulation(queries[0], graph)


class TestThePeerChoosesNoWork:
    def test_a_run_frame_carrying_a_config_is_refused(self, instance):
        """A RUN in the layout that carried a config -- here one releasing
        1e-6 of the queued messages per round -- earns one ERROR frame and a
        hang-up, and runs nothing; the next client is served as usual."""
        graph, frag, queries = instance
        scrambled = _retired_config(scramble=(0, 1e-6))
        body = _struct("RunRequest", queries[0], "auto", scrambled)
        with serve_in_thread(frag, backend="thread", n_workers=2) as srv:
            with socket.create_connection(srv.address, timeout=JOIN_TIMEOUT) as sock:
                sock.sendall(_frame(FrameKind.RUN, body))
                events = _drain(sock)  # returns on the server's hang-up
            assert [(k, seq) for k, seq, _ in events] == [(FrameKind.ERROR, 0)]
            assert events[0][2].kind == "WireFormatError"
            with SessionClient(*srv.address, timeout=60.0) as client:
                assert client.stats().stats.queries_served == 0
                assert client.run(queries[0]).relation == simulation(queries[0], graph)

    @pytest.mark.parametrize("field", ["query", "algorithm"])
    def test_a_run_frame_with_a_mistyped_field_is_refused(self, instance, field):
        """A RUN whose query is not a Pattern, or whose algorithm is not a
        str, is a WireFormatError at decode -- one ERROR frame, a hang-up,
        nothing served -- not an error from inside the compute on a
        connection that stays open."""
        _, _, queries = instance
        fields = {"query": queries[0], "algorithm": "auto", field: 5}
        _refused_at_decode(instance, FrameKind.RUN, "RunRequest", fields, field)

    @pytest.mark.parametrize(
        "kind, name, fields, field",
        [
            (FrameKind.HELLO, "Hello", {"role": 5}, "role"),
            (FrameKind.UNSUBSCRIBE, "UnsubscribeRequest", {"sub_id": "1"}, "sub_id"),
        ],
        ids=["hello-role", "unsubscribe-sub_id"],
    )
    def test_a_hello_or_unsubscribe_with_a_mistyped_field_is_refused(
        self, instance, kind, name, fields, field
    ):
        """A HELLO whose role is not a str, an UNSUBSCRIBE whose sub_id is not
        an int: refused at decode too."""
        _refused_at_decode(instance, kind, name, fields, field)

    @pytest.mark.parametrize(
        "field, bad",
        [("query", 5), ("algorithm", 5), ("buffer", 0), ("buffer", 10**12)],
        ids=["query", "algorithm", "buffer-zero", "buffer-huge"],
    )
    def test_a_subscribe_frame_with_a_bad_field_is_refused(
        self, instance, field, bad
    ):
        """A SUBSCRIBE whose query is not a Pattern, whose algorithm is not a
        str, or whose buffer is outside 1..MAX_PUSH_BUFFER (a huge one would
        make its PUSH queue unbounded) is a WireFormatError at decode: one
        ERROR frame, a hang-up, no subscription registered."""
        graph, frag, queries = instance
        fields = {"query": queries[0], "algorithm": "auto", "buffer": 256}
        fields[field] = bad
        with serve_in_thread(frag, backend="thread", n_workers=2) as srv:
            with socket.create_connection(srv.address, timeout=JOIN_TIMEOUT) as sock:
                body = _struct("SubscribeRequest", *fields.values())
                sock.sendall(_frame(FrameKind.SUBSCRIBE, body))
                events = _drain(sock)  # returns on the server's hang-up
            assert [(k, seq) for k, seq, _ in events] == [(FrameKind.ERROR, 0)]
            assert events[0][2].kind == "WireFormatError"
            assert f"SubscribeRequest.{field} must be" in events[0][2].message
            assert srv.ingress.server._subs == {}
            with SessionClient(*srv.address, timeout=60.0) as client:
                assert client.stats().stats.queries_served == 0
                assert client.run(queries[0]).relation == simulation(queries[0], graph)


    def test_a_mutate_frame_over_the_op_cap_is_refused(self, instance):
        """A MUTATE of MAX_MUTATE_OPS + 1 updates is a WireFormatError at
        decode: one ERROR frame (seq 0), a hang-up, nothing applied, and the
        next client is served.  The client refuses to send such a batch."""
        graph, frag, queries = instance
        ops = (DeleteEdge(*next(iter(graph.edges()))),) * (protocol.MAX_MUTATE_OPS + 1)
        with serve_in_thread(frag, backend="thread", n_workers=2) as srv:
            with socket.create_connection(srv.address, timeout=JOIN_TIMEOUT) as sock:
                sock.sendall(_frame(FrameKind.MUTATE, _struct("MutateRequest", ops)))
                events = _drain(sock)  # returns on the server's hang-up
            assert [(k, seq) for k, seq, _ in events] == [(FrameKind.ERROR, 0)]
            assert events[0][2].kind == "WireFormatError"
            assert "MutateRequest.ops must hold at most 4096" in events[0][2].message
            assert srv.ingress.server.stamp == 0
            with SessionClient(*srv.address, timeout=60.0) as client:
                with pytest.raises(WireFormatError):
                    client.apply(list(ops))
                assert client.run(queries[0]).relation == simulation(queries[0], graph)
            assert srv.ingress.server.stamp == 0

    def test_a_request_past_the_inflight_cap_is_refused(self, instance, monkeypatch):
        """With MAX_INFLIGHT requests of one connection held in the pool, the
        next frame is answered at once with Overloaded on its own seq; the
        held ones are answered after the release, and the connection keeps
        serving."""
        graph, frag, queries = instance
        monkeypatch.setattr(server_module, "MAX_INFLIGHT", 2)
        with serve_in_thread(frag, backend="thread", n_workers=2) as srv:
            _, release = _hold(srv.ingress.server.session, "_touched_fids", monkeypatch)

            async def scenario():
                async with await AsyncSessionClient.connect(*srv.address) as client:
                    runs = [
                        asyncio.create_task(client.run(q, algorithm="dgpm"))
                        for q in queries
                    ]
                    try:
                        with pytest.raises(Overloaded):
                            await asyncio.wait_for(runs[2], JOIN_TIMEOUT)
                        assert not runs[0].done() and not runs[1].done()
                    finally:
                        release.set()
                    held = await asyncio.wait_for(
                        asyncio.gather(*runs[:2]), JOIN_TIMEOUT
                    )
                    return held, await client.run(queries[2], algorithm="dgpm")

            held, retried = asyncio.run(scenario())
        for q, result in zip(queries, [*held, retried]):
            assert result.relation == simulation(q, graph)


def _record_threads(obj, name: str, monkeypatch) -> List[int]:
    """Wrap ``obj.name`` to record the thread id of every call."""
    threads: List[int] = []
    original = getattr(obj, name)

    def recording(*args, **kwargs):
        threads.append(threading.get_ident())
        return original(*args, **kwargs)

    monkeypatch.setattr(obj, name, recording)
    return threads


class TestWhereABatchIsApplied:
    """A MUTATE that needs no wait is applied on the ingress loop; any other
    one on a thread, with the same stamps either way."""

    def test_a_free_batch_is_applied_on_the_loop(self, instance, monkeypatch):
        graph, frag, queries = instance
        edges = list(graph.edges())
        with serve_in_thread(frag, backend="thread", n_workers=2) as srv:
            applied_on = _record_threads(
                srv.ingress.server.session, "apply", monkeypatch
            )
            hops = _record_threads(srv._loop, "run_in_executor", monkeypatch)
            with SessionClient(*srv.address, timeout=60.0) as client:
                outcomes = client.apply([DeleteEdge(*edges[0]), DeleteEdge(*edges[1])])
                assert [o.stamp for o in outcomes] == [1, 2]
                result = client.run(queries[0], algorithm="dgpm")
            assert applied_on == [srv._thread.ident] * 2
            assert hops == []
            assert result.stamp == 2
            assert result.relation == simulation(queries[0], graph)

    def test_a_batch_beside_a_reader_waits_on_a_thread(self, instance, monkeypatch):
        """The MUTATE falls back to a thread and waits there for the held
        read; meanwhile the loop still answers another connection."""
        graph, frag, queries = instance
        edge = next(iter(graph.edges()))
        before = simulation(queries[0], graph)
        with serve_in_thread(frag, backend="thread", n_workers=2) as srv:
            server = srv.ingress.server
            cond = server._gate._cond = _SignallingCondition()
            applied_on = _record_threads(server.session, "apply", monkeypatch)
            entered, release = _hold(server.session, "_touched_fids", monkeypatch)
            results = {}

            def call(name, request):
                with SessionClient(*srv.address, timeout=60.0) as client:
                    results[name] = request(client)

            read = threading.Thread(
                target=call,
                args=("read", lambda c: c.run(queries[0], algorithm="dgpm")),
            )
            write = threading.Thread(
                target=call, args=("write", lambda c: c.apply([DeleteEdge(*edge)])[0])
            )
            read.start()
            try:
                assert entered.wait(JOIN_TIMEOUT)  # the miss holds the read lock
                write.start()
                assert cond.waited.wait(JOIN_TIMEOUT)  # the batch waits for it
                assert applied_on == [] and server.stamp == 0
                with SessionClient(*srv.address, timeout=60.0) as other:
                    assert other.hello().role == "server"
            finally:
                release.set()
            for thread in (read, write):
                thread.join(JOIN_TIMEOUT)
                assert not thread.is_alive(), "request deadlocked"
            assert results["read"].stamp == 0
            assert results["read"].relation == before
            assert results["write"].stamp == 1
            assert len(applied_on) == 1 and applied_on[0] != srv._thread.ident

    def test_a_batch_over_the_inline_cap_is_applied_off_the_loop(
        self, instance, monkeypatch
    ):
        """A MUTATE of more than INLINE_MAX_OPS updates goes to a thread even
        when nothing else runs: while it applies, the loop still answers a
        HELLO on another connection."""
        graph, frag, _ = instance
        edges = list(graph.edges())[: INLINE_MAX_OPS + 1]
        with serve_in_thread(frag, backend="thread", n_workers=2) as srv:
            session = srv.ingress.server.session
            entered, release = _hold(session, "apply", monkeypatch)
            applied_on = _record_threads(session, "apply", monkeypatch)
            results = {}

            def mutate() -> None:
                with SessionClient(*srv.address, timeout=60.0) as client:
                    results["outcomes"] = client.apply(
                        [DeleteEdge(*edge) for edge in edges]
                    )

            writer = threading.Thread(target=mutate)
            writer.start()
            try:
                assert entered.wait(JOIN_TIMEOUT)  # the batch is applying
                # A loop stuck in the batch would time this out instead.
                with SessionClient(*srv.address, timeout=10.0) as other:
                    assert other.hello().role == "server"
                assert applied_on[0] != srv._thread.ident
            finally:
                release.set()
            writer.join(JOIN_TIMEOUT)
            assert not writer.is_alive(), "writer deadlocked"
            assert [o.stamp for o in results["outcomes"]] == list(
                range(1, len(edges) + 1)
            )
            assert len(set(applied_on)) == 1 and len(applied_on) == len(edges)

    def test_a_sharded_batch_is_applied_off_the_loop(self, instance, monkeypatch):
        graph, frag, queries = instance
        edge = next(iter(graph.edges()))
        with serve_in_thread(frag, backend="sharded", n_workers=2) as srv:
            server = srv.ingress.server
            assert server.apply_if_free([DeleteEdge(*edge)]) is None
            assert server.stamp == 0 and graph.has_edge(*edge)
            applied_on = _record_threads(server.session, "apply", monkeypatch)
            with SessionClient(*srv.address, timeout=60.0) as client:
                assert client.apply([DeleteEdge(*edge)])[0].stamp == 1
                result = client.run(queries[0], algorithm="dgpm")
            assert len(applied_on) == 1 and applied_on[0] != srv._thread.ident
            assert result.relation == simulation(queries[0], graph)


class TestErrorsOverTheWire:
    def test_non_repro_exception_surfaces_as_transport_error(self, instance):
        """Only repro.errors classes are rebuilt client-side; anything else
        arrives as a TransportError naming the class and its message."""
        graph, frag, queries = instance
        unhashable = Pattern({"a": ["x"]})  # the server cannot intern its label
        with serve_in_thread(frag, backend="thread", n_workers=2) as srv:
            with SessionClient(*srv.address, timeout=60.0) as client:
                with pytest.raises(TransportError, match=r"server error \(\w+\): ") as info:
                    client.run(unhashable)
                assert type(info.value) is TransportError
                assert client.run(queries[0]).stamp == 0  # connection survives

    def test_mutation_batch_error_keeps_its_fields(self, instance):
        graph, frag, queries = instance
        edges = list(graph.edges())
        batch = [DeleteEdge(*edges[0]), DeleteEdge(*edges[0]), DeleteEdge(*edges[1])]
        with serve_in_thread(frag, backend="thread", n_workers=2) as srv:
            with SessionClient(*srv.address, timeout=60.0) as client:
                with pytest.raises(MutationBatchError) as info:
                    client.apply(batch)
                error = info.value
                assert [o.stamp for o in error.applied] == [1]
                assert error.applied[0].outcome.kind == "delete"
                assert error.failed_op == DeleteEdge(*edges[0])
                assert isinstance(error.__cause__, GraphError)
                assert client.stats().stamp == 1


class TestReconnectPolicy:
    def test_bounded_retry_restores_service_after_restart(self, instance):
        """The dead-peer fix: with ``reconnect=``, a server restart costs
        one failed request, then bounded redial restores service."""
        from repro.runtime.transport import RetryPolicy

        graph, frag, queries = instance
        srv = serve_in_thread(frag, backend="thread", n_workers=2)
        host, port = srv.address
        client = SessionClient(
            host, port, timeout=60.0,
            reconnect=RetryPolicy(attempts=5, backoff_s=0.05),
        )
        try:
            before = client.run(queries[0], algorithm="dgpm")
            srv.close()
            # the request the break struck still fails (its reply can no
            # longer be trusted to pair up) ...
            with pytest.raises(TransportError):
                client.run(queries[0], algorithm="dgpm")
            srv = serve_in_thread(frag, backend="thread", n_workers=2, port=port)
            # ... but the next one redials and serves
            after = client.run(queries[0], algorithm="dgpm")
            assert after.relation == before.relation
            assert after.stamp == 0
        finally:
            client.close()
            srv.close()

    def test_redial_exhaustion_is_bounded(self, instance):
        """With nothing listening, the redial gives up after the policy's
        attempts instead of spinning forever."""
        from repro.runtime.transport import RetryPolicy

        graph, frag, queries = instance
        srv = serve_in_thread(frag, backend="thread", n_workers=2)
        host, port = srv.address
        client = SessionClient(
            host, port, timeout=60.0,
            reconnect=RetryPolicy(attempts=2, backoff_s=0.01),
        )
        try:
            client.run(queries[0], algorithm="dgpm")
            srv.close()
            with pytest.raises(TransportError):
                client.run(queries[0], algorithm="dgpm")
            with pytest.raises(TransportError, match="2 attempts"):
                client.run(queries[0], algorithm="dgpm")
            # a later restart still rescues the client: not permanently broken
            srv = serve_in_thread(frag, backend="thread", n_workers=2, port=port)
            assert client.run(queries[0], algorithm="dgpm").stamp == 0
        finally:
            client.close()
            srv.close()

    def test_an_exhausted_redial_sleeps_no_backoff_after_its_last_try(self, instance):
        """The backoff separates tries: a one-try policy with a 1 s backoff
        gives up as soon as its one dial is refused."""
        from repro.runtime.transport import RetryPolicy

        graph, frag, queries = instance
        srv = serve_in_thread(frag, backend="thread", n_workers=2)
        client = SessionClient(
            *srv.address, timeout=60.0,
            reconnect=RetryPolicy(attempts=1, backoff_s=1.0),
        )
        try:
            client.run(queries[0], algorithm="dgpm")
            srv.close()
            with pytest.raises(TransportError):
                client.run(queries[0], algorithm="dgpm")
            begin = time.monotonic()
            with pytest.raises(TransportError, match="1 attempts"):
                client.run(queries[0], algorithm="dgpm")
            assert time.monotonic() - begin < 0.5
        finally:
            client.close()
            srv.close()

    def test_without_policy_break_is_permanent(self, instance):
        """The original conservative semantics are unchanged by default."""
        graph, frag, queries = instance
        srv = serve_in_thread(frag, backend="thread", n_workers=2)
        host, port = srv.address
        client = SessionClient(host, port, timeout=60.0)
        try:
            client.run(queries[0], algorithm="dgpm")
            srv.close()
            with pytest.raises(TransportError):
                client.run(queries[0], algorithm="dgpm")
            srv = serve_in_thread(frag, backend="thread", n_workers=2, port=port)
            with pytest.raises(TransportError, match="closed"):
                client.run(queries[0], algorithm="dgpm")
        finally:
            client.close()
            srv.close()


class TestAsyncClient:
    def test_pipelined_parity(self, instance):
        graph, frag, queries = instance
        with serve_in_thread(frag, backend="thread", n_workers=4) as srv:
            host, port = srv.address

            async def scenario():
                async with await AsyncSessionClient.connect(host, port) as client:
                    results = await client.run_many(queries, algorithm="dgpm")
                    reply = await client.stats()
                    return results, reply

            results, reply = asyncio.run(scenario())
            for q, r in zip(queries, results):
                assert r.stamp == 0
                assert r.relation == simulation(q, graph)
            assert reply.stats.queries_served >= len(queries)

    def test_async_hello_handshake(self, instance):
        graph, frag, queries = instance
        with serve_in_thread(frag, backend="thread", n_workers=2) as srv:
            host, port = srv.address

            async def scenario():
                async with await AsyncSessionClient.connect(host, port) as client:
                    return await client.hello()

            assert asyncio.run(scenario()).role == "server"

    def test_async_mutations_and_errors(self, instance):
        graph, frag, queries = instance
        with serve_in_thread(frag, backend="thread", n_workers=4) as srv:
            host, port = srv.address
            edges = list(graph.edges())

            async def scenario():
                async with await AsyncSessionClient.connect(host, port) as client:
                    outcome = (await client.apply([DeleteEdge(*edges[0])]))[0]
                    assert outcome.stamp == 1
                    with pytest.raises(GraphError):
                        await client.apply([DeleteEdge(*edges[0])])  # already gone
                    result = await client.run(queries[0], algorithm="dgpm")
                    assert result.stamp == 1
                    return result

            result = asyncio.run(scenario())
            assert result.relation == simulation(queries[0], graph)

    def test_connection_lost_fails_pending(self, instance):
        graph, frag, queries = instance
        srv = serve_in_thread(frag, backend="thread", n_workers=2)
        host, port = srv.address

        async def scenario():
            client = await AsyncSessionClient.connect(host, port)
            result = await client.run(queries[0], algorithm="dgpm")
            srv.close()  # server goes away under the client
            with pytest.raises(TransportError):
                for _ in range(20):
                    await client.run(queries[0], algorithm="dgpm")
            await client.aclose()
            return result

        try:
            result = asyncio.run(scenario())
            assert result.relation == simulation(queries[0], graph)
        finally:
            srv.close()


class TestSnapshotContractOverTheWire:
    def test_two_clients_and_a_feed_replay_exactly(self, instance):
        """The acceptance scenario: sync + asyncio clients under mutation.

        Every result any client observed must equal a from-scratch
        simulation at its stamp -- replayed update-prefix by update-prefix.
        """
        graph, frag, queries = instance
        initial = graph.copy()
        audited: List[Tuple[int, object]] = []
        ops: List[DeleteEdge] = []
        failures: List[BaseException] = []

        with serve_in_thread(frag, backend="thread", n_workers=4) as srv:
            host, port = srv.address

            def sync_reader() -> None:
                try:
                    with SessionClient(host, port, timeout=60.0) as client:
                        for i in range(8):
                            qi = i % len(queries)
                            audited.append(
                                (qi, client.run(queries[qi], algorithm="dgpm"))
                            )
                except BaseException as exc:
                    failures.append(exc)

            def feed() -> None:
                try:
                    with SessionClient(host, port, timeout=60.0) as client:
                        edges = list(initial.edges())
                        for u, v in edges[:4]:
                            client.apply([DeleteEdge(u, v)])
                            ops.append(DeleteEdge(u, v))
                except BaseException as exc:
                    failures.append(exc)

            def async_reader() -> None:
                async def scenario():
                    async with await AsyncSessionClient.connect(host, port) as c:
                        for _ in range(3):
                            results = await asyncio.gather(
                                *[c.run(q, algorithm="dgpm") for q in queries]
                            )
                            audited.extend(enumerate(results))

                try:
                    asyncio.run(scenario())
                except BaseException as exc:
                    failures.append(exc)

            threads = [
                threading.Thread(target=sync_reader),
                threading.Thread(target=feed),
                threading.Thread(target=async_reader),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=JOIN_TIMEOUT)
                assert not t.is_alive(), "a network client deadlocked"

        assert not failures, f"client failed: {failures[0]!r}"
        assert audited and ops
        oracles = {}
        for qi, result in audited:
            key = (qi, result.stamp)
            if key not in oracles:
                oracles[key] = simulation(
                    queries[qi], _replay(initial, ops, result.stamp)
                )
            assert result.relation == oracles[key], (
                f"query {qi} at stamp {result.stamp} diverged from the "
                f"from-scratch oracle"
            )


class TestHitsOnTheLoop:
    def test_repeated_hits_submit_nothing_to_the_pool(self, instance, monkeypatch):
        """Over TCP on the thread backend a repeated query is answered on
        the ingress loop: no executor hand-off per hit."""
        graph, frag, queries = instance
        with ConcurrentSessionServer(frag, backend="thread", n_workers=2) as server:
            server.run(queries[0], algorithm="dgpm")
            pooled: List[tuple] = []
            pool_submit = server._executor.submit

            def counting(*args, **kwargs):
                pooled.append(args)
                return pool_submit(*args, **kwargs)

            monkeypatch.setattr(server._executor, "submit", counting)
            expected = simulation(queries[0], graph)
            with serve_in_thread(server) as srv:
                with SessionClient(*srv.address, timeout=60.0) as client:
                    for _ in range(8):
                        result = client.run(queries[0], algorithm="dgpm")
                        assert result.relation == expected
                        assert result.metrics.extras["cache_hit"] == 1.0
            assert pooled == []
            assert server.stats.cache_hits == 8

    def test_auto_hit_never_settles_a_shape_fact_on_the_loop(self, monkeypatch):
        """Deleting the edge on the remembered cycle leaves acyclicity
        undecided; the next ``auto`` request must settle it on the pool (one
        cycle search), not on the ingress loop, and the one after is a hit
        on the loop again."""
        graph = DiGraph(
            {0: "A", 1: "B", 2: "A", 3: "B", 4: "X", 5: "X"},
            [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 4)],
        )
        frag = fragment_graph(graph, {0: 0, 1: 0, 2: 1, 3: 1, 4: 1, 5: 1})
        two_cycle = Pattern({"a": "A", "b": "B"}, [("a", "b"), ("b", "a")])
        with ConcurrentSessionServer(frag, backend="thread", n_workers=2) as server:
            assert server.run(two_cycle).metrics.algorithm.split("/")[0] == "dGPM"
            server.apply([DeleteEdge(5, 4)])  # the graph's only cycle
            assert graph._shape.acyclic is None
            scanned_on: List[str] = []
            find_cycle = DiGraph._find_cycle

            def recording(g):
                if g is graph:
                    scanned_on.append(threading.current_thread().name)
                return find_cycle(g)

            monkeypatch.setattr(DiGraph, "_find_cycle", recording)
            pooled: List[tuple] = []
            pool_submit = server._executor.submit

            def counting(*args, **kwargs):
                pooled.append(args)
                return pool_submit(*args, **kwargs)

            monkeypatch.setattr(server._executor, "submit", counting)
            with serve_in_thread(server) as srv:
                with SessionClient(*srv.address, timeout=60.0) as client:
                    first, second = client.run(two_cycle), client.run(two_cycle)
            assert len(scanned_on) == 1 and scanned_on[0].startswith("repro-serve")
            assert len(pooled) == 1
            for result in (first, second):
                assert result.metrics.algorithm.startswith("dGPMd")
                assert result.relation == simulation(two_cycle, graph)
            assert second.metrics.extras["cache_hit"] == 1.0


class TestIngressLifecycle:
    def test_fronting_an_existing_server_does_not_own_it(self, instance):
        graph, frag, queries = instance
        with ConcurrentSessionServer(frag, backend="thread", n_workers=2) as server:
            with serve_in_thread(server) as srv:
                with SessionClient(*srv.address, timeout=60.0) as client:
                    assert client.run(queries[0], algorithm="dgpm").stamp == 0
            # ingress gone; the serving stack must still be alive
            assert server.run(queries[0], algorithm="dgpm").stamp == 0

    def test_closed_ingress_refuses_new_connections(self, instance):
        graph, frag, queries = instance
        srv = serve_in_thread(frag, backend="thread", n_workers=2)
        address = srv.address
        srv.close()
        with pytest.raises(TransportError):
            SessionClient(*address, timeout=1.0).run(queries[0])

    def test_close_drains_inflight_requests(self, instance):
        """Requests accepted before shutdown still get their answers."""
        graph, frag, queries = instance
        srv = serve_in_thread(frag, backend="thread", n_workers=4)
        host, port = srv.address
        results: List[object] = []
        failures: List[BaseException] = []
        served = threading.Event()  # one answer arrived, or the reader ended

        def reader() -> None:
            try:
                with SessionClient(host, port, timeout=60.0) as client:
                    for q in queries * 2:
                        results.append(client.run(q, algorithm="dgpm"))
                        served.set()
            except TransportError:
                pass  # the goodbye raced shutdown; fine after >= 1 answer
            except BaseException as exc:
                failures.append(exc)
            finally:
                served.set()

        t = threading.Thread(target=reader)
        t.start()
        assert served.wait(JOIN_TIMEOUT)
        srv.close()
        t.join(timeout=JOIN_TIMEOUT)
        assert not t.is_alive(), "reader deadlocked across ingress shutdown"
        assert not failures, f"reader failed: {failures[0]!r}"
        assert results
        for r in results:
            assert r.relation is not None

    def test_rejects_kwargs_with_existing_server(self, instance):
        graph, frag, queries = instance
        with ConcurrentSessionServer(frag, backend="thread", n_workers=2) as server:
            with pytest.raises(ReproError, match="belong to"):
                NetworkSessionServer(server, n_workers=8)


class TestFullStackOverShardWorkers:
    def test_network_ingress_over_sharded_backend(self, instance):
        """The whole story at once: TCP clients -> asyncio ingress ->
        sharded backend -> shard worker processes."""
        graph, frag, queries = instance
        with serve_in_thread(frag, backend="sharded", n_workers=2) as srv:
            with SessionClient(*srv.address, timeout=120.0) as client:
                for q in queries:
                    result = client.run(q, algorithm="dgpm")
                    assert result.stamp == 0
                    assert result.relation == simulation(q, graph)
                outcome = client.apply([DeleteEdge(*list(graph.edges())[0])])[0]
                assert outcome.stamp == 1
                result = client.run(queries[0], algorithm="dgpm")
                assert result.stamp == 1
                assert result.relation == simulation(queries[0], graph)
