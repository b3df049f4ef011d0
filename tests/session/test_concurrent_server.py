"""Functional tests for :class:`ConcurrentSessionServer` (thread backend).

The stress/linearizability suite lives in ``test_concurrent_stress.py`` and
the sharded backend's in ``test_sharding.py`` / ``test_sharded_faults.py``;
here we pin down the API surface: stamps, batch atomicity, coalescing,
error propagation, and lifecycle.
"""

from __future__ import annotations

import sys
import threading
from typing import List, Tuple

import pytest

from repro import (
    ConcurrentSessionServer,
    SimulationSession,
    partition,
    simulation,
    web_graph,
)
from repro.bench.workloads import cyclic_pattern
from repro.errors import GraphError, MutationBatchError, ReproError
from repro.graph.mutations import DeleteEdge
from repro.graph.pattern import Pattern
from repro.session.concurrent import _GateState, _WriteTicket


@pytest.fixture()
def small_instance():
    graph = web_graph(150, 600, n_labels=5, seed=17)
    frag = partition(graph, 3, seed=17)
    queries = [cyclic_pattern(graph, 3, 4, seed=s) for s in range(3)]
    return graph, frag, queries


class TestThreadBackend:
    def test_parity_and_zero_stamp(self, small_instance):
        graph, frag, queries = small_instance
        with ConcurrentSessionServer(frag, backend="thread", n_workers=4) as server:
            results = server.run_many(queries, algorithm="dgpm")
            for q, r in zip(queries, results):
                assert r.stamp == 0
                assert r.relation == simulation(q, graph)

    def test_stamps_advance_per_mutation(self, small_instance):
        graph, frag, queries = small_instance
        with ConcurrentSessionServer(frag, backend="thread", n_workers=2) as server:
            edges = list(graph.edges())
            first = server.delete_edge(*edges[0])
            second = server.delete_edge(*edges[1])
            assert (first.stamp, second.stamp) == (1, 2)
            assert server.stamp == 2
            r = server.run(queries[0], algorithm="dgpm")
            assert r.stamp == 2
            assert r.relation == simulation(queries[0], graph)

    def test_apply_batch_is_atomic_to_readers(self, small_instance):
        """A batch's intermediate stamps are never observed by any query."""
        graph, frag, queries = small_instance
        with ConcurrentSessionServer(frag, backend="thread", n_workers=4) as server:
            edges = list(graph.edges())
            batch = [DeleteEdge(*edges[0]), DeleteEdge(*edges[1]), DeleteEdge(*edges[2])]
            stop = threading.Event()
            seen = []
            errors = []

            def hammer():
                while not stop.is_set():
                    try:
                        seen.append(server.run(queries[0], algorithm="dgpm").stamp)
                    except Exception as exc:  # pragma: no cover - fail loudly
                        errors.append(exc)
                        return

            readers = [threading.Thread(target=hammer) for _ in range(3)]
            for t in readers:
                t.start()
            outcomes = server.apply(batch)
            stop.set()
            for t in readers:
                t.join(timeout=30)
                assert not t.is_alive(), "reader deadlocked"
            assert not errors
            assert [o.stamp for o in outcomes] == [1, 2, 3]
            assert set(seen) <= {0, 3}, f"intermediate stamp observed: {sorted(set(seen))}"

    def test_mutation_error_does_not_wedge_writes(self, small_instance):
        graph, frag, queries = small_instance
        with ConcurrentSessionServer(frag, backend="thread") as server:
            with pytest.raises(GraphError):
                server.delete_edge("nope", "also-nope")
            # The writer path must stay serviceable after a failed ticket.
            edge = next(iter(graph.edges()))
            assert server.delete_edge(*edge).stamp == 1
            assert server.run(queries[0], algorithm="dgpm").stamp == 1

    def test_a_failed_drain_gives_up_only_the_drainer_role(
        self, small_instance, monkeypatch
    ):
        """A drain aborted by a non-Exception (an interrupt) reports it on its
        tickets and releases the drainer role, and nothing else: another
        writer's hold stays held."""
        graph, frag, _ = small_instance
        edges = list(graph.edges())

        class Interrupt(BaseException):
            pass

        def interrupted(batch, wait=True):
            raise Interrupt

        with ConcurrentSessionServer(frag, backend="thread") as server:
            monkeypatch.setattr(server, "_apply_batch", interrupted)
            with server._gate.writing():  # another writer, e.g. a rebalance
                with pytest.raises(Interrupt):
                    server.delete_edge(*edges[0])
                assert server._gate._state == _GateState(writer=True)
            monkeypatch.undo()
            assert server._gate._state == _GateState()
            assert server.delete_edge(*edges[1]).stamp == 1

    def test_partial_batch_failure_reports_applied_prefix(self, small_instance):
        """A batch failing midway raises MutationBatchError carrying the
        stamped prefix; the prefix stays applied and serving continues."""
        graph, frag, queries = small_instance
        edges = list(graph.edges())
        with ConcurrentSessionServer(frag, backend="thread") as server:
            bad_batch = [
                DeleteEdge(*edges[0]),
                DeleteEdge(*edges[0]),  # already gone -> fails here
                DeleteEdge(*edges[1]),  # never attempted
            ]
            with pytest.raises(MutationBatchError) as excinfo:
                server.apply(bad_batch)
            error = excinfo.value
            assert [o.stamp for o in error.applied] == [1]
            assert error.failed_op == DeleteEdge(*edges[0])
            assert isinstance(error.__cause__, GraphError)
            assert server.stamp == 1
            assert not graph.has_edge(*edges[0])
            assert graph.has_edge(*edges[1])  # tail op never ran
            result = server.run(queries[0], algorithm="dgpm")
            assert result.stamp == 1
            assert result.relation == simulation(queries[0], graph)

    def test_wrapping_an_existing_session(self, small_instance):
        _, frag, queries = small_instance
        session = SimulationSession(frag)
        session.run(queries[0], algorithm="dgpm")  # pre-warmed entry
        with ConcurrentSessionServer(session, backend="thread") as server:
            r = server.run(queries[0], algorithm="dgpm")
            assert r.metrics.extras.get("cache_hit") == 1.0  # shared cache
        with pytest.raises(ReproError, match="config"):
            ConcurrentSessionServer(session, cache_size=4)

    def test_submit_returns_futures(self, small_instance):
        graph, frag, queries = small_instance
        with ConcurrentSessionServer(frag, backend="thread", n_workers=4) as server:
            futures = [server.submit(q, algorithm="dgpm") for q in queries]
            for q, f in zip(queries, futures):
                assert f.result(timeout=60).relation == simulation(q, graph)

    def test_closed_server_rejects_work(self, small_instance):
        _, frag, queries = small_instance
        server = ConcurrentSessionServer(frag, backend="thread")
        server.close()
        server.close()  # idempotent
        with pytest.raises(ReproError, match="closed"):
            server.submit(queries[0])
        with pytest.raises(ReproError, match="closed"):
            server.delete_edge(0, 1)

    def test_rejects_unknown_backend_and_sources(self, small_instance):
        _, frag, _ = small_instance
        for unknown in ("fiber", "process"):
            with pytest.raises(ReproError, match="known: thread, sharded"):
                ConcurrentSessionServer(frag, backend=unknown)
        with pytest.raises(ReproError, match="n_workers"):
            ConcurrentSessionServer(frag, n_workers=0)
        with pytest.raises(ReproError, match="cannot serve"):
            ConcurrentSessionServer("not a fragmentation")

    def test_concurrent_writers_all_apply(self, small_instance):
        """Mutations racing from many threads serialize; stamps are unique
        and the final graph reflects every applied update."""
        graph, frag, _ = small_instance
        edges = list(graph.edges())[:8]
        stamps = []
        with ConcurrentSessionServer(frag, backend="thread", n_workers=4) as server:
            def delete(edge):
                stamps.append(server.delete_edge(*edge).stamp)

            threads = [threading.Thread(target=delete, args=(e,)) for e in edges]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive(), "writer deadlocked"
            assert sorted(stamps) == list(range(1, len(edges) + 1))
            assert server.stamp == len(edges)
            for u, v in edges:
                assert not graph.has_edge(u, v)
            frag.validate()


JOIN_TIMEOUT = 60.0


def _hold(obj, name: str, monkeypatch) -> Tuple[threading.Event, threading.Event]:
    """Make ``obj.name(...)`` signal ``entered`` and then wait for
    ``release`` before running; returns ``(entered, release)``."""
    entered, release = threading.Event(), threading.Event()
    original = getattr(obj, name)

    def held(*args, **kwargs):
        entered.set()
        release.wait(JOIN_TIMEOUT)
        return original(*args, **kwargs)

    monkeypatch.setattr(obj, name, held)
    return entered, release


class _SignallingCondition(threading.Condition):
    """A condition variable that reports the first caller to wait on it."""

    def __init__(self) -> None:
        super().__init__()
        self.waited = threading.Event()

    def wait(self, timeout=None):
        self.waited.set()
        return super().wait(timeout)


class TestHitsOnTheCallingThread:
    """A cache hit that needs no wait is answered inside submit(); every
    other request keeps the pool path and the snapshot contract."""

    def test_hit_overtakes_a_running_miss_at_width_one(
        self, small_instance, monkeypatch
    ):
        graph, frag, queries = small_instance
        with ConcurrentSessionServer(frag, backend="thread", n_workers=1) as server:
            server.run(queries[0], algorithm="dgpm")
            # The only pool thread parks inside a miss's compute.
            entered, release = _hold(server.session, "_touched_fids", monkeypatch)
            try:
                miss = server.submit(queries[1], algorithm="dgpm")
                assert entered.wait(JOIN_TIMEOUT)
                hit = server.submit(queries[0], algorithm="dgpm")
                assert hit.done(), "the hit queued behind the running miss"
                assert hit.result().relation == simulation(queries[0], graph)
                assert not miss.done()
            finally:
                release.set()
            assert miss.result(timeout=JOIN_TIMEOUT).relation == simulation(
                queries[1], graph
            )

    @pytest.mark.parametrize("writer", ["active", "waiting"])
    def test_hit_beside_a_writer_takes_the_pool_and_the_post_batch_stamp(
        self, small_instance, monkeypatch, writer
    ):
        graph, frag, queries = small_instance
        edge = next(iter(graph.edges()))
        with ConcurrentSessionServer(frag, backend="thread", n_workers=2) as server:
            cond = server._gate._cond = _SignallingCondition()
            server.run(queries[0], algorithm="dgpm")
            write = threading.Thread(target=server.delete_edge, args=edge)
            if writer == "active":
                entered, release = _hold(server.session, "apply", monkeypatch)
                write.start()
                assert entered.wait(JOIN_TIMEOUT)  # the batch holds the lock
            else:
                # A reader parked in a miss makes the arriving writer wait.
                entered, release = _hold(
                    server.session, "_touched_fids", monkeypatch
                )
                server.submit(queries[1], algorithm="dgpm")
                assert entered.wait(JOIN_TIMEOUT)
                write.start()
                assert cond.waited.wait(JOIN_TIMEOUT)
            try:
                hit = server.submit(queries[0], algorithm="dgpm")
                assert not hit.done(), "a hit was served past a writer"
            finally:
                release.set()
            write.join(timeout=JOIN_TIMEOUT)
            assert not write.is_alive(), "writer deadlocked"
            result = hit.result(timeout=JOIN_TIMEOUT)
            assert result.stamp == 1
            assert result.relation == simulation(queries[0], graph)

    def test_each_request_is_counted_once_on_either_path(
        self, small_instance, monkeypatch
    ):
        _, frag, queries = small_instance
        with ConcurrentSessionServer(frag, backend="thread", n_workers=2) as server:
            server.run(queries[0], algorithm="dgpm")  # miss, on the pool
            server.run(queries[0], algorithm="dgpm")  # hit, inline
            # Two identical misses at once: the second's lookup fails while
            # the first computes, then it coalesces onto that compute on the
            # pool -- one miss and one hit, each counted once.
            entered, release = _hold(server.session, "_touched_fids", monkeypatch)
            try:
                first = server.submit(queries[1], algorithm="dgpm")
                assert entered.wait(JOIN_TIMEOUT)
                second = server.submit(queries[1], algorithm="dgpm")
            finally:
                release.set()
            first.result(timeout=JOIN_TIMEOUT)
            assert second.result(timeout=JOIN_TIMEOUT).metrics.extras["cache_hit"]
            stats = server.stats.snapshot()
            cache = server.session._cache.stats
        assert (stats.queries_served, stats.cache_hits, stats.cache_misses) == (4, 2, 2)
        assert (cache.hits, cache.misses) == (2, 2)

    def test_a_failed_compute_is_served_but_neither_hit_nor_miss(
        self, small_instance, monkeypatch
    ):
        _, frag, queries = small_instance
        with ConcurrentSessionServer(frag, backend="thread") as server:

            def failing(relation):
                raise RuntimeError("compute failed")

            monkeypatch.setattr(server.session, "_touched_fids", failing)
            with pytest.raises(RuntimeError, match="compute failed"):
                server.run(queries[0], algorithm="dgpm")
            stats = server.stats.snapshot()
        assert (stats.queries_served, stats.cache_hits, stats.cache_misses) == (1, 0, 0)

    def test_lookup_errors_arrive_through_the_future(self, small_instance):
        _, frag, queries = small_instance
        with ConcurrentSessionServer(frag, backend="thread") as server:
            server.run(queries[0], algorithm="dgpm")
            future = server.submit(queries[0], algorithm="no-such-algorithm")
            with pytest.raises(ReproError, match="unknown algorithm"):
                future.result(timeout=JOIN_TIMEOUT)

    def test_stale_fragmentation_is_revalidated_on_the_pool(
        self, small_instance, monkeypatch
    ):
        graph, frag, queries = small_instance
        with ConcurrentSessionServer(frag, backend="thread", n_workers=1) as server:
            server.run(queries[0], algorithm="dgpm")
            frag.delete_edge(*next(iter(graph.edges())))  # around the server
            validated_on: List[str] = []
            validate = frag.validate

            def recording() -> None:
                validated_on.append(threading.current_thread().name)
                validate()

            monkeypatch.setattr(frag, "validate", recording)
            result = server.run(queries[0], algorithm="dgpm")
            assert result.relation == simulation(queries[0], graph)
            assert len(validated_on) == 1
            assert validated_on[0].startswith("repro-serve")
            assert server.stats.invalidations == 1

    def test_snapshots_never_see_a_request_half_counted(self, small_instance):
        """Hits and misses from more threads than cores, traffic windows
        reset under them: every snapshot adds up and encodes."""
        from repro.net import codec, protocol

        _, frag, queries = small_instance
        stop = threading.Event()
        errors: List[BaseException] = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ConcurrentSessionServer(frag, backend="thread", n_workers=4) as server:

                def read(offset: int) -> None:
                    try:
                        while not stop.is_set():
                            for q in queries[offset:] + queries[:offset]:
                                server.run(q, algorithm="dgpm")
                            server.stats.reset_fragment_traffic()
                    except BaseException as exc:  # pragma: no cover
                        errors.append(exc)

                readers = [
                    threading.Thread(target=read, args=(i % len(queries),))
                    for i in range(6)
                ]
                for t in readers:
                    t.start()
                try:
                    for _ in range(300):
                        stats = server.stats.snapshot()
                        assert stats.cache_hits + stats.cache_misses == (
                            stats.queries_served
                        )
                        reply = protocol.StatsReply(stats, 0, "thread", 4)
                        assert codec.decode(codec.encode(reply)) == reply
                finally:
                    stop.set()
                    for t in readers:
                        t.join(timeout=JOIN_TIMEOUT)
                        assert not t.is_alive(), "reader deadlocked"
        finally:
            sys.setswitchinterval(interval)
        assert not errors, f"reader failed: {errors[0]!r}"


def _twin_servers(graph):
    """Two thread-backend servers over equal copies of ``graph``."""
    return [
        ConcurrentSessionServer(partition(graph.copy(), 3, seed=17), backend="thread")
        for _ in range(2)
    ]


class TestBatchesOnTheCallingThread:
    """apply_if_free() applies a batch that needs no wait where it is
    called, through the drainer's code; any other batch is left alone."""

    def test_a_free_batch_is_applied_here_with_the_drainers_stamps(
        self, small_instance
    ):
        graph, frag, queries = small_instance
        edges = list(graph.edges())
        with ConcurrentSessionServer(frag, backend="thread") as server:
            pushed = []
            server.subscribe(
                queries[0], lambda *push: pushed.append(threading.get_ident())
            )
            batch = [DeleteEdge(*edges[0]), DeleteEdge(*edges[1])]
            outcomes = server.apply_if_free(batch)
            assert [o.stamp for o in outcomes] == [1, 2]
            assert server.stamp == 2
            assert not graph.has_edge(*edges[0]) and not graph.has_edge(*edges[1])
            assert set(pushed) <= {threading.get_ident()}
            assert server.apply_if_free([]) == []
            result = server.run(queries[0], algorithm="dgpm")
            assert result.stamp == 2
            assert result.relation == simulation(queries[0], graph)

    @pytest.mark.parametrize(
        "busy", ["drainer-applying", "drainer-between-batches", "ticket-queued", "reader"]
    )
    def test_a_batch_that_must_wait_is_not_applied(
        self, small_instance, monkeypatch, busy
    ):
        """None, and no side effect on the stamp, the graph or the queue."""
        graph, frag, queries = small_instance
        edges = list(graph.edges())
        with ConcurrentSessionServer(frag, backend="thread", n_workers=2) as server:
            held = reading = None
            release = threading.Event()
            if busy == "drainer-applying":
                entered, release = _hold(server.session, "apply", monkeypatch)
                held = threading.Thread(target=server.delete_edge, args=edges[0])
                held.start()
                assert entered.wait(JOIN_TIMEOUT)
            elif busy == "reader":
                entered, release = _hold(server.session, "_touched_fids", monkeypatch)
                reading = server.submit(queries[0], algorithm="dgpm")
                assert entered.wait(JOIN_TIMEOUT)
            # The other two hold the lock free, so that one check alone must
            # refuse: set up by hand, as a drainer looks between two of its
            # batches, and a ticket queued with no drainer yet.
            elif busy == "drainer-between-batches":
                server._gate._state = _GateState(applying=())
            else:
                server._gate._state = _GateState(
                    queue=(_WriteTicket([DeleteEdge(*edges[0])]),)
                )
            try:
                stamp = server.stamp
                gate = server._gate._state
                assert server.apply_if_free([DeleteEdge(*edges[1])]) is None
                assert server.stamp == stamp
                assert graph.has_edge(*edges[1])
                assert server._gate._state == gate
            finally:
                release.set()
                if held is None and reading is None:
                    server._gate._state = _GateState()
            if held is not None:
                held.join(JOIN_TIMEOUT)
                assert not held.is_alive(), "writer deadlocked"
            if reading is not None:
                reading.result(timeout=JOIN_TIMEOUT)
            # Once free again, the same batch is applied here.
            outcomes = server.apply_if_free([DeleteEdge(*edges[1])])
            assert [o.stamp for o in outcomes] == [server.stamp]

    def test_a_ticket_queued_meanwhile_is_drained_after_it(
        self, small_instance, monkeypatch
    ):
        graph, frag, _ = small_instance
        edges = list(graph.edges())
        with ConcurrentSessionServer(frag, backend="thread") as server:
            cond = server._gate._cond = _SignallingCondition()
            entered, release = _hold(server.session, "apply", monkeypatch)
            results = {}
            inline = threading.Thread(
                target=lambda: results.update(
                    inline=server.apply_if_free([DeleteEdge(*edges[0])])
                )
            )
            inline.start()
            try:
                assert entered.wait(JOIN_TIMEOUT)  # inside the inline batch
                queued = threading.Thread(
                    target=lambda: results.update(
                        queued=server.delete_edge(*edges[1])
                    )
                )
                queued.start()
                assert cond.waited.wait(JOIN_TIMEOUT)  # its owner waits for us
                assert server.stamp == 0 and graph.has_edge(*edges[1])
            finally:
                release.set()
            for thread in (inline, queued):
                thread.join(JOIN_TIMEOUT)
                assert not thread.is_alive(), "writer deadlocked"
            assert [o.stamp for o in results["inline"]] == [1]
            assert results["queued"].stamp == 2
            assert server._gate._state == _GateState()

    def test_close_waits_for_an_inline_batch(self, small_instance, monkeypatch):
        graph, frag, _ = small_instance
        edge = next(iter(graph.edges()))
        server = ConcurrentSessionServer(frag, backend="thread")
        cond = server._gate._cond = _SignallingCondition()
        entered, release = _hold(server.session, "apply", monkeypatch)
        results = {}
        inline = threading.Thread(
            target=lambda: results.update(inline=server.apply_if_free([DeleteEdge(*edge)]))
        )
        inline.start()
        try:
            assert entered.wait(JOIN_TIMEOUT)
            closing = threading.Thread(target=server.close)
            closing.start()
            assert cond.waited.wait(JOIN_TIMEOUT)  # close() waits for the batch
            assert closing.is_alive()
        finally:
            release.set()
        for thread in (inline, closing):
            thread.join(JOIN_TIMEOUT)
            assert not thread.is_alive(), "close deadlocked"
        assert [o.stamp for o in results["inline"]] == [1]
        assert not graph.has_edge(*edge)
        with pytest.raises(ReproError, match="closed"):
            server.apply_if_free([DeleteEdge(*edge)])

    def test_inline_and_drained_batches_race_without_loss(self, small_instance):
        """More writers than cores, half trying apply_if_free first, beside
        readers: every op gets its own stamp, none is lost, none deadlocks."""
        graph, frag, queries = small_instance
        edges = list(graph.edges())[:48]
        stamps: List[int] = []
        errors: List[BaseException] = []
        stop = threading.Event()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ConcurrentSessionServer(frag, backend="thread", n_workers=4) as server:

                def write(i: int) -> None:
                    try:
                        for edge in edges[i::8]:
                            ops = [DeleteEdge(*edge)]
                            outcomes = server.apply_if_free(ops) if i % 2 else None
                            if outcomes is None:
                                outcomes = server.apply(ops)
                            stamps.extend(o.stamp for o in outcomes)
                    except BaseException as exc:  # pragma: no cover
                        errors.append(exc)

                def read() -> None:
                    while not stop.is_set():
                        server.run(queries[0], algorithm="dgpm")

                writers = [threading.Thread(target=write, args=(i,)) for i in range(8)]
                readers = [threading.Thread(target=read) for _ in range(2)]
                for t in writers + readers:
                    t.start()
                for t in writers:
                    t.join(timeout=JOIN_TIMEOUT)
                    assert not t.is_alive(), "writer deadlocked"
                stop.set()
                for t in readers:
                    t.join(timeout=JOIN_TIMEOUT)
                    assert not t.is_alive(), "reader deadlocked"
                assert not errors, f"writer failed: {errors[0]!r}"
                assert sorted(stamps) == list(range(1, len(edges) + 1))
                assert server.stamp == len(edges)
                assert server._gate._state == _GateState()
                result = server.run(queries[0], algorithm="dgpm")
                assert result.relation == simulation(queries[0], graph)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("position", ["first-op", "mid-batch"])
    def test_errors_are_apply_s_errors(self, small_instance, position):
        graph, _, _ = small_instance
        edges = list(graph.edges())
        missing = DeleteEdge("nope", "also-nope")
        batch = (
            [missing]
            if position == "first-op"
            else [DeleteEdge(*edges[0]), missing, DeleteEdge(*edges[1])]
        )
        inline, drained = _twin_servers(graph)
        with inline, drained:
            with pytest.raises(ReproError) as got:
                inline.apply_if_free(batch)
            with pytest.raises(ReproError) as want:
                drained.apply(batch)
            assert type(got.value) is type(want.value)
            assert str(got.value) == str(want.value)
            assert type(got.value.__cause__) is type(want.value.__cause__)
            if position == "mid-batch":
                assert [(o.stamp, o.outcome.kind) for o in got.value.applied] == [
                    (o.stamp, o.outcome.kind) for o in want.value.applied
                ] == [(1, "delete")]
                assert got.value.failed_op == want.value.failed_op == missing
            assert inline.stamp == drained.stamp
            assert sorted(inline.session.fragmentation.graph.edges()) == sorted(
                drained.session.fragmentation.graph.edges()
            )


class TestStampedResultSurface:
    def test_is_match_view(self, small_instance):
        graph, frag, queries = small_instance
        with ConcurrentSessionServer(frag, backend="thread") as server:
            r = server.run(queries[0], algorithm="dgpm")
            assert r.is_match == r.relation.is_match
            miss = server.run(
                Pattern({"q": "no-such-label"}), algorithm="dgpm"
            )
            assert not miss.is_match
