"""Functional tests for :class:`ConcurrentSessionServer` (thread backend).

The stress/linearizability suite lives in ``test_concurrent_stress.py`` and
the sharded backend's in ``test_sharding.py`` / ``test_sharded_faults.py``;
here we pin down the API surface: stamps, batch atomicity, coalescing,
error propagation, and lifecycle.
"""

from __future__ import annotations

import threading

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
