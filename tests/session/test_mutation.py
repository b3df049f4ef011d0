"""Tests for the SimulationSession mutation API and cache maintenance.

The contract (see :mod:`repro.session.session`): session-applied mutations
patch the resident fragmentation in place (``validate()`` always holds),
patch the dependency graphs instead of rebuilding them, and maintain the
result cache -- keeping entries whose answers cannot change, repairing warm
entries in ``O(|AFF|)``, and evicting only what may actually have changed.
"""

from __future__ import annotations

import pytest

from repro import (
    DgpmConfig,
    SimulationSession,
    partition,
    simulation,
    web_graph,
)
from repro.bench.workloads import cyclic_pattern
from repro.core.depgraph import DependencyGraphs
from repro.errors import GraphError, ReproError
from repro.graph.mutations import AddNode, DeleteEdge, InsertEdge
from repro.graph.pattern import Pattern
from tests.conftest import warm_entries


@pytest.fixture()
def served_session():
    graph = web_graph(300, 1200, n_labels=6, seed=21)
    frag = partition(graph, 3, seed=21)
    session = SimulationSession(frag)
    queries = [cyclic_pattern(graph, 3, 4, seed=s) for s in range(3)]
    # Serve twice: the second pass hits the cache, so every query is hot
    # and the first write relevant to it builds its warm state.
    for _ in range(2):
        for q in queries:
            session.run(q, algorithm="dgpm")
    return graph, frag, session, queries


class TestMutationApi:
    def test_delete_edge_keeps_fragmentation_valid(self, served_session, rng):
        graph, frag, session, queries = served_session
        for _ in range(20):
            edges = list(graph.edges())
            u, v = edges[rng.randrange(len(edges))]
            outcome = session.apply([DeleteEdge(u, v)])[0]
            assert outcome.kind == "delete"
            frag.validate()  # the acceptance-criterion invariant
        for q in queries:
            assert session.run(q, algorithm="dgpm").relation == simulation(q, graph)

    def test_deps_patched_not_rebuilt(self, served_session, rng):
        graph, frag, session, _ = served_session
        deps_before = session.deps
        deleted = []
        for _ in range(10):
            edges = list(graph.edges())
            u, v = edges[rng.randrange(len(edges))]
            session.apply([DeleteEdge(u, v)])
            deleted.append((u, v))
        u, v = deleted[0]
        session.apply([InsertEdge(u, v)])
        session.apply([AddNode("fresh", "dom0")])
        assert session.deps is deps_before  # same object, patched in place
        fresh = DependencyGraphs(frag)
        assert session.deps.watchers == fresh.watchers
        assert session.deps.owners == fresh.owners

    def test_mutations_do_not_invalidate(self, served_session):
        graph, _, session, queries = served_session
        edges = list(graph.edges())
        session.apply([DeleteEdge(*edges[0])])
        assert session.stats.invalidations == 0
        assert session.stats.mutations == 1

    def test_batched_apply(self, served_session):
        graph, frag, session, _ = served_session
        edges = list(graph.edges())
        (u1, v1), (u2, v2) = edges[0], edges[1]
        outcomes = session.apply(
            [
                DeleteEdge(u1, v1),
                DeleteEdge(u2, v2),
                InsertEdge(u1, v1),
                AddNode("batch-node", "dom1", 0),
            ]
        )
        assert [o.kind for o in outcomes] == ["delete", "delete", "insert", "add_node"]
        frag.validate()
        with pytest.raises(ReproError, match="unsupported mutation op"):
            session.apply([("relabel", 1, "x")])

    def test_mutation_errors_are_graph_errors(self, served_session):
        graph, _, session, _ = served_session
        with pytest.raises(GraphError):
            session.apply([DeleteEdge("nope", "nada")])
        u, v = next(iter(graph.edges()))
        with pytest.raises(GraphError):
            session.apply([InsertEdge(u, v)])  # already present


class TestCacheMaintenance:
    def test_irrelevant_delete_keeps_entries(self):
        """An edge whose label pair no query edge carries cannot change any
        answer: every cached entry survives and still hits."""
        graph = web_graph(200, 800, n_labels=8, seed=5)
        frag = partition(graph, 2, seed=5)
        session = SimulationSession(frag)
        q = Pattern({"a": "dom0", "b": "dom1"}, [("a", "b")])
        session.run(q, algorithm="dgpm")
        target = next(
            (u, v)
            for u, v in graph.edges()
            if not (graph.label(u) == "dom0" and graph.label(v) == "dom1")
        )
        outcome = session.apply([DeleteEdge(*target)])[0]
        assert outcome.cache_kept == 1 and outcome.cache_evicted == 0
        again = session.run(q, algorithm="dgpm")
        assert again.metrics.extras.get("cache_hit") == 1.0
        assert again.relation == simulation(q, graph)

    def test_relevant_delete_evicts_cold_entry(self):
        graph = web_graph(200, 800, n_labels=4, seed=6)
        frag = partition(graph, 2, seed=6)
        session = SimulationSession(frag)
        q = Pattern({"a": "dom0", "b": "dom1"}, [("a", "b")])
        session.run(q, algorithm="dgpm")  # cached, never hit: no warm state
        target = next(
            (u, v)
            for u, v in graph.edges()
            if graph.label(u) == "dom0" and graph.label(v) == "dom1"
        )
        outcome = session.apply([DeleteEdge(*target)])[0]
        assert outcome.cache_evicted == 1
        after = session.run(q, algorithm="dgpm")
        assert "cache_hit" not in after.metrics.extras
        assert after.relation == simulation(q, graph)

    def test_warm_entry_repaired_in_place(self, rng):
        """A hot query's answer is repaired by the warm incremental state:
        the next serve is still a cache hit, and the relation is fresh."""
        graph = web_graph(300, 1500, n_labels=3, seed=7)
        frag = partition(graph, 3, seed=7)
        session = SimulationSession(frag)
        q = Pattern({"a": "dom0", "b": "dom1"}, [("a", "b")])
        session.run(q, algorithm="dgpm")
        session.run(q, algorithm="dgpm")  # hit -> hot, but reads build nothing
        assert len(warm_entries(session)) == 0

        # Delete label-relevant edges until the answer actually changes; the
        # first of them builds the warm state, the rest repair through it.
        changed = 0
        for _ in range(200):
            candidates = [
                (u, v)
                for u, v in graph.edges()
                if graph.label(u) == "dom0" and graph.label(v) == "dom1"
            ]
            if not candidates:
                break
            u, v = candidates[rng.randrange(len(candidates))]
            before = session.run(q, algorithm="dgpm").relation
            outcome = session.apply([DeleteEdge(u, v)])[0]
            assert len(warm_entries(session)) == 1
            assert outcome.cache_evicted == 0
            after = session.run(q, algorithm="dgpm")
            assert after.relation == simulation(q, graph)
            if outcome.cache_repaired:
                changed += 1
                assert after.metrics.extras.get("cache_hit") == 1.0
                assert after.metrics.extras.get("maintained", 0) >= 1.0
                assert after.relation != before
        assert changed >= 1, "no delete ever changed the hot answer"
        assert session.stats.entries_repaired == changed
        assert session.stats.entries_promoted == 1
        assert session.stats.invalidations == 0

    def test_insert_reevaluates_affected_warm_entry(self):
        graph = web_graph(200, 900, n_labels=3, seed=8)
        frag = partition(graph, 2, seed=8)
        session = SimulationSession(frag)
        q = Pattern({"a": "dom0", "b": "dom1"}, [("a", "b")])
        session.run(q, algorithm="dgpm")
        session.run(q, algorithm="dgpm")
        # Remove every witness of some matched pair, then re-add one.
        u, v = next(
            (u, v)
            for u, v in graph.edges()
            if graph.label(u) == "dom0" and graph.label(v) == "dom1"
        )
        session.apply([DeleteEdge(u, v)])
        assert session.run(q, algorithm="dgpm").relation == simulation(q, graph)
        session.apply([InsertEdge(u, v)])
        after = session.run(q, algorithm="dgpm")
        assert after.relation == simulation(q, graph)
        assert session.stats.invalidations == 0

    def test_add_node_affects_childless_queries_only(self):
        graph = web_graph(150, 600, n_labels=4, seed=9)
        frag = partition(graph, 2, seed=9)
        session = SimulationSession(frag)
        point = Pattern({"p": "dom0"})          # childless: affected
        shaped = Pattern({"a": "dom1", "b": "dom2"}, [("a", "b")])  # not
        session.run(point, algorithm="dgpm")
        session.run(shaped, algorithm="dgpm")
        outcome = session.apply([AddNode("newbie", "dom0")])[0]
        assert outcome.cache_evicted == 1  # the point query (cold entry)
        assert outcome.cache_kept == 1     # the shaped query survives
        assert session.run(point, algorithm="dgpm").relation == simulation(point, graph)
        assert session.run(shaped, algorithm="dgpm").metrics.extras.get("cache_hit") == 1.0


class TestWarmSlotRotation:
    def test_late_hot_query_rotates_into_warm_set(self):
        """Warm slots track the most recently served hot queries: when all
        slots are taken, the first mutation relevant to a newly hot query
        retires the least-recently-served warm state in its favour."""
        graph = web_graph(150, 600, n_labels=4, seed=12)
        frag = partition(graph, 2, seed=12)
        session = SimulationSession(frag, max_warm_states=2)
        shared = [("a", "b")]  # every query carries a (dom0, dom1) edge
        early = [
            Pattern({"a": "dom0", "b": "dom1"}, shared),
            Pattern({"a": "dom0", "b": "dom1", "c": "dom2"}, shared + [("b", "c")]),
        ]
        late = Pattern({"a": "dom0", "b": "dom1", "c": "dom3"}, shared + [("b", "c")])
        u, v = next(
            (u, v)
            for u, v in graph.edges()
            if graph.label(u) == "dom0" and graph.label(v) == "dom1"
        )

        def warm_queries():
            return {id(entry.query) for entry in warm_entries(session)}

        for q in early:           # hot, but reads build nothing
            session.run(q, algorithm="dgpm")
            session.run(q, algorithm="dgpm")
        assert len(warm_entries(session)) == 0
        session.apply([DeleteEdge(u, v)])  # relevant to both: fills both slots
        assert warm_queries() == {id(q) for q in early}

        session.run(late, algorithm="dgpm")
        session.run(late, algorithm="dgpm")  # hot now, still no state
        assert warm_queries() == {id(q) for q in early}
        outcome = session.apply([InsertEdge(u, v)])[0]  # relevant to all three
        assert warm_queries() == {id(early[1]), id(late)}
        assert outcome.cache_evicted == 0  # the retired entry was repaired first
        assert session.stats.entries_promoted == 3

        # The early query that lost its slot stays cached and correct ...
        retired = session.run(early[0], algorithm="dgpm")
        assert retired.metrics.extras.get("cache_hit") == 1.0
        assert retired.relation == simulation(early[0], graph)
        # ... and, served last, it takes the slot back from early[1] ...
        assert session.apply([DeleteEdge(u, v)])[0].cache_evicted == 0
        assert warm_queries() == {id(late), id(early[0])}
        # ... whose entry, outside both slots now, the next relevant
        # mutation evicts.
        assert session.apply([InsertEdge(u, v)])[0].cache_evicted == 1
        for q in (*early, late):
            assert session.run(q, algorithm="dgpm").relation == simulation(q, graph)


class TestResultImmutability:
    """Satellite: cache hits share the relation object; it must be frozen."""

    def test_relation_attributes_frozen(self, served_session):
        _, _, session, queries = served_session
        result = session.run(queries[0], algorithm="dgpm")
        with pytest.raises(AttributeError):
            result.relation._matches = {}
        with pytest.raises(AttributeError):
            result.relation._is_match = True

    def test_relation_views_are_copies(self, served_session):
        graph, _, session, queries = served_session
        q = queries[0]
        first = session.run(q, algorithm="dgpm")
        # Mutate every mutable view a caller can reach.
        d = first.relation.as_dict()
        d.clear()
        rel_set = first.relation.as_relation()
        rel_set.clear()
        again = session.run(q, algorithm="dgpm")
        assert again.relation.as_dict() == simulation(q, graph).as_dict()

    def test_metrics_extras_do_not_poison_cache(self, served_session):
        _, _, session, queries = served_session
        q = queries[0]
        first = session.run(q, algorithm="dgpm")
        first.metrics.extras["attack"] = 666.0
        again = session.run(q, algorithm="dgpm")
        assert "attack" not in again.metrics.extras


class TestWarmCoversBaseGraph:
    """Satellite: warm() must also warm the base graph's lazy indexes."""

    def test_warm_builds_base_graph_indexes(self):
        graph = web_graph(100, 400, n_labels=4, seed=10)
        frag = partition(graph, 2, seed=10)
        SimulationSession(frag).warm()
        assert graph._label_index is not None
        assert graph._succ_label_counts is not None
        for f in frag:
            assert f.graph._label_index is not None
