"""``remove_node`` end to end, and the targeted insertion repair.

The removal contract: the fragmentation stays valid (``validate()`` holds),
dependency graphs are patched rather than rebuilt, and every maintained
answer -- cold cache entries, warm repaired entries, a standalone
``IncrementalMatchState`` -- equals a from-scratch simulation of the mutated
graph.

The regression pinned by :class:`TestWarmRemoveNodeRegression`: a removed
node's own candidacy can be killed *during* the edge cascade, after the
node has already left its owner's local set -- so it no longer counts as a
local falsification and the repair used to report "nothing changed",
leaving a stale cached answer that still contained the removed node.
"""

from __future__ import annotations

import random

import pytest

from repro import (
    DgpmConfig,
    SimulationSession,
    partition,
    simulation,
    web_graph,
)
from repro.bench.workloads import cyclic_pattern
from repro.errors import GraphError
from repro.graph.digraph import DiGraph
from repro.graph.mutations import DeleteEdge, InsertEdge, RemoveNode
from repro.graph.pattern import Pattern
from tests.conftest import PatchedState, warm_entries


def _replay_remove(graph: DiGraph, removed) -> DiGraph:
    out = graph.copy()
    for node in removed:
        out.remove_node(node)
    return out


class TestSessionRemoveNode:
    @pytest.fixture()
    def served(self):
        graph = web_graph(200, 800, n_labels=5, seed=31)
        frag = partition(graph, 3, seed=31)
        session = SimulationSession(frag)
        queries = [cyclic_pattern(graph, 3, 4, seed=s) for s in range(3)]
        for _ in range(2):  # the second pass makes the queries hot
            for q in queries:
                session.run(q, algorithm="dgpm")
        return graph, frag, session, queries

    def test_removals_keep_fragmentation_valid(self, served):
        graph, frag, session, queries = served
        rng = random.Random(5)
        initial = graph.copy()
        removed = []
        for _ in range(12):
            node = rng.choice(list(graph.nodes()))
            outcome = session.apply([RemoveNode(node)])[0]
            removed.append(node)
            assert outcome.kind == "remove_node"
            assert outcome.delta.cascade is not None
            frag.validate()
        oracle_graph = _replay_remove(initial, removed)
        for q in queries:
            assert session.run(q).relation == simulation(q, oracle_graph)

    def test_remove_unknown_node_is_graph_error(self, served):
        _graph, _frag, session, _queries = served
        with pytest.raises(GraphError):
            session.apply([RemoveNode("no-such-node")])

    def test_batch_mixing_removals_and_edges(self, served):
        graph, _frag, session, queries = served
        initial = graph.copy()
        u, v = next(iter(graph.edges()))
        victim = next(
            n for n in graph.nodes() if n not in (u, v)
        )
        outcomes = session.apply(
            [DeleteEdge(u, v), RemoveNode(victim)]
        )
        assert [o.kind for o in outcomes] == ["delete", "remove_node"]
        oracle_graph = initial.copy()
        oracle_graph.remove_edge(u, v)
        oracle_graph.remove_node(victim)
        for q in queries:
            assert session.run(q).relation == simulation(q, oracle_graph)

    def test_deps_patched_not_rebuilt_across_removal(self, served):
        graph, _frag, session, _queries = served
        deps_before = session.deps
        session.apply([RemoveNode(next(iter(graph.nodes())))])
        assert session.deps is deps_before


def _make_warm(session, u, v) -> None:
    """Warm states are built by the first relevant write: delete and
    re-insert the label-relevant edge ``(u, v)`` so the removal under test
    goes through the warm state's ``remove_node`` repair."""
    session.apply([DeleteEdge(u, v), InsertEdge(u, v)])
    assert len(warm_entries(session)) == 1


class TestWarmRemoveNodeRegression:
    def test_warm_entry_rewritten_when_cascade_kills_candidacy(self):
        # A 2-cycle query: every pattern node is parented, so a match dies
        # through counter surgery, not through the final label scrub.
        query = Pattern({"a": "A", "b": "B"}, [("a", "b"), ("b", "a")])
        graph = DiGraph(
            {1: "A", 2: "B", 3: "A", 4: "B", 5: "C", 6: "C"},
            [(1, 2), (2, 1), (3, 4), (4, 3), (5, 6)],
        )
        initial = graph.copy()  # the session mutates the served graph in place
        frag = partition(graph, 2, seed=3)
        session = SimulationSession(frag)
        for _ in range(2):
            session.run(query, algorithm="dgpm")
        _make_warm(session, 3, 4)
        before = session.run(query).relation.as_dict()
        assert 1 in before["a"]
        outcome = session.apply([RemoveNode(1)])[0]
        assert outcome.kind == "remove_node"
        after = session.run(query).relation.as_dict()
        assert 1 not in after["a"]
        assert 2 not in after["b"]  # its partner dies with the cycle
        assert 3 in after["a"] and 4 in after["b"]  # the other pair survives
        oracle_graph = _replay_remove(initial, [1])
        assert session.run(query).relation == simulation(query, oracle_graph)

    def test_sole_casualty_is_the_removed_node(self):
        # The sharpest spelling of the regression: removing node 1 kills
        # *only* node 1's candidacy (its target keeps another predecessor,
        # so no other local variable is falsified) -- the repair must still
        # report a change purely from the node's pre-cascade candidacy.
        query = Pattern({"a": "A", "b": "B"}, [("a", "b")])
        graph = DiGraph(
            {1: "A", 2: "B", 3: "A", 4: "C"},
            [(1, 2), (3, 2), (4, 1)],
        )
        initial = graph.copy()
        frag = partition(graph, 2, seed=1)
        session = SimulationSession(frag)
        for _ in range(2):
            session.run(query, algorithm="dgpm")
        _make_warm(session, 3, 2)
        assert 1 in session.run(query).relation.as_dict()["a"]
        session.apply([RemoveNode(1)])
        after = session.run(query).relation.as_dict()
        assert after["a"] == {3}
        assert after["b"] == {2}
        assert session.run(query).relation == simulation(
            query, _replay_remove(initial, [1])
        )

    def test_incremental_session_same_scenario(self):
        query = Pattern({"a": "A", "b": "B"}, [("a", "b"), ("b", "a")])
        graph = DiGraph(
            {1: "A", 2: "B", 3: "A", 4: "B", 5: "C"},
            [(1, 2), (2, 1), (3, 4), (4, 3)],
        )
        frag = partition(graph, 2, seed=3)
        session = PatchedState(query, frag)
        assert session.mutate("remove_node", 1).changed
        oracle_graph = _replay_remove(graph, [1])
        assert session.relation() == simulation(query, oracle_graph)
        session.fragmentation.validate()


class TestIncrementalRemoveNode:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_removal_sequences(self, seed):
        rng = random.Random(seed)
        graph = web_graph(40, 150, n_labels=3, seed=seed)
        frag = partition(graph, 3, seed=seed)
        query = cyclic_pattern(graph, 3, 3, seed=seed)
        session = PatchedState(query, frag)
        mirror = graph.copy()
        for _ in range(6):
            node = rng.choice(list(mirror.nodes()))
            session.mutate("remove_node", node)
            mirror.remove_node(node)
            assert session.relation() == simulation(query, mirror)
            session.fragmentation.validate()

    def test_self_loop_node_removal(self):
        query = Pattern({"a": "A"}, [("a", "a")])
        graph = DiGraph({1: "A", 2: "A", 3: "B"}, [(1, 1), (1, 2), (3, 1)])
        frag = partition(graph, 2, seed=1)
        session = PatchedState(query, frag)
        assert session.relation().as_dict()["a"] == {1}
        session.mutate("remove_node", 1)
        assert not session.relation().is_match
        session.fragmentation.validate()


class TestTargetedInsertRepair:
    def _chain_into_cluster(self):
        """A small tail chain beside a big strongly-connected cluster: an
        insertion at the chain's end can revive one pair."""
        nodes = {f"t{i}": "A" for i in range(3)}
        nodes.update({f"c{i}": "A" for i in range(30)})
        edges = [("t0", "t1"), ("t1", "t2")]
        edges += [(f"c{i}", f"c{(i + 1) % 30}") for i in range(30)]
        graph = DiGraph(nodes, edges)
        return graph

    def test_small_region_repairs_targeted(self):
        graph = self._chain_into_cluster()
        query = Pattern({"x": "A", "y": "A"}, [("x", "y")])
        frag = partition(graph, 2, seed=7)
        session = PatchedState(query, frag)
        # Only X(x, t2) is false; x has no query parent to close over.
        update = session.mutate("insert_edge", "t2", "c0")
        assert (update.strategy, update.n_reopened) == ("targeted", 1)
        mirror = graph.copy()
        mirror.add_edge("t2", "c0")
        assert session.relation() == simulation(query, mirror)

    def test_huge_region_falls_back_to_recompute(self):
        graph = self._chain_into_cluster()
        query = Pattern({"x": "A", "y": "A"}, [("x", "y")])
        frag = partition(graph, 2, seed=7)
        session = PatchedState(query, frag)
        # Everything in the 30-cycle reaches c0, but the region is counted in
        # pairs the edge can revive: X(x, c0) is already true, so there are
        # none, however much of the graph reaches the source.
        update = session.mutate("insert_edge", "c0", "t0")
        assert (update.strategy, update.n_reopened, update.changed) == ("", 0, False)
        mirror = graph.copy()
        mirror.add_edge("c0", "t0")
        assert session.relation() == simulation(query, mirror)
        # Cut the cycle: under a cyclic query nothing matches any more, and
        # closing it again revives 60 of the 66 label-compatible pairs.
        cyclic = Pattern({"x": "A", "y": "A"}, [("x", "y"), ("y", "x")])
        session = PatchedState(cyclic, frag)
        session.mutate("delete_edge", "c29", "c0")
        assert not session.relation().is_match
        update = session.mutate("insert_edge", "c29", "c0")
        assert update.strategy == "bootstrap"
        assert session.relation() == simulation(cyclic, graph)

    def test_irrelevant_insert_absorbed(self):
        graph = DiGraph(
            {1: "A", 2: "B", 3: "C", 4: "C"}, [(1, 2), (3, 4)]
        )
        query = Pattern({"x": "A", "y": "B"}, [("x", "y")])
        frag = partition(graph, 2, seed=1)
        session = PatchedState(query, frag)
        update = session.mutate("insert_edge", 4, 3)
        assert (update.strategy, update.changed) == ("", False)
        assert update.n_messages == 0
        mirror = graph.copy()
        mirror.add_edge(4, 3)
        assert session.relation() == simulation(query, mirror)

    def test_targeted_repair_then_removal_round_trip(self):
        """Insert-revive followed by remove_node lands back on the oracle."""
        graph = self._chain_into_cluster()
        query = Pattern({"x": "A", "y": "A"}, [("x", "y")])
        frag = partition(graph, 3, seed=9)
        session = PatchedState(query, frag)
        mirror = graph.copy()
        session.mutate("insert_edge", "t2", "c5")
        mirror.add_edge("t2", "c5")
        session.mutate("remove_node", "c5")
        mirror.remove_node("c5")
        assert session.relation() == simulation(query, mirror)
        session.fragmentation.validate()
