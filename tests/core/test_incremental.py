"""Incremental maintenance (Section 4.2 / [13]) through the one repair entry,
``IncrementalMatchState.apply(delta)``, driven by ``PatchedState``."""

import random

import pytest

from repro.core import DgpmConfig
from repro.errors import GraphError
from repro.graph.digraph import DiGraph
from repro.graph.examples import figure1
from repro.graph.generators import random_labeled_graph
from repro.graph.pattern import Pattern
from repro.partition import random_partition
from repro.runtime.costmodel import CostModel
from repro.simulation import simulation
from tests.conftest import PatchedState


class TestDeletion:
    def test_example8_deletion_matches_oracle(self):
        q, g, frag = figure1()
        session = PatchedState(q, frag)
        assert session.relation() == simulation(q, g)
        update = session.mutate("delete_edge", "f2", "sp1")
        g.remove_edge("f2", "sp1")
        assert session.relation() == simulation(q, g)
        assert not session.relation().is_match
        assert update.changed
        assert update.n_messages > 0  # the cascade crosses sites

    def test_caller_objects_never_mutated(self):
        q, g, frag = figure1()
        session = PatchedState(q, frag)
        session.mutate("delete_edge", "f2", "sp1")
        assert g.has_edge("f2", "sp1")            # caller's graph intact
        assert frag.graph.has_edge("f2", "sp1")   # caller's fragmentation intact

    def test_irrelevant_deletion_ships_nothing(self):
        q, g, frag = figure1()
        session = PatchedState(q, frag)
        # (yb1, f1) feeds no surviving match: yb1/f1 were falsified already
        update = session.mutate("delete_edge", "yb1", "f1")
        assert update.n_messages == 0
        assert update.ds_bytes == 0
        g.remove_edge("yb1", "f1")
        assert session.relation() == simulation(q, g)

    @pytest.mark.parametrize("seed", range(15))
    def test_random_deletion_sequences(self, seed):
        rng = random.Random(seed)
        graph = random_labeled_graph(30, 120, n_labels=3, seed=seed)
        frag = random_partition(graph, 3, seed=seed)
        q = Pattern({"a": "L0", "b": "L1"}, [("a", "b"), ("b", "a")])
        session = PatchedState(q, frag)
        edges = list(graph.edges())
        rng.shuffle(edges)
        for u, v in edges[:12]:
            session.mutate("delete_edge", u, v)
            graph.remove_edge(u, v)
            assert session.relation() == simulation(q, graph), (seed, u, v)

    def test_missing_edge_rejected(self):
        q, _, frag = figure1()
        session = PatchedState(q, frag)
        with pytest.raises(GraphError):
            session.mutate("delete_edge", "yb1", "sp3")

    def test_metrics_fields(self):
        q, _, frag = figure1()
        session = PatchedState(q, frag)
        update = session.mutate("delete_edge", "f2", "sp1")
        assert update.n_rounds >= 1
        assert update.n_falsified >= 1
        assert (update.strategy, update.n_reopened) == ("", 0)


class TestFragmentMetadataRepair:
    """Regression: deleting a crossing edge used to leave the owner
    fragment's frozen ``Fi.O``/``Fi.I`` metadata stale, so a later
    ``Fragmentation.validate()`` raised on a perfectly legal update and
    stale virtual variables lingered in ``virtual_candidates()``."""

    @staticmethod
    def _chain_session():
        graph = DiGraph({0: "L0", 1: "L1", 2: "L2"}, [(0, 1), (1, 2)])
        frag = random_partition(graph, 3, seed=0)
        # Force one node per fragment regardless of partitioner luck.
        from repro.partition.fragmentation import fragment_graph

        frag = fragment_graph(graph, {0: 0, 1: 1, 2: 2})
        q = Pattern({"a": "L0", "b": "L1", "c": "L2"}, [("a", "b"), ("b", "c")])
        return q, graph, frag

    def test_delete_last_crossing_edge_validates(self):
        q, _, frag = self._chain_session()
        session = PatchedState(q, frag)
        session.mutate("delete_edge", 1, 2)  # the only crossing edge into node 2
        session.fragmentation.validate()  # raised FragmentationError before
        owner = session.fragmentation.owner(1)
        fragment = session.fragmentation[owner]
        assert 2 not in fragment.virtual_nodes
        assert 2 not in fragment.graph
        assert 2 not in session.fragmentation[session.fragmentation.owner(2)].in_nodes

    def test_stale_virtual_candidates_pruned(self):
        q, _, frag = self._chain_session()
        session = PatchedState(q, frag)
        owner = session.fragmentation.owner(1)
        session.mutate("delete_edge", 1, 2)
        state = session.state.programs[owner].state
        assert all(v != 2 for _, v in state.virtual_candidates())

    def test_random_crossing_deletions_keep_validating(self):
        graph = random_labeled_graph(24, 80, n_labels=3, seed=2)
        frag = random_partition(graph, 3, seed=2)
        q = Pattern({"a": "L0", "b": "L1"}, [("a", "b")])
        session = PatchedState(q, frag)
        crossing = [
            (u, v) for u, v in session.fragmentation.crossing_edges()
        ]
        for u, v in crossing[:15]:
            session.mutate("delete_edge", u, v)
            session.fragmentation.validate()


class TestAffectedAreaAccounting:
    """Regression: remote falsifications were never counted (the dead
    ``n_falsified += 0``), so ``n_falsified`` under-reported |AFF|."""

    def test_remote_falsifications_counted(self):
        graph = DiGraph({0: "L0", 1: "L1", 2: "L2"}, [(0, 1), (1, 2)])
        from repro.partition.fragmentation import fragment_graph

        frag = fragment_graph(graph, {0: 0, 1: 1, 2: 2})
        q = Pattern({"a": "L0", "b": "L1", "c": "L2"}, [("a", "b"), ("b", "c")])
        session = PatchedState(q, frag)
        assert session.relation().is_match
        # Deleting (1, 2) falsifies X(b, 1) at site 1 and, via the shipped
        # falsification, X(a, 0) at site 0: |AFF| = 2, spanning two sites.
        update = session.mutate("delete_edge", 1, 2)
        assert update.n_falsified == 2
        graph.remove_edge(1, 2)
        assert session.relation() == simulation(q, graph)

    def test_figure1_cascade_counts_every_site(self):
        q, g, frag = figure1()
        session = PatchedState(q, frag)
        update = session.mutate("delete_edge", "f2", "sp1")
        g.remove_edge("f2", "sp1")
        assert session.relation() == simulation(q, g)
        # The cascade kills the whole cycle: more variables than the owner
        # site alone ever falsifies.
        assert update.n_falsified > 2
        assert update.n_messages > 0


class TestInsertion:
    def test_insert_revives_matches(self):
        q, g, frag = figure1()
        session = PatchedState(q, frag)
        session.mutate("delete_edge", "f2", "sp1")
        assert not session.relation().is_match
        update = session.mutate("insert_edge", "f2", "sp1")
        # All 11 pairs the deletion falsified can revive: far over a quarter
        # of the graph's 13 label-compatible pairs, so the state is rebuilt.
        assert (update.strategy, update.n_reopened) == ("bootstrap", 0)
        assert session.relation() == simulation(q, g)
        assert session.relation().is_match

    def test_closing_a_long_path_into_a_cycle_revives_by_bootstrap(self):
        n = 40
        graph = DiGraph({i: "A" for i in range(n)}, [(i, i + 1) for i in range(n - 1)])
        frag = random_partition(graph, 3, seed=1)
        q = Pattern({"x": "A", "y": "A"}, [("x", "y"), ("y", "x")])
        session = PatchedState(q, frag)
        assert not session.relation().is_match
        # Every one of the 2 * 40 label-compatible pairs is false and reaches
        # the new edge backwards: nothing to gain over a fresh fixpoint.
        assert session.mutate("insert_edge", n - 1, 0).strategy == "bootstrap"
        graph.add_edge(n - 1, 0)
        assert session.relation() == simulation(q, graph)
        assert len(session.relation().as_dict()["x"]) == n

    def test_insert_new_edge_matches_oracle(self):
        graph = random_labeled_graph(25, 60, n_labels=3, seed=4)
        frag = random_partition(graph, 3, seed=4)
        q = Pattern({"a": "L0", "b": "L1"}, [("a", "b")])
        session = PatchedState(q, frag)
        candidates = [
            (u, v)
            for u in graph.nodes()
            for v in graph.nodes()
            if u != v and not graph.has_edge(u, v)
        ]
        u, v = sorted(candidates)[0]
        session.mutate("insert_edge", u, v)
        graph.add_edge(u, v)
        assert session.relation() == simulation(q, graph)

    def test_duplicate_insert_rejected(self):
        q, g, frag = figure1()
        session = PatchedState(q, frag)
        with pytest.raises(GraphError):
            session.mutate("insert_edge", "f2", "sp1")

    def test_unknown_endpoint_rejected(self):
        q, _, frag = figure1()
        session = PatchedState(q, frag)
        with pytest.raises(GraphError):
            session.mutate("insert_edge", "f2", "nope")


class TestAddNode:
    def test_added_node_matches_childless_query_nodes_only(self):
        from repro.partition.fragmentation import fragment_graph

        q = Pattern({"a": "A", "b": "B"}, [("a", "b")])
        graph = DiGraph({1: "A", 2: "B"}, [(1, 2)])
        session = PatchedState(q, fragment_graph(graph, {1: 0, 2: 1}))
        grown = session.mutate("add_node", 3, "B", 0)  # b is childless: a match
        assert grown.changed
        assert (grown.n_messages, grown.n_rounds, grown.n_falsified) == (0, 0, 0)
        idle = session.mutate("add_node", 4, "A", 1)  # a needs a successor
        assert not idle.changed
        graph.add_node(3, "B")
        graph.add_node(4, "A")
        assert session.relation() == simulation(q, graph)
        assert session.relation().as_dict() == {"a": {1}, "b": {2, 3}}
        # The new nodes' counters are registered: wiring them up revives a.
        wired = session.mutate("insert_edge", 4, 3)
        graph.add_edge(4, 3)
        assert wired.changed and wired.n_reopened == 1
        assert session.relation() == simulation(q, graph)
        session.fragmentation.validate()


class TestMixedWorkload:
    def test_interleaved_updates(self, rng, rng_seed):
        seed = rng_seed % 1000
        graph = random_labeled_graph(24, 90, n_labels=2, seed=seed)
        frag = random_partition(graph, 3, seed=seed)
        q = Pattern({"a": "L0", "b": "L1"}, [("a", "b"), ("b", "a")])
        session = PatchedState(q, frag)
        for step in range(10):
            if rng.random() < 0.7 and graph.n_edges:
                u, v = sorted(graph.edges())[rng.randrange(graph.n_edges)]
                session.mutate("delete_edge", u, v)
                graph.remove_edge(u, v)
            else:
                free = [
                    (a, b) for a in graph.nodes() for b in graph.nodes()
                    if a != b and not graph.has_edge(a, b)
                ]
                if not free:
                    continue
                u, v = sorted(free)[rng.randrange(len(free))]
                session.mutate("insert_edge", u, v)
                graph.add_edge(u, v)
            assert session.relation() == simulation(q, graph), step

    def test_nonincremental_config_repairs_incrementally(self):
        # A dGPMNOpt caller's warm state still repairs by incremental lEval
        # without push; cost and boolean_only come from the caller's config.
        q, g, frag = figure1()
        cost = CostModel(node_id_bytes=16)
        nopt = DgpmConfig(cost=cost).without_optimizations()
        session = PatchedState(q, frag, nopt)
        config = session.state.config
        assert (config.incremental, config.enable_push) == (True, False)
        assert (config.cost, config.boolean_only) == (cost, False)
        session.mutate("delete_edge", "f2", "sp1")
        g.remove_edge("f2", "sp1")
        assert session.relation() == simulation(q, g)
