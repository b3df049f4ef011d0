"""Unit tests for the labeled digraph substrate."""

import pytest

from repro.errors import GraphError
from repro.graph.digraph import DiGraph, reify_edge_labels


class TestConstruction:
    def test_empty_graph(self):
        g = DiGraph()
        assert g.n_nodes == 0
        assert g.n_edges == 0
        assert g.size == 0

    def test_bulk_constructor(self):
        g = DiGraph({1: "A", 2: "B"}, [(1, 2)])
        assert g.n_nodes == 2
        assert g.n_edges == 1
        assert g.has_edge(1, 2)

    def test_add_node_relabels_existing(self):
        g = DiGraph({1: "A"})
        g.add_node(1, "B")
        assert g.label(1) == "B"
        assert g.n_nodes == 1

    def test_add_edge_requires_nodes(self):
        g = DiGraph({1: "A"})
        with pytest.raises(GraphError):
            g.add_edge(1, 99)
        with pytest.raises(GraphError):
            g.add_edge(99, 1)

    def test_parallel_edges_collapse(self):
        g = DiGraph({1: "A", 2: "B"}, [(1, 2), (1, 2)])
        assert g.n_edges == 1

    def test_self_loop_allowed(self):
        g = DiGraph({1: "A"}, [(1, 1)])
        assert g.has_edge(1, 1)
        assert len(g.successors(1)) == 1
        assert g.in_degree(1) == 1


class TestMutation:
    def test_remove_edge(self):
        g = DiGraph({1: "A", 2: "B"}, [(1, 2)])
        g.remove_edge(1, 2)
        assert g.n_edges == 0
        assert not g.has_edge(1, 2)
        assert g.predecessors(2) == []

    def test_remove_missing_edge_raises(self):
        g = DiGraph({1: "A", 2: "B"})
        with pytest.raises(GraphError):
            g.remove_edge(1, 2)

    def test_remove_node_drops_incident_edges(self):
        g = DiGraph({1: "A", 2: "B", 3: "A"}, [(1, 2), (2, 3), (3, 1)])
        g.remove_node(2)
        assert 2 not in g
        assert g.n_nodes == 2
        assert g.n_edges == 1  # only (3, 1) survives
        assert not g.has_edge(1, 2) and not g.has_edge(2, 3)
        assert g.successors(1) == []

    def test_remove_unknown_node_raises(self):
        g = DiGraph({1: "A"})
        with pytest.raises(GraphError):
            g.remove_node(99)

    def test_lazy_indexes_maintained_across_mutations(self):
        """Edge/node mutations patch the warm indexes instead of dropping
        them; the maintained answers must equal cold-rebuilt ones."""
        g = DiGraph({1: "A", 2: "B", 3: "A", 4: "B"}, [(1, 2), (1, 3), (3, 4)])
        g.warm_indexes()  # build both lazy indexes
        g.add_edge(2, 4)
        g.remove_edge(1, 2)
        g.add_node(5, "B")
        g.add_edge(1, 5)
        g.remove_node(4)
        cold = DiGraph({n: g.label(n) for n in g.nodes()}, g.edges())
        for label in ("A", "B"):
            assert sorted(g.nodes_with_label(label)) == sorted(cold.nodes_with_label(label))
        for node in g.nodes():
            assert dict(g.successor_label_counts(node)) == dict(
                cold.successor_label_counts(node)
            )

    def test_relabel_still_invalidates_indexes(self):
        g = DiGraph({1: "A", 2: "B"}, [(1, 2)])
        g.warm_indexes()
        g.add_node(2, "C")  # relabel: predecessors' counts change wholesale
        assert g.nodes_with_label("C") == [2]
        assert g.nodes_with_label("B") == []
        assert dict(g.successor_label_counts(1)) == {"C": 1}


class TestInspection:
    def test_degrees_and_neighbours(self):
        g = DiGraph({1: "A", 2: "B", 3: "C"}, [(1, 2), (1, 3), (2, 3)])
        assert len(g.successors(1)) == 2
        assert g.in_degree(3) == 2
        assert sorted(g.successors(1)) == [2, 3]
        assert sorted(g.predecessors(3)) == [1, 2]

    def test_unknown_node_raises(self):
        g = DiGraph()
        with pytest.raises(GraphError):
            g.label("nope")
        with pytest.raises(GraphError):
            g.successors("nope")
        with pytest.raises(GraphError):
            g.predecessors("nope")

    def test_contains_and_len(self):
        g = DiGraph({1: "A"})
        assert 1 in g
        assert 2 not in g
        assert len(g) == 1

    def test_label_alphabet(self):
        g = DiGraph({1: "A", 2: "B", 3: "A"})
        assert g.label_alphabet() == {"A", "B"}

    def test_nodes_with_label(self):
        g = DiGraph({1: "A", 2: "B", 3: "A"})
        assert sorted(g.nodes_with_label("A")) == [1, 3]

    def test_size_is_nodes_plus_edges(self):
        g = DiGraph({1: "A", 2: "B"}, [(1, 2), (2, 1)])
        assert g.size == 4

    def test_edges_iteration(self):
        g = DiGraph({1: "A", 2: "B"}, [(1, 2), (2, 1)])
        assert set(g.edges()) == {(1, 2), (2, 1)}


class TestDerivedGraphs:
    def test_induced_subgraph(self):
        g = DiGraph({1: "A", 2: "B", 3: "C"}, [(1, 2), (2, 3), (3, 1)])
        sub = g.induced_subgraph([1, 2])
        assert set(sub.nodes()) == {1, 2}
        assert set(sub.edges()) == {(1, 2)}
        assert sub.label(1) == "A"

    def test_reversed(self):
        g = DiGraph({1: "A", 2: "B"}, [(1, 2)])
        rev = g.reversed()
        assert rev.has_edge(2, 1)
        assert not rev.has_edge(1, 2)
        assert rev.label(1) == "A"

    def test_copy_is_independent(self):
        g = DiGraph({1: "A", 2: "B"}, [(1, 2)])
        c = g.copy()
        c.add_node(3, "C")
        c.add_edge(1, 3)
        assert 3 not in g
        assert g.n_edges == 1

    def test_equality_by_structure(self):
        g1 = DiGraph({1: "A", 2: "B"}, [(1, 2)])
        g2 = DiGraph({2: "B", 1: "A"}, [(1, 2)])
        g3 = DiGraph({1: "A", 2: "B"}, [(2, 1)])
        assert g1 == g2
        assert g1 != g3


class TestEdgeLabelReification:
    def test_labeled_edges_become_dummy_nodes(self):
        g = reify_edge_labels({1: "A", 2: "B"}, [(1, 2, "knows")])
        assert g.n_nodes == 3
        assert g.n_edges == 2
        dummy = next(v for v in g.nodes() if v not in (1, 2))
        assert g.label(dummy) == "knows"
        assert g.has_edge(1, dummy)
        assert g.has_edge(dummy, 2)

    def test_unlabeled_edges_stay_direct(self):
        g = reify_edge_labels({1: "A", 2: "B"}, [(1, 2, None)])
        assert g.n_nodes == 2
        assert g.has_edge(1, 2)


class TestReadOnlyLabelsView:
    def test_labels_is_read_only(self):
        g = DiGraph({1: "A", 2: "B"})
        view = g.labels()
        with pytest.raises(TypeError):
            view[3] = "C"

    def test_labels_view_is_live(self):
        g = DiGraph({1: "A"})
        view = g.labels()
        g.add_node(2, "B")
        assert view == {1: "A", 2: "B"}

    def test_labels_view_equals_dict(self):
        g = DiGraph({1: "A", 2: "B"})
        assert dict(g.labels()) == {1: "A", 2: "B"}


class TestLazyIndexes:
    def test_label_index_tracks_relabel(self):
        g = DiGraph({1: "A", 2: "B", 3: "A"})
        assert sorted(g.nodes_with_label("A")) == [1, 3]  # builds the index
        g.add_node(3, "B")  # relabel must invalidate it
        assert sorted(g.nodes_with_label("A")) == [1]
        assert sorted(g.nodes_with_label("B")) == [2, 3]

    def test_label_index_tracks_new_nodes(self):
        g = DiGraph({1: "A"})
        assert g.nodes_with_label("B") == []
        g.add_node(2, "B")
        assert g.nodes_with_label("B") == [2]

    def test_successor_label_counts(self):
        g = DiGraph({1: "A", 2: "B", 3: "B", 4: "C"}, [(1, 2), (1, 3), (1, 4)])
        assert dict(g.successor_label_counts(1)) == {"B": 2, "C": 1}
        assert dict(g.successor_label_counts(2)) == {}

    def test_successor_label_counts_track_mutation(self):
        g = DiGraph({1: "A", 2: "B", 3: "B"}, [(1, 2)])
        assert dict(g.successor_label_counts(1)) == {"B": 1}
        g.add_edge(1, 3)
        assert dict(g.successor_label_counts(1)) == {"B": 2}
        g.remove_edge(1, 2)
        assert dict(g.successor_label_counts(1)) == {"B": 1}

    def test_successor_label_counts_unknown_node(self):
        g = DiGraph({1: "A"})
        with pytest.raises(GraphError):
            g.successor_label_counts(99)

    def test_successor_label_counts_read_only(self):
        g = DiGraph({1: "A", 2: "B"}, [(1, 2)])
        counts = g.successor_label_counts(1)
        with pytest.raises(TypeError):
            counts["B"] = 0


class TestVersionCounter:
    def test_version_bumps_on_mutation(self):
        g = DiGraph()
        v0 = g.version
        g.add_node(1, "A")
        g.add_node(2, "B")
        v_nodes = g.version
        assert v_nodes > v0
        g.add_edge(1, 2)
        v_edge = g.version
        assert v_edge > v_nodes
        g.remove_edge(1, 2)
        assert g.version > v_edge

    def test_noop_mutations_do_not_bump(self):
        g = DiGraph({1: "A", 2: "B"}, [(1, 2)])
        v = g.version
        g.add_node(1, "A")  # same label: no-op
        g.add_edge(1, 2)  # parallel edge: ignored
        assert g.version == v


class TestEdgeMembershipFast:
    def test_has_edge_consistent_after_removal(self):
        g = DiGraph({1: "A", 2: "B", 3: "C"}, [(1, 2), (1, 3)])
        assert g.has_edge(1, 2)
        g.remove_edge(1, 2)
        assert not g.has_edge(1, 2)
        assert g.has_edge(1, 3)
        g.add_edge(1, 2)
        assert g.has_edge(1, 2)
        assert g.n_edges == 2

    def test_dense_construction_dedupes(self):
        g = DiGraph({i: "A" for i in range(50)})
        for _ in range(3):
            for i in range(50):
                for j in range(50):
                    if i != j:
                        g.add_edge(i, j)
        assert g.n_edges == 50 * 49
