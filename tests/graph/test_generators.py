"""Unit tests for the synthetic graph generators."""

import pytest

from repro.errors import GraphError
from repro.graph import algorithms
from repro.graph.generators import (
    citation_dag,
    contiguous_block_assignment,
    random_labeled_graph,
    random_tree,
    web_graph,
)


class TestRandomLabeledGraph:
    def test_requested_size(self):
        g = random_labeled_graph(500, 2000, seed=1)
        assert g.n_nodes == 500
        assert g.n_edges == 2000

    def test_label_universe(self):
        g = random_labeled_graph(300, 600, n_labels=5, seed=1)
        assert g.label_alphabet() <= {f"L{i}" for i in range(5)}

    def test_deterministic_in_seed(self):
        a = random_labeled_graph(200, 800, seed=3)
        b = random_labeled_graph(200, 800, seed=3)
        c = random_labeled_graph(200, 800, seed=4)
        assert a == b
        assert a != c

    def test_no_self_loops(self):
        g = random_labeled_graph(100, 400, seed=2)
        assert all(u != v for u, v in g.edges())

    def test_zero_nodes_rejected(self):
        with pytest.raises(GraphError):
            random_labeled_graph(0, 0)

    def test_locality_concentrates_edges(self):
        local = random_labeled_graph(1000, 4000, seed=1, locality=0.95, window=10)
        spread = random_labeled_graph(1000, 4000, seed=1, locality=0.0)
        def short_edges(g):
            return sum(1 for u, v in g.edges() if min(abs(u - v), 1000 - abs(u - v)) <= 10)
        assert short_edges(local) > 3 * short_edges(spread)


class TestWebGraph:
    def test_heavy_tail_in_degree(self):
        g = web_graph(2000, 10000, seed=1)
        degrees = sorted((g.in_degree(v) for v in g.nodes()), reverse=True)
        # scale-free-ish: the top node collects far more than the mean
        assert degrees[0] > 5 * (g.n_edges / g.n_nodes)

    def test_label_skew(self):
        g = web_graph(2000, 6000, n_labels=10, seed=1)
        counts = sorted(
            (len(g.nodes_with_label(lab)) for lab in g.label_alphabet()), reverse=True
        )
        assert counts[0] > 2 * counts[-1]

    def test_block_partition_has_low_boundary(self):
        g = web_graph(2000, 10000, seed=1)
        from repro.partition import fragment_graph

        frag = fragment_graph(g, contiguous_block_assignment(g, 8))
        assert frag.vf_ratio < 0.35


class TestCitationDag:
    def test_is_dag(self):
        g = citation_dag(1000, 3000, seed=2)
        assert algorithms.is_dag(g)

    def test_edges_point_backward_in_time(self):
        g = citation_dag(500, 1500, seed=2)
        assert all(u > v for u, v in g.edges())

    def test_has_long_paths_for_diameter_sweeps(self):
        g = citation_dag(2000, 5000, seed=2)
        # needed by the d=8 query workload of Exp-2
        ranks = algorithms.topological_ranks(g)
        assert max(ranks.values()) >= 8

    def test_too_small_rejected(self):
        with pytest.raises(GraphError):
            citation_dag(1, 0)


class TestRandomTree:
    def test_is_rooted_tree(self):
        t = random_tree(200, seed=3)
        assert algorithms.is_tree(t)
        assert algorithms.tree_root(t) == 0

    def test_max_children_respected(self):
        t = random_tree(300, seed=3, max_children=2)
        assert all(len(t.successors(v)) <= 2 for v in t.nodes())

    def test_edge_count(self):
        t = random_tree(50, seed=1)
        assert t.n_edges == 49


class TestBlockAssignment:
    def test_covers_all_nodes_and_fragments(self):
        g = random_labeled_graph(100, 300, seed=1)
        assign = contiguous_block_assignment(g, 7)
        assert set(assign) == set(g.nodes())
        assert set(assign.values()) == set(range(7))

    def test_too_many_fragments_rejected(self):
        g = random_labeled_graph(3, 2, seed=1)
        with pytest.raises(GraphError):
            contiguous_block_assignment(g, 10)
