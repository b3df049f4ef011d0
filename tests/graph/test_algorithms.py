"""Unit tests for the graph algorithm toolbox."""

import pytest

from repro.errors import GraphError
from repro.graph import algorithms
from repro.graph.digraph import DiGraph


def cycle_graph(n: int) -> DiGraph:
    g = DiGraph({i: "N" for i in range(n)})
    for i in range(n):
        g.add_edge(i, (i + 1) % n)
    return g


def chain(n: int) -> DiGraph:
    g = DiGraph({i: "N" for i in range(n)})
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    return g


class TestTarjan:
    def test_cycle_is_one_component(self):
        comps = algorithms.tarjan_scc(cycle_graph(5))
        assert len(comps) == 1
        assert sorted(comps[0]) == [0, 1, 2, 3, 4]

    def test_chain_is_singletons(self):
        comps = algorithms.tarjan_scc(chain(4))
        assert sorted(len(c) for c in comps) == [1, 1, 1, 1]

    def test_completion_order_sinks_first(self):
        # 0 -> 1 -> 2 : component containing 2 must be listed before 1's, etc.
        comps = algorithms.tarjan_scc(chain(3))
        order = [c[0] for c in comps]
        assert order.index(2) < order.index(1) < order.index(0)

    def test_two_cycles_bridged(self):
        g = DiGraph({i: "N" for i in range(6)})
        for i in (0, 1, 2):
            g.add_edge(i, (i + 1) % 3)
        for i in (3, 4, 5):
            g.add_edge(i, 3 + ((i - 3 + 1) % 3))
        g.add_edge(0, 3)  # bridge
        comps = algorithms.tarjan_scc(g)
        sizes = sorted(len(c) for c in comps)
        assert sizes == [3, 3]
        # the downstream cycle (3,4,5) completes first
        assert set(comps[0]) == {3, 4, 5}

    def test_deep_graph_no_recursion_error(self):
        comps = algorithms.tarjan_scc(chain(5000))
        assert len(comps) == 5000


class TestDagAndTopo:
    def test_is_dag(self):
        assert algorithms.is_dag(chain(4))
        assert not algorithms.is_dag(cycle_graph(3))

    def test_self_loop_is_cyclic(self):
        g = DiGraph({0: "N"}, [(0, 0)])
        assert not algorithms.is_dag(g)

    def test_topological_order(self):
        g = DiGraph({i: "N" for i in range(4)}, [(0, 1), (0, 2), (1, 3), (2, 3)])
        order = algorithms.topological_order(g)
        pos = {v: i for i, v in enumerate(order)}
        for u, v in g.edges():
            assert pos[u] < pos[v]

    def test_topological_order_cycle_raises(self):
        with pytest.raises(GraphError):
            algorithms.topological_order(cycle_graph(3))

    def test_topological_ranks_paper_definition(self):
        # Figure 5 ranks: r(u)=0 for sinks, else 1 + max child rank.
        g = DiGraph(
            {"YB1": "YB", "YB2": "YB", "SP": "SP", "YF": "YF", "F": "F", "FB": "FB"},
            [("YB2", "FB"), ("SP", "YB2"), ("YF", "SP"), ("F", "SP"),
             ("YB1", "YF"), ("YB1", "F")],
        )
        ranks = algorithms.topological_ranks(g)
        assert ranks == {"FB": 0, "YB2": 1, "SP": 2, "YF": 3, "F": 3, "YB1": 4}


class TestBfsAndDiameter:
    def test_bfs_layers_directed(self):
        dist = algorithms.bfs_layers(chain(4), [0])
        assert dist == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_bfs_layers_undirected(self):
        dist = algorithms.bfs_layers(chain(4), [3], undirected=True)
        assert dist == {3: 0, 2: 1, 1: 2, 0: 3}

    def test_bfs_unknown_source_raises(self):
        with pytest.raises(GraphError):
            algorithms.bfs_layers(chain(2), ["nope"])

    def test_diameter_chain(self):
        assert algorithms.diameter(chain(5)) == 4

    def test_diameter_cycle(self):
        assert algorithms.diameter(cycle_graph(6)) == 5

    def test_diameter_single_node(self):
        assert algorithms.diameter(DiGraph({0: "N"})) == 0


class TestComponentsAndTrees:
    def test_weakly_connected_components(self):
        g = DiGraph({0: "N", 1: "N", 2: "N", 3: "N"}, [(0, 1), (2, 3)])
        comps = algorithms.weakly_connected_components(g)
        assert sorted(sorted(c) for c in comps) == [[0, 1], [2, 3]]

    def test_is_tree_true(self):
        g = DiGraph({0: "N", 1: "N", 2: "N"}, [(0, 1), (0, 2)])
        assert algorithms.is_tree(g)
        assert algorithms.tree_root(g) == 0

    def test_is_tree_rejects_dag_with_shared_child(self):
        g = DiGraph({0: "N", 1: "N", 2: "N"}, [(0, 2), (1, 2)])
        assert not algorithms.is_tree(g)

    def test_is_tree_rejects_forest(self):
        g = DiGraph({0: "N", 1: "N", 2: "N", 3: "N"}, [(0, 1), (2, 3)])
        assert not algorithms.is_tree(g)

    def test_is_tree_rejects_cycle(self):
        assert not algorithms.is_tree(cycle_graph(3))

    def test_tree_root_raises_on_non_tree(self):
        with pytest.raises(GraphError):
            algorithms.tree_root(cycle_graph(3))

    def test_empty_graph_is_not_tree(self):
        assert not algorithms.is_tree(DiGraph())
