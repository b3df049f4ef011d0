"""Property test for the maintained shape index of :class:`DiGraph`.

Random mutation sequences on a graph whose index was built at a random point:
after every operation the maintained ``is_dag`` / ``is_tree`` must equal a
from-scratch oracle (Tarjan SCCs + weak connectivity, written here so it
shares no code with the index), the stored witness must be a real directed
cycle of the current graph, and pickling / copying must not change an answer.
"""

import pickle

from hypothesis import given, settings, strategies as st

from repro.graph import algorithms
from repro.graph.digraph import DiGraph

N = 5  # node ids are drawn from range(N): small enough to collide often

_node = st.integers(min_value=0, max_value=N - 1)
_edge = st.tuples(_node, _node)
_op = st.one_of(
    st.tuples(st.just("add_node"), _node, st.sampled_from("AB")),
    st.tuples(st.just("add_edge"), _node, _node),
    st.tuples(st.just("add_edge"), _node, _node),
    st.tuples(st.just("remove_edge"), _node, _node),
    st.tuples(st.just("remove_edge"), _node, _node),
    st.tuples(st.just("remove_node"), _node, st.none()),
)


def seeded(edges) -> DiGraph:
    """All ``N`` nodes present, so most drawn edge ops land."""
    graph = DiGraph({node: "A" for node in range(N)})
    for u, v in edges:
        graph.add_edge(u, v)
    return graph


def oracle_is_dag(graph: DiGraph) -> bool:
    if any(graph.has_edge(node, node) for node in graph.nodes()):
        return False
    return all(len(component) == 1 for component in algorithms.tarjan_scc(graph))


def oracle_is_tree(graph: DiGraph) -> bool:
    in_degrees = [graph.in_degree(node) for node in graph.nodes()]
    return (
        in_degrees.count(0) == 1
        and all(degree <= 1 for degree in in_degrees)
        and len(algorithms.weakly_connected_components(graph)) == 1
    )


def check(graph: DiGraph) -> None:
    dag, tree = oracle_is_dag(graph), oracle_is_tree(graph)
    assert algorithms.is_dag(graph) == dag
    assert algorithms.is_tree(graph) == tree
    shape = graph._shape
    assert shape is not None and shape.version == graph.version
    assert (shape.witness is None) == dag
    if shape.witness is not None:
        start = node = next(iter(shape.witness))
        for _ in range(len(shape.witness)):
            assert graph.has_edge(node, shape.witness[node])
            node = shape.witness[node]
        assert node == start
    for clone in (pickle.loads(pickle.dumps(graph)), graph.copy()):
        assert algorithms.is_dag(clone) == dag
        assert algorithms.is_tree(clone) == tree


def apply(graph: DiGraph, op) -> None:
    kind, a, b = op
    if kind == "add_node":
        graph.add_node(a, b)  # new node, relabel, or same-label no-op
    elif kind == "add_edge":
        if a in graph and b in graph:
            graph.add_edge(a, b)  # self-loops and parallel no-ops included
    elif kind == "remove_edge":
        if graph.has_edge(a, b):
            graph.remove_edge(a, b)
    elif a in graph:
        graph.remove_node(a)


@settings(max_examples=300, deadline=None)
@given(
    edges=st.lists(_edge, max_size=8),
    ops=st.lists(_op, min_size=1, max_size=40),
    build_at=st.integers(min_value=0, max_value=10),
)
def test_maintained_shape_matches_from_scratch_oracle(edges, ops, build_at):
    graph = seeded(edges)
    for i, op in enumerate(ops):
        if i == build_at:
            graph.warm_indexes()
        before = graph._shape
        apply(graph, op)
        if before is not None:
            # Maintained in place, never dropped -- a relabel included.
            assert graph._shape is before
            check(graph)
    check(graph)


@settings(max_examples=100, deadline=None)
@given(edges=st.lists(_edge, max_size=8), ops=st.lists(_op, min_size=1, max_size=40))
def test_unread_mutations_leave_at_most_one_rescan(edges, ops):
    """Mutators never scan; however many pile up, one reader settles them."""
    graph = seeded(edges)
    graph.warm_indexes()
    scans = []
    find_cycle = DiGraph._find_cycle
    DiGraph._find_cycle = lambda self: scans.append(self) or find_cycle(self)
    try:
        for op in ops:
            apply(graph, op)
        assert scans == []
        check(graph)
    finally:
        DiGraph._find_cycle = find_cycle
    assert sum(1 for g in scans if g is graph) <= 1


def test_index_left_behind_by_the_graph_is_rebuilt_not_trusted():
    """The stored version is the index's fault detector: facts that describe
    another version of the graph are recomputed from scratch by the reader."""
    graph = seeded([(0, 1), (1, 0)])
    graph.warm_indexes()
    stale = graph._shape
    graph._succ[1].remove(0)  # behind the mutators' back
    graph._succ_set[1].discard(0)
    graph._pred[0].remove(1)
    graph._version += 1
    assert algorithms.is_dag(graph)
    assert graph._shape is not stale and graph._shape.version == graph.version
