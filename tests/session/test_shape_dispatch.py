"""Dispatch over maintained graph-shape facts.

``algorithm="auto"`` reads three facts -- base graph acyclic, base graph a
rooted tree, every fragment connected -- from indexes the graph and the
fragmentation maintain across mutations.  Checked here, through the serving
surfaces:

* the facts follow the graph through shape flips (DAG <-> cyclic, tree <->
  non-tree) on both backends, also when the graph is mutated around the
  session;
* cached entries never outlive the precondition of the driver they were
  computed under;
* after ``warm()`` serving never traverses the resident base graph to decide
  an algorithm (counted, not timed);
* the no-scan probe the inline cache hits dispatch through agrees with the
  full dispatch or defers to it, and never traverses anything itself.
"""

from __future__ import annotations

import pytest

from repro import (
    ConcurrentSessionServer,
    SimulationSession,
    partition,
    random_tree,
    simulation,
    tree_partition,
    web_graph,
)
from repro.bench.workloads import cyclic_pattern, tree_pattern
from repro.core.dispatch import choose_algorithm, choose_algorithm_if_decided
from repro.errors import GraphError, PatternError, ReproError
from repro.graph import algorithms
from repro.graph.digraph import DiGraph
from repro.graph.mutations import DeleteEdge, InsertEdge
from repro.graph.pattern import Pattern
from repro.partition.fragmentation import Fragmentation, fragment_graph
from tests.conftest import warm_entries

#: A <-> B: matches exactly the data nodes lying on an alternating A/B cycle.
TWO_CYCLE = Pattern({"a": "A", "b": "B"}, [("a", "b"), ("b", "a")])


def alternating_dag():
    """``0(A) -> 1(B) -> 2(A) -> 3(B)`` plus ``0 -> 3`` (a DAG, not a tree), cut
    in two; any back edge closes an alternating A/B cycle."""
    graph = DiGraph({0: "A", 1: "B", 2: "A", 3: "B"}, [(0, 1), (1, 2), (2, 3), (0, 3)])
    return fragment_graph(graph, {0: 0, 1: 0, 2: 1, 3: 1})


def small_tree():
    tree = random_tree(60, n_labels=3, seed=5)
    frag = tree_partition(tree, 3, seed=5)
    # An edge that is not in the tree and gives its target a second parent.
    target = next(n for n in tree.nodes() if tree.in_degree(n) == 1 and not tree.has_edge(0, n))
    return frag, tree_pattern(tree, 3, seed=2), (0, target)


def outcome(run):
    """The answer, or the type of error, of one serving call."""
    try:
        return run().relation
    except ReproError as exc:
        return type(exc)


@pytest.mark.parametrize("backend", ["thread", "sharded"])
def test_auto_follows_dag_to_cyclic_and_back(backend):
    frag = alternating_dag()
    with ConcurrentSessionServer(frag, backend=backend, n_workers=2) as server:
        first = server.run(TWO_CYCLE)
        assert first.metrics.algorithm.startswith("dGPMd")
        assert not first.is_match

        server.apply([InsertEdge(3, 0)])  # crossing edge closing 0 -> 1 -> 2 -> 3 -> 0
        closed = server.run(TWO_CYCLE)
        assert closed.metrics.algorithm.split("/")[0] == "dGPM"
        assert closed.relation == simulation(TWO_CYCLE, frag.graph)
        assert closed.is_match

        server.apply([DeleteEdge(3, 0)])
        reopened = server.run(TWO_CYCLE)
        assert reopened.metrics.algorithm.startswith("dGPMd")
        assert not reopened.is_match


@pytest.mark.parametrize("backend", ["thread", "sharded"])
def test_auto_follows_tree_to_non_tree_and_back(backend):
    frag, query, (u, v) = small_tree()
    with ConcurrentSessionServer(frag, backend=backend, n_workers=2) as server:
        assert server.run(query).metrics.algorithm.startswith("dGPMt")

        server.apply([InsertEdge(u, v)])
        grafted = server.run(query)
        assert grafted.metrics.algorithm.startswith("dGPMd")
        assert grafted.relation == simulation(query, frag.graph)

        server.apply([DeleteEdge(u, v)])
        pruned = server.run(query)
        assert pruned.metrics.algorithm.startswith("dGPMt")
        assert pruned.relation == simulation(query, frag.graph)


def test_facts_cannot_go_stale_out_of_band():
    """An edge applied around the session (straight onto the stored graphs)
    moves the facts too: they live on the graph, not in the session."""
    frag = alternating_dag()
    session = SimulationSession(frag).warm()
    assert session.run(TWO_CYCLE).metrics.algorithm == "dGPMd"

    frag.graph.add_edge(1, 0)  # intra-fragment, so validate() still holds
    frag[0].graph.add_edge(1, 0)
    served = session.run(TWO_CYCLE)
    assert served.metrics.algorithm == "dGPM"
    assert served.relation == simulation(TWO_CYCLE, frag.graph)
    assert served.is_match

    frag.graph.remove_edge(1, 0)
    frag[0].graph.remove_edge(1, 0)
    assert session.run(TWO_CYCLE).metrics.algorithm == "dGPMd"


@pytest.mark.parametrize(
    "algorithm, build, warm_edge, error",
    [
        # (0, 3) carries the query's (A, B) label pair and leaves a DAG a DAG
        ("dgpmd", lambda: (alternating_dag(), TWO_CYCLE, (3, 0)), (0, 3), PatternError),
        # every single write to a tree lapses dgpmt: the entry stays cold
        ("dgpmt", small_tree, None, GraphError),
    ],
    ids=["dgpmd", "dgpmt"],
)
def test_cached_entries_do_not_outlive_their_drivers_precondition(
    algorithm, build, warm_edge, error
):
    """Explicit ``dgpmd``/``dgpmt`` before and after a shape flip serve what a
    fresh session serves: the same answer or the same exception type -- also
    when the entry holds a warm state by then (evicted with the entry)."""
    frag, query, (u, v) = build()
    session = SimulationSession(frag)

    def served():
        return outcome(lambda: session.run(query, algorithm=algorithm))

    def fresh():
        return outcome(lambda: SimulationSession(frag).run(query, algorithm=algorithm))

    for _ in range(3):  # a miss and two hits: the entry is hot
        assert served() == fresh() != error
    if warm_edge is not None:  # the first relevant write builds the state
        session.apply([DeleteEdge(*warm_edge)])
        session.apply([InsertEdge(*warm_edge)])
        assert served() == fresh() != error
    assert len(warm_entries(session)) == (warm_edge is not None)
    session.apply([InsertEdge(u, v)])
    assert len(warm_entries(session)) == 0
    assert served() == fresh() == error
    session.apply([DeleteEdge(u, v)])
    assert served() == fresh() != error


class BaseGraphTraversals:
    """Counts whole-graph traversals whose argument *is* the resident base
    graph (pattern graphs and equation-system graphs are small and
    legitimate), recording the graph version each one ran at."""

    def __init__(self, monkeypatch, base: DiGraph) -> None:
        self.versions = []
        for owner, name in [
            (algorithms, "tarjan_scc"),
            (algorithms, "weakly_connected_components"),
            (DiGraph, "induced_subgraph"),
            (DiGraph, "_find_cycle"),
        ]:
            monkeypatch.setattr(owner, name, self._spy(getattr(owner, name), base))

    def _spy(self, real, base):
        def spy(graph, *args, **kwargs):
            if graph is base:
                self.versions.append(graph.version)
            return real(graph, *args, **kwargs)

        return spy


def test_serving_after_warm_never_traverses_the_base_graph(monkeypatch):
    graph = web_graph(1000, 5000, seed=3)
    frag = partition(graph, 4, seed=3)
    session = SimulationSession(frag).warm()
    shape = graph._shape
    assert shape is not None and shape.acyclic is False
    traversals = BaseGraphTraversals(monkeypatch, graph)

    distinct = {}  # canonical digest -> pattern: isomorphic samples would hit
    for seed in range(40):
        query = cyclic_pattern(graph, 3, 4, seed=seed)
        distinct.setdefault(session.canonical_form_of(query).digest, query)
    queries = list(distinct.values())[:20]
    for query in queries:  # 20 misses ...
        session.run(query)
    for i in range(100):  # ... and 100 hits
        session.run(queries[i % len(queries)])
    assert (session.stats.cache_hits, session.stats.cache_misses) == (100, 20)
    assert traversals.versions == []
    assert graph._shape is shape  # never rebuilt either

    with ConcurrentSessionServer(session) as server:
        for query in queries[:2]:
            server.subscribe(query, lambda *push: None)
        witness = shape.witness
        u, v = next((a, b) for a, b in graph.edges() if witness.get(a) != b)
        server.apply([DeleteEdge(u, v)])
        server.apply([InsertEdge(u, v)])
        server.run(queries[0])
        assert traversals.versions == []  # witness intact: nothing to settle

        u = next(iter(witness))
        v = witness[u]
        # the flag is unknown until a reader settles it
        server.apply([DeleteEdge(u, v)])
        for query in queries[:3]:
            server.run(query)
        server.apply([InsertEdge(u, v)])
        server.run(queries[0])
        assert 1 <= len(traversals.versions) == len(set(traversals.versions)) <= 2


def _forbid_base_graph_scans(m, base: DiGraph) -> None:
    """Fail on any shape build / cycle search of ``base`` (a pattern's own
    small graph may still settle its facts) and on any fragment walk."""

    def guard(real):
        def guarded(graph):
            assert graph is not base, "the probe scanned the base graph"
            return real(graph)

        return guarded

    def walked(*args):
        raise AssertionError("the probe walked a fragment")

    for name in ("_shape_index", "_find_cycle"):
        m.setattr(DiGraph, name, guard(getattr(DiGraph, name)))
    m.setattr(Fragmentation, "_is_connected", walked)


def test_decided_dispatch_never_scans_and_defers_only_until_settled(monkeypatch):
    """``choose_algorithm_if_decided`` reads no more than the maintained
    facts: it answers as ``choose_algorithm`` does, or defers -- and one
    ``choose_algorithm`` settles everything it deferred on."""
    dag_query = Pattern({"a": "A", "b": "B"}, [("a", "b")])
    tree_frag, tree_query, graft = small_tree()
    dag_frag = alternating_dag()
    steps = [
        (tree_frag, [tree_query], None),
        (tree_frag, [tree_query], ("insert", graft)),
        (tree_frag, [tree_query], ("delete", graft)),
        (dag_frag, [TWO_CYCLE, dag_query], None),
        (dag_frag, [TWO_CYCLE, dag_query], ("insert", (3, 0))),  # closes a cycle
        (dag_frag, [TWO_CYCLE, dag_query], ("delete", (3, 0))),  # on the witness
    ]
    deferred = answered = 0
    for frag, queries, mutation in steps:
        if mutation is not None:
            kind, (u, v) = mutation
            (frag.insert_edge if kind == "insert" else frag.delete_edge)(u, v)
        for query in queries:
            with monkeypatch.context() as m:
                _forbid_base_graph_scans(m, frag.graph)
                probe = choose_algorithm_if_decided(query, frag)
            chosen = choose_algorithm(query, frag)
            assert probe in (None, chosen)
            deferred += probe is None
            answered += probe is not None
            assert choose_algorithm_if_decided(query, frag) == chosen
    assert deferred >= 4 and answered >= 4


def test_warm_leaves_no_lazy_dispatch_work(monkeypatch):
    frag, query, _ = small_tree()
    session = SimulationSession(frag).warm()
    assert frag.graph._shape.acyclic is True
    assert frag._connected == (frag.version, True)
    traversals = BaseGraphTraversals(monkeypatch, frag.graph)
    assert session.run(query).metrics.algorithm == "dGPMt"
    assert traversals.versions == []
