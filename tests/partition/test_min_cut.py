"""Properties of :func:`min_cut_partition` and the traffic weighting.

The cut-minimizing partitioner is what the online rebalancer trusts with
the live graph, so its contract is checked property-style on arbitrary
graphs: the Section-2.2 invariants hold, no fragment is ever emptied, the
balance cap bounds every *move* (the BFS seed itself may exceed the cap on
tiny graphs -- refinement must never push a fragment further above it), the
cut is never worse than the BFS seed it starts from, and everything is a
pure function of (graph, seed, weights).
"""

import random

from hypothesis import given, settings, strategies as st

from repro.graph.digraph import DiGraph
from repro.graph.generators import web_graph
from repro.partition.fragmentation import fragment_graph
from repro.partition.metrics import partition_stats
from repro.partition.partitioners import (
    balanced_bfs_partition,
    min_cut_partition,
    traffic_node_weights,
)


@st.composite
def labeled_graph(draw):
    n = draw(st.integers(min_value=4, max_value=40))
    labels = draw(st.lists(st.sampled_from("ABC"), min_size=n, max_size=n))
    graph = DiGraph({i: labels[i] for i in range(n)})
    for _ in range(draw(st.integers(min_value=0, max_value=3 * n))):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            graph.add_edge(u, v)
    n_frag = draw(st.integers(min_value=1, max_value=min(6, n // 2)))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return graph, n_frag, seed


def _cut_weight(fragmentation, weights=None):
    if weights is None:
        return fragmentation.n_crossing_edges
    return sum(
        (weights.get(u, 1.0) + weights.get(v, 1.0)) / 2.0
        for u, v in fragmentation.crossing_edges()
    )


@settings(max_examples=60, deadline=None)
@given(labeled_graph())
def test_min_cut_satisfies_section_2_2(data):
    graph, n_frag, seed = data
    frag = min_cut_partition(graph, n_frag, seed=seed)
    frag.validate()
    assert frag.n_fragments == n_frag
    assert all(f.n_local_nodes >= 1 for f in frag)


@settings(max_examples=60, deadline=None)
@given(labeled_graph())
def test_min_cut_never_worse_than_bfs_seed(data):
    graph, n_frag, seed = data
    # min_cut derives its BFS start from one rng draw; mirror it exactly.
    rng = random.Random(seed)
    bfs = balanced_bfs_partition(graph, n_frag, seed=rng.randrange(2**31))
    refined = min_cut_partition(graph, n_frag, seed=seed)
    assert refined.n_crossing_edges <= bfs.n_crossing_edges


@settings(max_examples=60, deadline=None)
@given(labeled_graph())
def test_min_cut_moves_respect_balance_cap(data):
    graph, n_frag, seed = data
    balance = 1.25
    rng = random.Random(seed)
    bfs = balanced_bfs_partition(graph, n_frag, seed=rng.randrange(2**31))
    refined = min_cut_partition(graph, n_frag, seed=seed, balance=balance)
    cap = balance * graph.n_nodes / n_frag
    seed_sizes = {f.fid: f.n_local_nodes for f in bfs}
    for f in refined:
        # A fragment may exceed the cap only if the BFS seed already did;
        # refinement moves never push any fragment above max(seed, cap).
        assert f.n_local_nodes <= max(seed_sizes[f.fid], cap) + 1e-9


@settings(max_examples=40, deadline=None)
@given(labeled_graph())
def test_min_cut_is_deterministic_in_seed(data):
    graph, n_frag, seed = data
    a = min_cut_partition(graph, n_frag, seed=seed)
    b = min_cut_partition(graph, n_frag, seed=seed)
    assert {v: a.owner(v) for v in graph.nodes()} == {
        v: b.owner(v) for v in graph.nodes()
    }


def test_min_cut_rejects_slack_free_balance():
    graph = DiGraph({i: "A" for i in range(8)})
    try:
        min_cut_partition(graph, 2, balance=1.0)
    except Exception as exc:
        assert "balance" in str(exc)
    else:  # pragma: no cover
        raise AssertionError("balance=1.0 must be rejected")


def test_min_cut_beats_hash_on_local_web_graph():
    # The smoke-gate scenario in miniature: locality-heavy generator graphs
    # have a low-cut structure hash_partition ignores entirely.
    from repro.partition.partitioners import hash_partition

    g = web_graph(600, 3000, seed=7)
    cut_min = min_cut_partition(g, 8, seed=7).n_crossing_edges
    cut_hash = hash_partition(g, 8, seed=7).n_crossing_edges
    assert cut_min < cut_hash


def test_traffic_weights_spread_fragment_load():
    g = web_graph(200, 800, seed=1)
    frag = min_cut_partition(g, 4, seed=1)
    traffic = {0: 40, 1: 0, 2: 8}
    weights = traffic_node_weights(frag, traffic)
    assert set(weights) == set(g.nodes())
    f0 = next(f for f in frag if f.fid == 0)
    per_node = 40 / f0.n_local_nodes
    assert all(weights[v] == 1.0 + per_node for v in f0.local_nodes)
    f1 = next(f for f in frag if f.fid == 1)
    assert all(weights[v] == 1.0 for v in f1.local_nodes)


def test_traffic_weights_accept_session_stats_and_ignore_overflow():
    from repro.session.session import SessionStats

    g = web_graph(100, 300, seed=2)
    frag = min_cut_partition(g, 4, seed=2)
    stats = SessionStats(
        fragment_queries={0: 5, -1: 1000}, fragment_mutations={0: 3, 1: 2}
    )
    weights = traffic_node_weights(frag, stats)
    f0 = next(f for f in frag if f.fid == 0)
    assert all(weights[v] == 1.0 + 8 / f0.n_local_nodes for v in f0.local_nodes)
    f2 = next(f for f in frag if f.fid == 2)
    assert all(weights[v] == 1.0 for v in f2.local_nodes)


def test_weighted_cut_avoids_hot_region():
    # Make one region hot; the weighted partitioner only takes moves that
    # strictly reduce the *weighted* cut, so measured in those weights it
    # must end at or below the BFS seed both runs start from.
    g = web_graph(300, 1500, seed=3)
    base = min_cut_partition(g, 6, seed=3)
    hottest = max(base, key=lambda f: f.n_local_nodes).fid
    weights = traffic_node_weights(base, {hottest: 500})
    rng = random.Random(3)
    seed_frag = balanced_bfs_partition(g, 6, seed=rng.randrange(2**31))
    weighted = min_cut_partition(g, 6, seed=3, node_weights=weights)
    weighted.validate()
    assert _cut_weight(weighted, weights) <= _cut_weight(seed_frag, weights)


def test_partition_stats_cut_quality_fields():
    g = web_graph(200, 800, seed=6)
    frag = min_cut_partition(g, 4, seed=6)
    stats = partition_stats(frag)
    assert stats.total_boundary == sum(
        len(f.virtual_nodes) + len(f.in_nodes) for f in frag
    )
    sizes = [f.n_local_nodes for f in frag]
    avg = sum(sizes) / len(sizes)
    assert stats.smallest_fragment_nodes == min(sizes)
    assert abs(stats.imbalance_max - max(abs(s - avg) / avg for s in sizes)) < 1e-12
    assert 0.0 <= stats.imbalance_mean <= stats.imbalance_max
    assert "boundary=" in stats.describe()
