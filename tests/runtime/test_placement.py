"""Placement is invisible -- shown without starting a process.

A shard worker runs the engine's own ``LocalHost`` over the fragments it
owns, so "which sites share a worker" is exactly "which sites share a
``LocalHost``".  Hypothesis draws a small graph, a partition into at most 6
fragments and an arbitrary grouping of those fragments into hosts; for
every superstep algorithm of the registry the grouped run must give the
oracle's relation and the *same* message count, DS bytes and round count as
one host holding every site and as one host per site.  The real-process
cases (``test_mp.py``, ``tests/session/test_sharding.py``) can stay few
because of this.

On the array engine the same property says more: there a host's dGPM sites
are *one program* over a block-diagonal snapshot, so "one host per site" is
one program per site, "one host" is one program for all of them, and the
drawn grouping is anything in between -- none of which may show in the
relation, the message count, DS (total or by kind), the round count or the
number of pushes.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.dmes import DMES
from repro.core import DgpmConfig
from repro.core.depgraph import DependencyGraphs
from repro.core.dgpm import DGPM
from repro.core.dgpmd import DGPMD
from repro.core.dgpmt import DGPMT
from repro.core.protocol import local_host, run_protocol
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_tree
from repro.graph.pattern import Pattern
from repro.partition.partitioners import (
    balanced_bfs_partition,
    hash_partition,
    random_partition,
    tree_partition,
)
from repro.simulation import simulation

LABELS = "ABC"


def run_grouped(spec, query, fragmentation, config, labels, engine="dict"):
    """One run with fragment ``i`` on the host named ``labels[i]``."""
    deps = DependencyGraphs(fragmentation)
    compiled = None
    if engine == "array":
        from repro.core.arraycompile import CompiledFragmentation

        compiled = CompiledFragmentation(fragmentation)
    groups = {}
    for frag, label in zip(fragmentation, labels):
        groups.setdefault(label, []).append(frag.fid)
    placement = {}
    for fids in groups.values():
        host = local_host(spec, fids, fragmentation, query, deps, config, compiled)
        placement.update(dict.fromkeys(fids, host))
    result = run_protocol(spec, query, fragmentation, config, placement=placement)
    assert result.metrics.extras["sharded_workers"] == len(groups)
    return result


def accounting(result):
    m = result.metrics
    return m.n_messages, m.ds_bytes, m.n_rounds, m.ds_breakdown, m.extras.get("pushes")


def check_every_grouping_agrees(
    spec, query, graph, fragmentation, config, labels, engine="dict"
):
    k = fragmentation.n_fragments
    together = run_protocol(spec, query, fragmentation, config, engine)
    oracle = simulation(query, graph)
    assert together.relation == oracle
    for grouping in (labels[:k], list(range(k)), [0] * k):
        grouped = run_grouped(spec, query, fragmentation, config, grouping, engine)
        assert grouped.relation == oracle
        assert accounting(grouped) == accounting(together), grouping
        m = grouped.metrics
        assert len(m.per_round_compute) == m.n_rounds
        colocated = m.extras["colocated_ds_bytes"]
        assert 0 <= colocated <= m.ds_bytes
        if grouping == list(range(k)):
            assert colocated == 0
    return together


@st.composite
def instances(draw, acyclic=False):
    n = draw(st.integers(min_value=2, max_value=14))
    node_labels = draw(st.lists(st.sampled_from(LABELS), min_size=n, max_size=n))
    graph = DiGraph({i: node_labels[i] for i in range(n)})
    for _ in range(draw(st.integers(min_value=0, max_value=3 * n))):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if acyclic:
            u, v = min(u, v), max(u, v)
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v)
    partitioner = draw(
        st.sampled_from((hash_partition, random_partition, balanced_bfs_partition))
    )
    k = draw(st.integers(min_value=1, max_value=min(6, n)))
    fragmentation = partitioner(graph, k, seed=draw(st.integers(0, 3)))
    qn = draw(st.integers(min_value=1, max_value=3))
    qlabels = draw(st.lists(st.sampled_from(LABELS), min_size=qn, max_size=qn))
    qedges = []
    for _ in range(draw(st.integers(min_value=0, max_value=2 * qn))):
        a = draw(st.integers(min_value=0, max_value=qn - 1))
        b = draw(st.integers(min_value=0, max_value=qn - 1))
        if acyclic:
            a, b = min(a, b), max(a, b)
        if a != b or not acyclic:
            qedges.append((a, b))
    query = Pattern({i: qlabels[i] for i in range(qn)}, qedges)
    return graph, fragmentation, query


#: host label per fragment (only the first |F| are read)
groupings = st.lists(st.integers(min_value=0, max_value=5), min_size=6, max_size=6)


@settings(max_examples=60, deadline=None)
@given(instances(), groupings, st.booleans(), st.booleans())
def test_dgpm_accounting_ignores_placement(instance, labels, push, incremental):
    graph, fragmentation, query = instance
    config = DgpmConfig(enable_push=push, push_threshold=0.0, incremental=incremental)
    check_every_grouping_agrees(DGPM, query, graph, fragmentation, config, labels)


@settings(max_examples=40, deadline=None)
@given(
    instances(),
    groupings,
    st.booleans(),
    st.integers(min_value=0, max_value=50),
    st.sampled_from((0.3, 0.6, 1.0)),
)
def test_dgpm_answer_ignores_placement_under_any_schedule(
    instance, labels, push, seed, fraction
):
    """Scrambled delivery reorders each network independently, so only the
    fixpoint -- not the message count -- is placement-independent."""
    graph, fragmentation, query = instance
    config = DgpmConfig(
        enable_push=push, push_threshold=0.0, scramble=(seed, fraction)
    )
    grouping = labels[: fragmentation.n_fragments]
    grouped = run_grouped(DGPM, query, fragmentation, config, grouping)
    assert grouped.relation == simulation(query, graph)


#: push at any benefit, push never, and dGPMNOpt (no push, from-scratch lEval)
ARRAY_CONFIGS = {
    "push": DgpmConfig(push_threshold=0.0),
    "no-push": DgpmConfig(enable_push=False),
    "nopt": DgpmConfig().without_optimizations(),
}


@pytest.mark.parametrize("mode", sorted(ARRAY_CONFIGS))
@settings(max_examples=40, deadline=None)
@given(instances(), groupings)
def test_dgpm_array_accounting_ignores_how_sites_are_fused(mode, instance, labels):
    pytest.importorskip("numpy")
    graph, fragmentation, query = instance
    check_every_grouping_agrees(
        DGPM, query, graph, fragmentation, ARRAY_CONFIGS[mode], labels, engine="array"
    )


@settings(max_examples=40, deadline=None)
@given(
    instances(),
    groupings,
    st.booleans(),
    st.integers(min_value=0, max_value=50),
    st.sampled_from((0.3, 0.6, 1.0)),
)
def test_dgpm_array_answer_ignores_fusing_under_any_schedule(
    instance, labels, push, seed, fraction
):
    """Mail between the sites of one array program goes through the host's
    network, so a scrambled schedule holds it back like any other."""
    pytest.importorskip("numpy")
    graph, fragmentation, query = instance
    config = DgpmConfig(
        enable_push=push, push_threshold=0.0, scramble=(seed, fraction)
    )
    oracle = simulation(query, graph)
    k = fragmentation.n_fragments
    for grouping in (labels[:k], [0] * k):
        grouped = run_grouped(DGPM, query, fragmentation, config, grouping, "array")
        assert grouped.relation == oracle
    assert run_protocol(DGPM, query, fragmentation, config, "array").relation == oracle


@settings(max_examples=40, deadline=None)
@given(instances(), groupings)
def test_dmes_accounting_ignores_placement(instance, labels):
    graph, fragmentation, query = instance
    together = check_every_grouping_agrees(
        DMES, query, graph, fragmentation, DgpmConfig(), labels
    )
    assert together.metrics.extras["supersteps"] >= 1


@settings(max_examples=40, deadline=None)
@given(instances(acyclic=True), groupings)
def test_dgpmd_accounting_ignores_placement_on_dags(instance, labels):
    graph, fragmentation, query = instance
    check_every_grouping_agrees(
        DGPMD, query, graph, fragmentation, DgpmConfig(), labels
    )


@st.composite
def tree_instances(draw):
    n = draw(st.integers(min_value=2, max_value=16))
    tree = random_tree(n, n_labels=3, seed=draw(st.integers(0, 50)))
    k = draw(st.integers(min_value=1, max_value=min(6, n)))
    fragmentation = tree_partition(tree, k, seed=draw(st.integers(0, 3)))
    qn = draw(st.integers(min_value=1, max_value=3))
    qlabels = draw(st.lists(st.sampled_from("L0 L1 L2".split()), min_size=qn, max_size=qn))
    qedges = [(draw(st.integers(0, i - 1)), i) for i in range(1, qn)]
    return tree, fragmentation, Pattern({i: qlabels[i] for i in range(qn)}, qedges)


@settings(max_examples=40, deadline=None)
@given(tree_instances(), groupings)
def test_dgpmt_accounting_ignores_placement_on_trees(instance, labels):
    tree, fragmentation, query = instance
    check_every_grouping_agrees(
        DGPMT, query, tree, fragmentation, DgpmConfig(), labels
    )
