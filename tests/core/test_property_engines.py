"""Property-based cross-engine parity: dict and array answers are identical.

The array engine re-implements local evaluation over CSR arrays; nothing
about the protocol's answer may depend on that choice.  Hypothesis generates
graphs, real partitioner outputs (all three general partitioners), patterns,
and optimization configs; every served algorithm's array answer is compared
to its dict answer and to the centralized oracle -- including across a
mutation stream, which exercises the compiled-CSR cache's per-fragment
invalidation inside a resident session.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import DgpmConfig
from repro.core.dgpm import DGPM
from repro.core.dgpmd import DGPMD
from repro.core.dgpmt import DGPMT
from repro.core.protocol import run_protocol
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_tree
from repro.graph.mutations import DeleteEdge, InsertEdge, RemoveNode
from repro.graph.pattern import Pattern
from repro.partition.partitioners import (
    balanced_bfs_partition,
    hash_partition,
    random_partition,
    tree_partition,
)
from repro.session import SimulationSession
from repro.simulation import simulation

pytest.importorskip("numpy")

LABELS = "ABC"
PARTITIONERS = (hash_partition, random_partition, balanced_bfs_partition)


def _graph(draw):
    n = draw(st.integers(min_value=2, max_value=14))
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=n, max_size=n))
    graph = DiGraph({i: labels[i] for i in range(n)})
    for _ in range(draw(st.integers(min_value=0, max_value=3 * n))):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v)
    return graph


def _pattern(draw, max_nodes=3):
    qn = draw(st.integers(min_value=1, max_value=max_nodes))
    qlabels = draw(st.lists(st.sampled_from(LABELS), min_size=qn, max_size=qn))
    qedges = []
    for _ in range(draw(st.integers(min_value=0, max_value=2 * qn))):
        a = draw(st.integers(min_value=0, max_value=qn - 1))
        b = draw(st.integers(min_value=0, max_value=qn - 1))
        qedges.append((a, b))
    return Pattern({i: qlabels[i] for i in range(qn)}, qedges)


@st.composite
def engine_instances(draw):
    graph = _graph(draw)
    partitioner = draw(st.sampled_from(PARTITIONERS))
    n_frag = draw(st.integers(min_value=1, max_value=min(4, graph.n_nodes)))
    fragmentation = partitioner(
        graph, n_frag, seed=draw(st.integers(min_value=0, max_value=3))
    )
    return graph, fragmentation, _pattern(draw)


def shipped_protocol(result, config):
    """What a run shipped, envelopes aside: rounds, pushes, payload bytes.

    The array engine batches one tick's falsifications into one VAR_UPDATE
    per watcher site where the dict engine sends one per variable, so the
    message count -- and with it the header share of DS -- may differ; the
    variables, equations and rewires that travel, and the round each travels
    in, may not.
    """
    m = result.metrics
    payload = m.ds_bytes - config.cost.message_header_bytes * m.n_messages
    return m.n_rounds, m.extras["pushes"], payload


@settings(max_examples=50, deadline=None)
@given(engine_instances(), st.booleans(), st.booleans(), st.sampled_from((0.0, 0.2)))
def test_dgpm_cross_engine_parity(instance, push, incremental, theta):
    graph, fragmentation, pattern = instance
    config = DgpmConfig(enable_push=push, incremental=incremental, push_threshold=theta)
    oracle = simulation(pattern, graph)
    by_dict = run_protocol(DGPM, pattern, fragmentation, config, "dict")
    by_array = run_protocol(DGPM, pattern, fragmentation, config, "array")
    assert by_dict.relation == oracle
    assert by_array.relation == oracle
    assert shipped_protocol(by_array, config) == shipped_protocol(by_dict, config)
    assert by_array.metrics.n_messages <= by_dict.metrics.n_messages


@settings(max_examples=30, deadline=None)
@given(engine_instances())
def test_dgpmd_cross_engine_parity_on_dag_queries(instance):
    graph, fragmentation, pattern = instance
    if not pattern.is_dag():
        return
    oracle = simulation(pattern, graph)
    assert run_protocol(DGPMD, pattern, fragmentation, engine="dict").relation == oracle
    assert run_protocol(DGPMD, pattern, fragmentation, engine="array").relation == oracle


@st.composite
def tree_instances(draw):
    n = draw(st.integers(min_value=2, max_value=16))
    tree = random_tree(n, n_labels=3, seed=draw(st.integers(min_value=0, max_value=50)))
    n_frag = draw(st.integers(min_value=1, max_value=min(4, n)))
    fragmentation = tree_partition(
        tree, n_frag, seed=draw(st.integers(min_value=0, max_value=3))
    )
    qn = draw(st.integers(min_value=1, max_value=3))
    qlabels = draw(st.lists(st.sampled_from("L0 L1 L2".split()), min_size=qn, max_size=qn))
    qedges = [
        (draw(st.integers(min_value=0, max_value=i - 1)), i) for i in range(1, qn)
    ]
    return tree, fragmentation, Pattern({i: qlabels[i] for i in range(qn)}, qedges)


@settings(max_examples=30, deadline=None)
@given(tree_instances())
def test_dgpmt_cross_engine_parity(instance):
    tree, fragmentation, pattern = instance
    oracle = simulation(pattern, tree)
    assert run_protocol(DGPMT, pattern, fragmentation, engine="dict").relation == oracle
    assert run_protocol(DGPMT, pattern, fragmentation, engine="array").relation == oracle


@st.composite
def mutation_instances(draw):
    graph = _graph(draw)
    partitioner = draw(st.sampled_from(PARTITIONERS))
    n_frag = draw(st.integers(min_value=1, max_value=min(4, graph.n_nodes)))
    fragmentation = partitioner(
        graph, n_frag, seed=draw(st.integers(min_value=0, max_value=3))
    )
    n = graph.n_nodes
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(("delete", "insert", "remove", "unwatch")),
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=6,
        )
    )
    return fragmentation, _pattern(draw), ops


def _apply(session, kind, u, v) -> bool:
    """Apply one drawn op if the current graph allows it."""
    fragmentation = session.fragmentation
    graph = fragmentation.graph
    if kind == "delete" and graph.has_edge(u, v):
        session.apply([DeleteEdge(u, v)])
    elif kind == "insert" and u in graph and v in graph and u != v and not graph.has_edge(u, v):
        session.apply([InsertEdge(u, v)])
    elif kind == "remove" and u in graph and graph.n_nodes > 1:
        session.apply([RemoveNode(u)])
    elif kind == "unwatch" and v in graph:
        # a crossing-edge delete that leaves the target fragment's graph
        # alone and only drops a watcher (or the in-node marker with it)
        sources = [
            w for w in graph.predecessors(v)
            if fragmentation.owner(w) != fragmentation.owner(v)
        ]
        if not sources:
            return False
        session.apply([DeleteEdge(sources[u % len(sources)], v)])
    else:
        return False
    return True


@settings(max_examples=25, deadline=None)
@given(mutation_instances())
def test_array_session_stays_exact_across_mutation_stream(instance):
    """A resident array-engine session, mutated through the session API.

    ``warm()`` compiles everything the first query needs.  The compiled-CSR
    cache is *kept* across mutations: the next query recompiles exactly the
    fragments the mutation touched and rebuilds the host snapshot over them
    -- every answer is re-checked against the centralized oracle on the
    current graph.
    """
    fragmentation, pattern, ops = instance
    session = SimulationSession(fragmentation, cache_size=0, engine="array").warm()
    graph = session.fragmentation.graph
    compiled = session.compiled_fragments()
    fids = [frag.fid for frag in fragmentation]
    assert (compiled.compilations, compiled.host_builds) == (len(fids), 1)
    assert session.run(pattern, algorithm="dgpm").relation == simulation(pattern, graph)
    assert (compiled.compilations, compiled.host_builds) == (len(fids), 1)
    for kind, u, v in ops:
        before = {fid: compiled.get(fid) for fid in fids}
        counts = (compiled.compilations, compiled.host_builds)
        if not _apply(session, kind, u, v):
            continue
        stale = [
            fid for fid in fids if not before[fid].is_fresh(session.fragmentation[fid])
        ]
        assert stale
        assert session.run(pattern, algorithm="dgpm").relation == simulation(
            pattern, graph
        )
        assert compiled.compilations == counts[0] + len(stale)
        assert compiled.host_builds == counts[1] + 1
        for fid in fids:
            assert (compiled.get(fid) is before[fid]) == (fid not in stale)
    # mutations must never blow the compiled cache away wholesale
    assert session.compiled_fragments() is compiled
