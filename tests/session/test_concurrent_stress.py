"""Concurrency stress suite: snapshot linearizability under real contention.

N reader threads hammer one :class:`ConcurrentSessionServer` while a writer
thread streams mutations through it.  The server's contract says each
returned result observed the graph at exactly the mutation stamp it reports;
the oracle here replays the writer's update list prefix-by-prefix on a
private copy of the graph and demands

    ``result.relation == simulation(query, graph_after_first_stamp_ops)``

for **every** result every reader ever got -- across dGPM and dGPMNOpt (the
general-graph algorithms the session serves) and two partitioners (``test_sharding.py``
runs the same harness against the sharded backend).

Every thread is joined with a timeout and asserted dead afterwards, so a
reader-writer deadlock fails the suite quickly even without the
``pytest-timeout`` ceiling CI adds on top.
"""

from __future__ import annotations

import random
import threading
from typing import Dict, List, Tuple

from repro import (
    ConcurrentSessionServer,
    DgpmConfig,
    citation_dag,
    hash_partition,
    random_partition,
    random_tree,
    simulation,
    tree_partition,
    web_graph,
)
from repro.bench.workloads import cyclic_pattern, dag_pattern, tree_pattern
from repro.graph.digraph import DiGraph
from repro.graph.mutations import AddNode, DeleteEdge, InsertEdge, MutationOp
from repro.graph.pattern import Pattern
from tests.session.test_cache_concurrency import _renamed

import pytest

PARTITIONERS = {
    "random": lambda g, seed: random_partition(g, 3, seed=seed),
    "hash": lambda g, seed: hash_partition(g, 3, seed=seed),
}

#: configs of dGPM, the served algorithm safe on arbitrary mutating graphs:
#: as is, and with both optimizations off -- the paper's dGPMNOpt (dGPMd/dGPMt
#: get dedicated shape-preserving scenarios below)
GENERAL_ALGORITHMS = {"dgpm": None, "dgpmnopt": DgpmConfig().without_optimizations()}

JOIN_TIMEOUT = 120.0


def _mutation_ops(graph: DiGraph, n_ops: int, rng: random.Random) -> List[MutationOp]:
    """A valid-in-sequence update list, generated against a scratch copy."""
    scratch = graph.copy()
    labels = sorted(scratch.label_alphabet(), key=repr)
    deleted: List[Tuple] = []
    ops: List[MutationOp] = []
    for step in range(n_ops):
        r = rng.random()
        if r < 0.5 and scratch.n_edges:
            edges = list(scratch.edges())
            u, v = edges[rng.randrange(len(edges))]
            scratch.remove_edge(u, v)
            deleted.append((u, v))
            ops.append(DeleteEdge(u, v))
        elif r < 0.8 and deleted:
            u, v = deleted.pop(rng.randrange(len(deleted)))
            scratch.add_edge(u, v)
            ops.append(InsertEdge(u, v))
        else:
            node = ("stress", step)
            label = rng.choice(labels)
            scratch.add_node(node, label)
            ops.append(AddNode(node, label))
    return ops


def _answer_moving_ops(
    graph: DiGraph, query: Pattern, n_cut: int, n_churn: int, rng: random.Random
) -> List[MutationOp]:
    """Cut ``n_cut`` edges inside ``query``'s answer, then make ``n_churn``
    random updates: a valid-in-sequence update list whose answer moves, so
    an update that misses a site shows in the oracle."""
    matched = {v for _, v in simulation(query, graph).as_relation()}
    cut = rng.sample(sorted(e for e in graph.edges() if set(e) <= matched), n_cut)
    rest = graph.copy()
    for edge in cut:
        rest.remove_edge(*edge)
    return [DeleteEdge(*edge) for edge in cut] + _mutation_ops(rest, n_churn, rng)


def _replay(graph: DiGraph, ops: List[MutationOp], n: int) -> DiGraph:
    """The graph after the first ``n`` updates (fresh copy each call)."""
    replayed = graph.copy()
    for op in ops[:n]:
        if isinstance(op, DeleteEdge):
            replayed.remove_edge(op.u, op.v)
        elif isinstance(op, InsertEdge):
            replayed.add_edge(op.u, op.v)
        else:
            replayed.add_node(op.node, op.label)
    return replayed


def _stress(
    server: ConcurrentSessionServer,
    queries: List[Pattern],
    ops: List[MutationOp],
    algorithm: str,
    seed: int,
    n_readers: int = 3,
    reads_per_reader: int = 8,
    batch: int = 1,
) -> List[Tuple[int, object]]:
    """Run readers against a writer; return [(query index, StampedResult)]."""
    results: List[Tuple[int, object]] = []
    failures: List[BaseException] = []
    barrier = threading.Barrier(n_readers + 1)

    def reader(idx: int) -> None:
        rng = random.Random(seed * 1000 + idx)
        try:
            barrier.wait(timeout=JOIN_TIMEOUT)
            for _ in range(reads_per_reader):
                qi = rng.randrange(len(queries))
                result = server.run(queries[qi], algorithm=algorithm)
                results.append((qi, result))  # list.append is atomic
        except BaseException as exc:
            failures.append(exc)

    def writer() -> None:
        try:
            barrier.wait(timeout=JOIN_TIMEOUT)
            for start in range(0, len(ops), batch):
                server.apply(ops[start:start + batch])
        except BaseException as exc:
            failures.append(exc)

    threads = [
        threading.Thread(target=reader, args=(i,), name=f"reader-{i}")
        for i in range(n_readers)
    ] + [threading.Thread(target=writer, name="writer")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=JOIN_TIMEOUT)
        assert not t.is_alive(), f"{t.name} deadlocked (zero-deadlock gate)"
    assert not failures, f"thread raised: {failures[0]!r}"
    assert server.stamp == len(ops)
    return results


def _check_snapshots(
    graph: DiGraph,
    queries: List[Pattern],
    ops: List[MutationOp],
    results: List[Tuple[int, object]],
) -> None:
    """Every result must equal the from-scratch oracle at its stamp."""
    oracle: Dict[Tuple[int, int], object] = {}
    observed_stamps = sorted({r.stamp for _, r in results})
    graphs = {s: _replay(graph, ops, s) for s in observed_stamps}
    for qi, result in results:
        key = (result.stamp, qi)
        if key not in oracle:
            oracle[key] = simulation(queries[qi], graphs[result.stamp])
        assert result.relation == oracle[key], (
            f"snapshot violation: query {qi} at stamp {result.stamp}"
        )


@pytest.mark.parametrize("partitioner", sorted(PARTITIONERS))
@pytest.mark.parametrize("variant", list(GENERAL_ALGORITHMS))
def test_readers_vs_writer_thread_backend(partitioner, variant, rng, rng_seed):
    seed = rng_seed % 1000
    graph = web_graph(40, 170, n_labels=4, seed=seed)
    initial = graph.copy()  # the oracle replays from here
    frag = PARTITIONERS[partitioner](graph, seed)
    queries = [
        cyclic_pattern(graph, 3, 4, seed=seed),
        Pattern({"a": "dom0", "b": "dom1"}, [("a", "b")]),
        Pattern({"p": "dom2"}),
    ]
    ops = _mutation_ops(graph, 8, rng)
    config = GENERAL_ALGORITHMS[variant]
    with ConcurrentSessionServer(
        frag, backend="thread", n_workers=4, config=config
    ) as server:
        results = _stress(server, queries, ops, "dgpm", seed)
    _check_snapshots(initial, queries, ops, results)


def test_readers_vs_batching_writer(rng, rng_seed):
    """Batched writes (apply of 3 ops at a time) keep snapshot semantics;
    readers only ever observe batch-boundary stamps."""
    seed = rng_seed % 1000
    graph = web_graph(40, 170, n_labels=4, seed=seed)
    initial = graph.copy()
    frag = random_partition(graph, 3, seed=seed)
    queries = [cyclic_pattern(graph, 3, 4, seed=seed)]
    ops = _mutation_ops(graph, 9, rng)
    with ConcurrentSessionServer(frag, backend="thread", n_workers=4) as server:
        results = _stress(server, queries, ops, "dgpm", seed, batch=3)
    boundary = {0, 3, 6, 9}
    assert {r.stamp for _, r in results} <= boundary
    _check_snapshots(initial, queries, ops, results)


def test_renamed_hits_race_lru_overflow(rng, rng_seed):
    """``cache_size=2`` under ten patterns, every request an isomorphic
    renaming with its own node names: a hit is translated through the found
    entry's canonical order while concurrent misses push that entry out of
    the LRU, beside the usual writer.  Each result must still equal the
    oracle at its stamp *on the caller's names*, and every query must have
    been counted as a hit or as a miss."""
    seed = rng_seed % 1000
    graph = web_graph(40, 170, n_labels=4, seed=seed)
    initial = graph.copy()
    frag = random_partition(graph, 3, seed=seed)
    labels = sorted(graph.label_alphabet(), key=repr)
    pool = [cyclic_pattern(graph, 3, 4, seed=seed + s) for s in range(2)]
    for i, a in enumerate(labels):
        b = labels[(i + 1) % len(labels)]
        pool.append(Pattern({"a": a, "b": b}, [("a", "b")]))
        pool.append(Pattern({"a": a, "b": b, "c": a}, [("a", "b"), ("b", "c")]))
    queries = [_renamed(pool[i % len(pool)], rng) for i in range(4 * len(pool))]
    ops = _mutation_ops(graph, 8, rng)
    with ConcurrentSessionServer(
        frag, backend="thread", n_workers=4, cache_size=2
    ) as server:
        results = _stress(
            server, queries, ops, "dgpm", seed, n_readers=4, reads_per_reader=16
        )
        stats = server.stats
    _check_snapshots(initial, queries, ops, results)
    assert stats.queries_served == 64 == stats.cache_hits + stats.cache_misses
    assert stats.cache_hits and stats.cache_evictions  # the race was on


def test_dgpmd_readers_vs_dag_safe_writer(rng, rng_seed):
    """dGPMd under deletions/re-insertions (cannot create a cycle)."""
    seed = rng_seed % 1000
    graph = citation_dag(80, 300, seed=seed)
    initial = graph.copy()
    frag = random_partition(graph, 3, seed=seed)
    queries = [dag_pattern(graph, diameter=2, n_nodes=4, n_edges=4, seed=s) for s in (0, 1)]
    scratch = graph.copy()
    deleted: List[Tuple] = []
    ops: List[MutationOp] = []
    for step in range(8):
        if step % 3 != 2 or not deleted:
            edges = list(scratch.edges())
            u, v = edges[rng.randrange(len(edges))]
            scratch.remove_edge(u, v)
            deleted.append((u, v))
            ops.append(DeleteEdge(u, v))
        else:
            u, v = deleted.pop()
            scratch.add_edge(u, v)
            ops.append(InsertEdge(u, v))
    with ConcurrentSessionServer(frag, backend="thread", n_workers=3) as server:
        results = _stress(server, queries, ops, "dgpmd", seed, n_readers=2)
    _check_snapshots(initial, queries, ops, results)


def test_dgpmt_readers_vs_leaf_growing_writer(rng, rng_seed):
    """dGPMt while the tree grows leaves; each (add_node, insert) pair is one
    atomic batch, so no reader ever sees the disconnected intermediate."""
    seed = rng_seed % 1000
    tree = random_tree(50, seed=seed)
    initial = tree.copy()
    frag = tree_partition(tree, 3, seed=seed)
    queries = [tree_pattern(tree, n_nodes=3, seed=s) for s in (0, 1)]
    labels = sorted(tree.label_alphabet(), key=repr)
    parents = [rng.choice(list(tree.nodes())) for _ in range(4)]
    batches = [
        [
            AddNode(("leaf", i), rng.choice(labels), frag.owner(parent)),
            InsertEdge(parent, ("leaf", i)),
        ]
        for i, parent in enumerate(parents)
    ]
    ops = [op for b in batches for op in b]
    results: List[Tuple[int, object]] = []
    failures: List[BaseException] = []
    barrier = threading.Barrier(3)

    def reader(idx: int) -> None:
        r = random.Random(seed + idx)
        try:
            barrier.wait(timeout=JOIN_TIMEOUT)
            for _ in range(6):
                qi = r.randrange(len(queries))
                results.append((qi, server.run(queries[qi], algorithm="dgpmt")))
        except BaseException as exc:
            failures.append(exc)

    def writer() -> None:
        try:
            barrier.wait(timeout=JOIN_TIMEOUT)
            for b in batches:
                server.apply(b)
        except BaseException as exc:
            failures.append(exc)

    with ConcurrentSessionServer(frag, backend="thread", n_workers=3) as server:
        threads = [threading.Thread(target=reader, args=(i,)) for i in range(2)]
        threads.append(threading.Thread(target=writer))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=JOIN_TIMEOUT)
            assert not t.is_alive(), "deadlock in dgpmt stress"
        assert not failures, f"thread raised: {failures[0]!r}"
    # Only even (batch-boundary) stamps are observable.
    assert all(r.stamp % 2 == 0 for _, r in results)
    _check_snapshots(initial, queries, ops, results)


def test_coalesced_identical_queries_single_flight(rng_seed):
    """Concurrent identical cold queries coalesce into one protocol run
    (the cache's atomic get-or-compute), all observing the same stamp."""
    seed = rng_seed % 1000
    graph = web_graph(60, 250, n_labels=4, seed=seed)
    frag = random_partition(graph, 3, seed=seed)
    query = cyclic_pattern(graph, 3, 4, seed=seed)
    with ConcurrentSessionServer(frag, backend="thread", n_workers=6) as server:
        futures = [server.submit(query, algorithm="dgpm") for _ in range(6)]
        results = [f.result(timeout=JOIN_TIMEOUT) for f in futures]
    assert len({id(r.relation) for r in results}) <= 2  # one compute + shares
    session = server.session
    assert session.stats.cache_misses == 1
    assert session.stats.cache_hits == 5
    oracle = simulation(query, graph)
    assert all(r.relation == oracle for r in results)
