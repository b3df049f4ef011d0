"""Metamorphic suite: a mutating session must always equal the oracle.

Random streams of interleaved deletes / inserts / node additions / queries
are applied through :class:`SimulationSession`'s mutation API, and after
*every* step the session's answer is checked against a from-scratch
centralized ``simulation(query, G')`` on the current graph -- across three
partitioners and every algorithm the session serves (shape-restricted
algorithms get shape-preserving streams: deletions/re-insertions for dGPMd
on DAGs, leaf growth for dGPMt on trees).  The baselines, which no session
serves, answer one-shot over the fragmentation the session patches.

Randomness comes from the ``rng``/``rng_seed`` fixtures (seed derived from
the test node id and printed on every run), so a failing stream replays
exactly from the report.
"""

from __future__ import annotations

import pytest

from repro import (
    ConcurrentSessionServer,
    DgpmConfig,
    SimulationSession,
    balanced_bfs_partition,
    citation_dag,
    hash_partition,
    random_partition,
    random_tree,
    run_dishhk,
    run_dmes,
    run_match,
    simulation,
    tree_partition,
    web_graph,
)
from repro.bench.workloads import cyclic_pattern, dag_pattern, tree_pattern
from repro.graph.mutations import AddNode, DeleteEdge, InsertEdge, RemoveNode
from repro.graph.pattern import Pattern
from tests.conftest import warm_entries

PARTITIONERS = {
    "random": lambda g, seed: random_partition(g, 3, seed=seed),
    "bfs": lambda g, seed: balanced_bfs_partition(g, 3, seed=seed),
    "hash": lambda g, seed: hash_partition(g, 3, seed=seed),
}

#: the session config of each case that is not the default: dGPMNOpt is
#: dGPM on a session built with both optimizations off
CONFIGS = {"dgpmnopt": DgpmConfig().without_optimizations()}

#: general-graph algorithms (dGPMd/dGPMt need shape-preserving streams
#: below), each as ``(session, query) -> RunResult``: dGPM served as is and
#: as dGPMNOpt, the baselines one-shot on the session's fragmentation
GENERAL_ALGORITHMS = {
    "dgpm": lambda session, q: session.run(q, algorithm="dgpm"),
    "dgpmnopt": lambda session, q: session.run(q, algorithm="dgpm"),
    "dmes": lambda session, q: run_dmes(q, session.fragmentation),
    "dishhk": lambda session, q: run_dishhk(q, session.fragmentation),
    "match": lambda session, q: run_match(q, session.fragmentation),
}


def _mutate_once(rng, session, graph, deleted):
    """One random update through the session API; returns what it did."""
    r = rng.random()
    if r < 0.45 and graph.n_edges:
        edges = list(graph.edges())
        u, v = edges[rng.randrange(len(edges))]
        session.apply([DeleteEdge(u, v)])
        deleted.append((u, v))
        return "delete"
    if r < 0.75 and deleted:
        u, v = deleted.pop(rng.randrange(len(deleted)))
        if not graph.has_edge(u, v):
            session.apply([InsertEdge(u, v)])
            return "insert"
        return "noop"
    if r < 0.9:
        node = ("meta", session.stats.mutations)
        label = rng.choice(sorted(graph.label_alphabet(), key=repr))
        session.apply([AddNode(node, label)])
        return "add_node"
    nodes = list(graph.nodes())
    u, v = rng.choice(nodes), rng.choice(nodes)
    if u != v and not graph.has_edge(u, v):
        session.apply([InsertEdge(u, v)])
        return "insert"
    return "noop"


@pytest.mark.parametrize("partitioner", sorted(PARTITIONERS))
@pytest.mark.parametrize("algorithm", list(GENERAL_ALGORITHMS))
def test_interleaved_stream_matches_oracle(partitioner, algorithm, rng, rng_seed):
    seed = rng_seed % 1000  # per-case, from the printed fixture seed
    answer = GENERAL_ALGORITHMS[algorithm]
    graph = web_graph(60, 260, n_labels=4, seed=seed)
    frag = PARTITIONERS[partitioner](graph, seed)
    session = SimulationSession(frag, config=CONFIGS.get(algorithm))
    queries = [
        cyclic_pattern(graph, 3, 4, seed=seed),
        Pattern({"a": "dom0", "b": "dom1"}, [("a", "b")]),
        Pattern({"p": "dom2"}),  # childless point query
    ]
    # Pre-serve so the stream starts with cached (and soon warm) entries.
    for q in queries:
        answer(session, q)

    deleted = []
    for step in range(12):
        _mutate_once(rng, session, graph, deleted)
        frag.validate()
        q = queries[step % len(queries)]
        result = answer(session, q)
        assert result.relation == simulation(q, graph), (
            partitioner, algorithm, step,
        )
    # Every query once more at the end, against the final graph.
    for q in queries:
        assert answer(session, q).relation == simulation(q, graph)
    assert session.stats.invalidations == 0  # maintained, never dropped


def test_dgpmd_stream_on_dag(rng, rng_seed):
    """dGPMd serves a DAG under deletions and re-insertions (DAG-safe)."""
    seed = rng_seed % 1000
    graph = citation_dag(120, 420, seed=seed)
    frag = random_partition(graph, 3, seed=seed)
    session = SimulationSession(frag)
    queries = [dag_pattern(graph, diameter=2, n_nodes=4, n_edges=4, seed=s) for s in (0, 1)]
    for q in queries:
        session.run(q, algorithm="dgpmd")
    deleted = []
    for step in range(10):
        if step % 3 != 2 or not deleted:
            edges = list(graph.edges())
            u, v = edges[rng.randrange(len(edges))]
            session.apply([DeleteEdge(u, v)])
            deleted.append((u, v))
        else:
            u, v = deleted.pop()
            session.apply([InsertEdge(u, v)])  # re-insertion cannot create a cycle
        frag.validate()
        q = queries[step % len(queries)]
        assert session.run(q, algorithm="dgpmd").relation == simulation(q, graph), step


def test_dgpmt_stream_on_growing_tree(rng, rng_seed):
    """dGPMt serves a tree that grows leaves (tree + connectivity preserved:
    each new node joins its parent's fragment)."""
    seed = rng_seed % 1000
    tree = random_tree(60, seed=seed)
    frag = tree_partition(tree, 3, seed=seed)
    session = SimulationSession(frag)
    queries = [tree_pattern(tree, n_nodes=3, seed=s) for s in (0, 1)]
    for q in queries:
        session.run(q, algorithm="dgpmt")
    labels = sorted(tree.label_alphabet(), key=repr)
    for step in range(8):
        parent = rng.choice(list(tree.nodes()))
        leaf = ("leaf", step)
        session.apply([AddNode(leaf, rng.choice(labels), fid=frag.owner(parent))])
        # a local edge: the fragment stays connected
        session.apply([InsertEdge(parent, leaf)])
        frag.validate()
        assert frag.has_connected_fragments()
        q = queries[step % len(queries)]
        assert session.run(q, algorithm="dgpmt").relation == simulation(q, tree), step


def test_auto_dispatch_stream(rng, rng_seed):
    """The auto-dispatched session stays oracle-exact under mutations."""
    seed = rng_seed % 1000
    graph = web_graph(50, 220, n_labels=4, seed=seed)
    frag = random_partition(graph, 3, seed=seed)
    session = SimulationSession(frag)
    q = cyclic_pattern(graph, 3, 4, seed=seed)
    deleted = []
    for step in range(8):
        _mutate_once(rng, session, graph, deleted)
        frag.validate()
        assert session.run(q).relation == simulation(q, graph), step


# ----------------------------------------------------------------------
# more hot patterns than warm slots: promotion happens on the write side
# ----------------------------------------------------------------------
def _pattern_pool(graph, seed):
    """Twelve patterns over a four-label alphabet: every label-relevant
    update touches several of them at once."""
    labels = sorted(graph.label_alphabet(), key=repr)
    pool = [cyclic_pattern(graph, 3, 4, seed=seed + s) for s in range(4)]
    pool += [Pattern({"p": label}) for label in labels[:2]]  # childless
    for i, a in enumerate(labels[:3]):
        b = labels[(i + 1) % len(labels)]
        pool.append(Pattern({"a": a, "b": b}, [("a", "b")]))
        pool.append(Pattern({"a": a, "b": b, "c": a}, [("a", "b"), ("b", "c")]))
    assert len(pool) == 12
    return pool


def _random_batch(rng, graph, mirror_deleted, size):
    """``size`` typed ops valid in sequence against ``graph`` as it stands."""
    scratch = graph.copy()
    batch = []
    while len(batch) < size:
        r = rng.random()
        nodes = list(scratch.nodes())
        if r < 0.4 and scratch.n_edges:
            edges = list(scratch.edges())
            u, v = edges[rng.randrange(len(edges))]
            scratch.remove_edge(u, v)
            mirror_deleted.append((u, v))
            batch.append(DeleteEdge(u, v))
        elif r < 0.75:
            u, v = (
                mirror_deleted.pop(rng.randrange(len(mirror_deleted)))
                if mirror_deleted and rng.random() < 0.6
                else (rng.choice(nodes), rng.choice(nodes))
            )
            if u == v or u not in scratch or v not in scratch or scratch.has_edge(u, v):
                continue
            scratch.add_edge(u, v)
            batch.append(InsertEdge(u, v))
        elif r < 0.9:
            node = ("meta", rng.randrange(2**31))
            label = rng.choice(sorted(scratch.label_alphabet(), key=repr))
            scratch.add_node(node, label)
            batch.append(AddNode(node, label))
        else:
            node = rng.choice(nodes)
            scratch.remove_node(node)
            batch.append(RemoveNode(node))
    return batch


@pytest.mark.parametrize("max_warm_states", [0, 1, 2, 8])
def test_more_hot_patterns_than_slots(max_warm_states, rng, rng_seed):
    """Twelve hot patterns compete for 0/1/2/8 slots under random writes:
    whichever entries a write promotes, retires, repairs or evicts, every
    answer served afterwards equals from-scratch simulation."""
    seed = rng_seed % 1000
    graph = web_graph(60, 260, n_labels=4, seed=seed)
    frag = random_partition(graph, 3, seed=seed)
    session = SimulationSession(frag, max_warm_states=max_warm_states)
    pool = _pattern_pool(graph, seed)
    for q in pool + pool:  # everything hot before the first write
        session.run(q)
    deleted = []
    for step in range(30):
        if rng.random() < 0.5:
            q = rng.choice(pool)
            assert session.run(q).relation == simulation(q, graph), step
            continue
        session.apply(_random_batch(rng, graph, deleted, rng.choice((1, 1, 3))))
        frag.validate()
        assert len(warm_entries(session)) <= max_warm_states
        for q in rng.sample(pool, 4):
            assert session.run(q).relation == simulation(q, graph), step
    for q in pool:
        assert session.run(q).relation == simulation(q, graph)
    assert session.stats.invalidations == 0
    if max_warm_states != 1:  # one slot can go a whole stream unclaimed
        assert (session.stats.entries_promoted > 0) == (max_warm_states > 0)


def test_subscriber_entry_promoted_by_its_first_relevant_batch(rng, rng_seed):
    """Through the thread backend with two standing queries among the twelve
    hot patterns and two slots: a subscriber's cached entry is warm -- its
    pin promoted it outside the two slots -- so the first batch relevant to
    it repairs it (no eviction, no re-run), and folding every PUSH over the
    baseline reproduces the oracle at every stamp."""
    seed = rng_seed % 1000
    graph = web_graph(60, 260, n_labels=4, seed=seed)
    frag = random_partition(graph, 3, seed=seed)
    pool = _pattern_pool(graph, seed)
    subscribed = [pool[0], pool[6]]  # a cyclic pattern and a one-edge one
    pushes = []
    with ConcurrentSessionServer(frag, backend="thread", max_warm_states=2) as server:
        for q in pool + pool:
            server.run(q)
        views = {}
        for q in subscribed:  # served last: they own the two slots
            sub_id, baseline = server.subscribe(
                q, lambda *push: pushes.append(push)
            )
            views[sub_id] = (q, {u: set(vs) for u, vs in baseline.relation.as_dict().items()})
        stats = server._session.stats
        misses = stats.cache_misses
        a, b = next(iter(subscribed[1].edges()))
        pair = (subscribed[1].label(a), subscribed[1].label(b))
        first = next(
            DeleteEdge(u, v)
            for u, v in graph.edges()
            if (graph.label(u), graph.label(v)) == pair
        )
        deleted = []
        for step in range(16):
            batch = [first] if step == 0 else _random_batch(rng, graph, deleted, 2)
            outcomes = server.apply(batch)
            stamp = outcomes[-1].stamp
            if step == 0:  # repaired, not evicted and re-run
                pinned = {
                    id(entry.query)
                    for entry in warm_entries(server._session)
                    if entry.pins
                }
                assert {id(q) for q in subscribed} <= pinned
                assert stats.cache_misses == misses
            for sub_id, _, added, removed in (p for p in pushes if p[1] == stamp):
                view = views[sub_id][1]
                for qn, vn in added:
                    view.setdefault(qn, set()).add(vn)
                for qn, vn in removed:
                    view[qn].discard(vn)
            assert all(p[1] <= stamp for p in pushes)
            for q, view in views.values():
                oracle = simulation(q, graph).as_dict()
                assert {u: vs for u, vs in view.items() if vs} == {
                    u: set(vs) for u, vs in oracle.items() if vs
                }, step
            q = rng.choice(pool)
            assert server.run(q).relation == simulation(q, graph), step
        frag.validate()
        assert stats.invalidations == 0
    assert pushes, "sixteen batches should change a standing answer at least once"
