"""The consistent-hash ring and the sharded serving backend.

Two layers, matching the two halves of ``session/sharding.py``:

* **Ring properties** (Hypothesis): assignment is a total, deterministic,
  balanced function of the (worker set, fragment set) pair alone; a leave
  moves at most ``ceil(|F|/n) + 1`` fragments (``n`` the new worker count)
  and every move involves the leaving slot.
* **Serving parity**: ``backend="sharded"`` answers every served algorithm
  exactly like a from-scratch simulation, including under a mutation feed
  checked per stamp against the replay oracle, and agrees with the other
  backends on ownership-independent answers.
"""

from __future__ import annotations

import threading

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
from repro.core.dispatch import ALGORITHMS
from repro.errors import ReproError
from repro.graph.mutations import DeleteEdge, InsertEdge
from repro.session.session import SimulationSession
from repro.session.sharding import HashRing

import pytest
from hypothesis import given, settings, strategies as st

from tests.session.test_concurrent_stress import _answer_moving_ops, _replay


# ----------------------------------------------------------------------
# ring properties
# ----------------------------------------------------------------------

def _ceil(a: int, b: int) -> int:
    return -(-a // b)


@st.composite
def ring_inputs(draw):
    """A worker-slot set (ints and/or strings) plus a fragment-id set."""
    n_workers = draw(st.integers(min_value=1, max_value=8))
    workers = draw(
        st.lists(
            st.one_of(
                st.integers(min_value=0, max_value=99),
                st.text("abcdef", min_size=1, max_size=4),
            ),
            min_size=n_workers,
            max_size=n_workers,
            unique=True,
        )
    )
    n_fragments = draw(st.integers(min_value=0, max_value=40))
    fragments = draw(
        st.lists(
            st.integers(min_value=0, max_value=500),
            min_size=n_fragments,
            max_size=n_fragments,
            unique=True,
        )
    )
    return workers, fragments


@settings(max_examples=100, deadline=None)
@given(ring_inputs())
def test_assignment_total_and_deterministic(inputs):
    workers, fragments = inputs
    ring = HashRing(workers, fragments)
    again = HashRing(list(reversed(workers)), list(reversed(fragments)))
    assert ring.assignment() == again.assignment()
    assert set(ring.assignment()) == set(fragments)
    assert set(ring.assignment().values()) <= set(workers)
    for fid in fragments:
        assert ring.owner_of(fid) == ring.assignment()[fid]


@settings(max_examples=100, deadline=None)
@given(ring_inputs())
def test_fresh_ring_is_balanced(inputs):
    workers, fragments = inputs
    ring = HashRing(workers, fragments)
    assert ring.capacity == _ceil(max(len(fragments), 0), len(workers))
    for slot, load in ring.loads().items():
        assert load <= ring.capacity
    assert sum(ring.loads().values()) == len(fragments)


@settings(max_examples=100, deadline=None)
@given(ring_inputs())
def test_leave_moves_only_the_leavers_load(inputs):
    workers, fragments = inputs
    if len(workers) < 2:
        return  # leave() correctly refuses to empty the ring
    ring = HashRing(workers, fragments)
    leaver = sorted(workers, key=repr)[0]
    shrunk = ring.leave(leaver)
    moved = ring.moved(shrunk)
    assert set(moved) == set(ring.fragments_of(leaver))
    assert len(moved) <= _ceil(len(fragments), len(shrunk.workers)) + 1
    assert leaver not in shrunk.workers
    assert set(shrunk.assignment().values()) <= set(shrunk.workers)


def test_ring_rejects_bad_inputs():
    with pytest.raises(ValueError):
        HashRing([], [0, 1])
    with pytest.raises(ValueError):
        HashRing([0, 0], [1])
    ring = HashRing([0, 1], [0, 1, 2])
    with pytest.raises(ValueError):
        ring.leave(7)
    with pytest.raises(ValueError):
        HashRing([0], [1]).leave(0)


def test_ownership_agrees_across_partitioners_and_engines(rng_seed):
    """The ring is a function of fragment *ids* only: any stack producing
    the same fragment count agrees on ownership."""
    seed = rng_seed % 1000
    graph = web_graph(60, 200, seed=seed)
    stacks = [
        hash_partition(graph, 6, seed=seed),
        random_partition(graph, 6, seed=seed + 1),
    ]
    rings = [
        HashRing(range(3), tuple(f.fid for f in frag)) for frag in stacks
    ]
    assert rings[0].assignment() == rings[1].assignment()
    servers = [
        ConcurrentSessionServer(frag, backend="sharded", n_workers=3)
        for frag in stacks
    ]
    try:
        assert (
            servers[0].ring.assignment() == servers[1].ring.assignment()
        )
    finally:
        for server in servers:
            server.close()


# ----------------------------------------------------------------------
# sharded serving parity
# ----------------------------------------------------------------------

def test_sharded_serves_every_general_driver(rng_seed):
    seed = rng_seed % 1000
    graph = web_graph(120, 420, n_labels=4, seed=seed)
    frag = hash_partition(graph, 6, seed=seed)
    query = cyclic_pattern(graph, 3, 4, seed=seed)
    oracle = simulation(query, graph)
    with ConcurrentSessionServer(frag, backend="sharded", n_workers=3) as server:
        for algorithm in ("dgpm", "auto"):
            result = server.run(query, algorithm=algorithm)
            assert result.relation == oracle, algorithm
            assert result.stamp == 0
        # runs report their sharded display names + ring width
        dist = server.run(query, algorithm="dgpm")
        assert dist.metrics.algorithm == "dGPM/sharded"
        assert dist.metrics.extras["sharded_workers"] == 3.0
    # dGPMNOpt is dGPM on a server whose session has both optimizations off
    nopt = DgpmConfig().without_optimizations()
    with ConcurrentSessionServer(
        frag, backend="sharded", n_workers=3, config=nopt
    ) as server:
        nopt_run = server.run(query, algorithm="dgpm")
        assert nopt_run.relation == oracle
        assert nopt_run.stamp == 0
        assert nopt_run.metrics.algorithm == "dGPMNOpt/sharded"


def test_sharded_dgpmd_on_dag(rng_seed):
    seed = rng_seed % 1000
    graph = citation_dag(100, 320, seed=seed)
    frag = hash_partition(graph, 4, seed=seed)
    query = dag_pattern(graph, 3, seed=seed)
    with ConcurrentSessionServer(frag, backend="sharded", n_workers=2) as server:
        result = server.run(query, algorithm="dgpmd")
        assert result.relation == simulation(query, graph)
        assert result.metrics.algorithm == "dGPMd/sharded"


def test_sharded_dgpmt_on_tree(rng_seed):
    seed = rng_seed % 1000
    tree = random_tree(90, seed=seed)
    frag = tree_partition(tree, 4)
    query = tree_pattern(tree, seed=seed)
    with ConcurrentSessionServer(frag, backend="sharded", n_workers=2) as server:
        result = server.run(query, algorithm="dgpmt")
        assert result.relation == simulation(query, tree)
        assert result.metrics.algorithm == "dGPMt/sharded"


def test_sharded_rounds_match_the_inprocess_engine(rng_seed):
    """Every served algorithm reports the in-process run's whole accounting
    -- rounds, messages, DS and its breakdown -- with its sites spread over
    3 workers: one loop and one meter, wherever the sites live.  (dMes, never
    served, keeps its placement independence in
    ``tests/runtime/test_placement.py``.)"""
    seed = rng_seed % 1000
    web = web_graph(90, 300, n_labels=4, seed=seed)
    dag = citation_dag(100, 320, seed=seed)
    tree = random_tree(90, seed=seed)
    instances = {
        "dgpm": (web, hash_partition, cyclic_pattern(web, 3, 4, seed=seed)),
        "dgpmd": (dag, hash_partition, dag_pattern(dag, 3, seed=seed)),
        "dgpmt": (tree, tree_partition, tree_pattern(tree, seed=seed)),
    }
    assert set(instances) == set(ALGORITHMS)
    for algorithm, (graph, cut, query) in instances.items():
        local = SimulationSession(cut(graph, 4)).run(query, algorithm=algorithm)
        with ConcurrentSessionServer(cut(graph, 4), backend="sharded", n_workers=3) as server:
            sharded = server.run(query, algorithm=algorithm)
        assert sharded.relation == local.relation == simulation(query, graph)
        for field in ("n_rounds", "n_messages", "ds_bytes", "ds_breakdown"):
            assert getattr(sharded.metrics, field) == getattr(local.metrics, field), (
                algorithm, field, seed
            )
        assert len(sharded.metrics.per_round_compute) == sharded.metrics.n_rounds
        colocated = sharded.metrics.extras["colocated_ds_bytes"]
        assert 0 <= colocated <= sharded.metrics.ds_bytes


def test_sharded_mutation_feed_matches_replay_oracle(rng, rng_seed):
    """Every stamped answer equals the from-scratch oracle at its stamp --
    the linearizability contract under a serial mutation feed.  The cold
    feed (``cache_size=0``) reads once per stamp, so every read runs on the
    workers against their broadcast deltas; the hot feed reads twice per
    stamp, so the coordinator's warm repair of the cached entry answers the
    reads after each batch."""
    seed = rng_seed % 1000
    graph = web_graph(50, 190, n_labels=4, seed=seed)
    initial = graph.copy()
    query = cyclic_pattern(graph, 3, 4, seed=seed)
    ops = _answer_moving_ops(graph, query, 3, 9, rng)
    assert simulation(query, _replay(initial, ops, 3)) != simulation(query, initial)
    for hot in (False, True):
        graph = initial.copy()
        frag = hash_partition(graph, 5, seed=seed)
        with ConcurrentSessionServer(
            frag, backend="sharded", n_workers=3, cache_size=128 if hot else 0
        ) as server:
            for start in range(0, len(ops), 3):
                outcomes = server.apply(ops[start:start + 3])
                stamp = outcomes[-1].stamp
                oracle = simulation(query, _replay(initial, ops, stamp))
                for _ in range(2 if hot else 1):
                    result = server.run(query, algorithm="dgpm")
                    assert result.stamp == stamp
                    assert result.relation == oracle, (
                        f"stamp {stamp} (seed {seed}, hot={hot})"
                    )
            assert server.stamp == len(ops)
            stats = server.stats
            if hot:
                assert stats.cache_hits > 0
                assert stats.entries_kept + stats.entries_repaired > 0
            else:
                assert stats.cache_hits == 0


def test_a_cached_query_outlives_a_dead_worker_and_close(rng_seed):
    """A hit never touches the pool: it is answered while a worker is dead,
    the next miss heals the pool, and after ``close()`` the session still
    answers, in process."""
    seed = rng_seed % 1000
    graph = web_graph(60, 220, n_labels=4, seed=seed)
    # three shapes, so three cache keys
    cached, fresh, late = (
        cyclic_pattern(graph, n, n + 1, seed=seed) for n in (2, 3, 4)
    )
    server = ConcurrentSessionServer(
        hash_partition(graph, 6, seed=seed), backend="sharded", n_workers=3
    )
    with server:
        first = server.run(cached, algorithm="dgpm")
        assert first.relation == simulation(cached, graph)
        victim = server._shards[0]
        victim.process.terminate()
        victim.process.join(timeout=10)
        hit = server.run(cached, algorithm="dgpm")
        assert hit.metrics.extras["cache_hit"] == 1.0
        assert hit.relation == simulation(cached, graph)
        assert server.respawns == 0
        assert server.run(fresh, algorithm="dgpm").relation == simulation(fresh, graph)
        assert server.respawns == 1
    result = server.session.run(late, algorithm="dgpm")
    assert result.relation == simulation(late, graph)
    assert result.metrics.algorithm == "dGPM"
    assert "sharded_workers" not in result.metrics.extras


def test_sharded_subscription_evaluates_on_the_workers():
    """A subscription's baseline, and a lapsed pin's re-evaluation, are
    misses like any other: they run on the shard workers."""
    from tests.session.test_shape_dispatch import TWO_CYCLE, alternating_dag

    graph = web_graph(150, 600, n_labels=5, seed=3)
    query = cyclic_pattern(graph, 3, 4, seed=3)
    with ConcurrentSessionServer(
        hash_partition(graph, 4), backend="sharded", n_workers=2
    ) as server:
        _, baseline = server.subscribe(query, lambda *push: None)
        assert baseline.metrics.algorithm == "dGPM/sharded"
        assert baseline.metrics.extras["sharded_workers"] == 2
    pushes: list = []
    with ConcurrentSessionServer(
        alternating_dag(), backend="sharded", n_workers=2
    ) as server:
        _, baseline = server.subscribe(TWO_CYCLE, lambda *push: pushes.append(push))
        assert baseline.metrics.algorithm == "dGPMd/sharded"
        server.apply([InsertEdge(3, 0)])  # closes a cycle: the dGPMd pin lapses
        assert len(pushes) == 1
        repinned = server.run(TWO_CYCLE)  # a hit on the re-evaluated pin
        assert repinned.metrics.extras["cache_hit"] == 1.0
        assert repinned.metrics.algorithm == "dGPM/sharded"
        assert repinned.metrics.extras["sharded_workers"] == 2


def test_sharded_concurrent_readers_vs_writer(rng, rng_seed):
    """Threaded readers against a writer keep snapshot semantics on the
    sharded backend (reuses the stress harness's oracle check)."""
    from tests.session.test_concurrent_stress import _check_snapshots, _stress

    seed = rng_seed % 1000
    graph = web_graph(40, 160, n_labels=4, seed=seed)
    initial = graph.copy()
    frag = hash_partition(graph, 4, seed=seed)
    queries = [cyclic_pattern(graph, 3, 4, seed=seed)]
    ops = _answer_moving_ops(graph, queries[0], 3, 3, rng)
    # cache_size=0: every read runs on the workers, not the coordinator
    with ConcurrentSessionServer(
        frag, backend="sharded", n_workers=2, cache_size=0
    ) as server:
        results = _stress(server, queries, ops, "dgpm", seed, n_readers=2,
                          reads_per_reader=4)
    _check_snapshots(initial, queries, ops, results)


def test_close_never_fails_an_applied_mutation():
    """close() drains in-flight mutation tickets before stopping workers:
    a racing writer either succeeds or is refused as 'closed' -- it never
    deadlocks and is never failed by the shutdown of its own workers."""
    graph = web_graph(150, 600, n_labels=5, seed=17)
    edges = list(graph.edges())[:4]
    server = ConcurrentSessionServer(
        hash_partition(graph, 3, seed=17), backend="sharded", n_workers=2
    )
    outcomes, refusals, hard_failures = [], [], []

    def mutate(edge):
        try:
            outcomes.append(server.apply([DeleteEdge(*edge)])[0])
        except ReproError as exc:
            (refusals if "closed" in str(exc) else hard_failures).append(exc)

    threads = [threading.Thread(target=mutate, args=(e,)) for e in edges]
    for t in threads:
        t.start()
    server.close()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive(), "writer deadlocked against close()"
    assert not hard_failures, f"applied mutation failed: {hard_failures[0]!r}"
    assert len(outcomes) + len(refusals) == len(edges)
    assert server.stamp == len(outcomes)


# ----------------------------------------------------------------------
# argument validation
# ----------------------------------------------------------------------

def test_sharded_rejects_array_engine_sessions():
    graph = web_graph(30, 90, seed=0)
    frag = hash_partition(graph, 3)
    session = SimulationSession(frag, engine="array")
    with pytest.raises(ReproError, match="dict-engine"):
        ConcurrentSessionServer(session, backend="sharded")


def test_fault_plan_requires_sharded_backend():
    from repro.runtime.transport import FaultPlan

    graph = web_graph(30, 90, seed=0)
    frag = hash_partition(graph, 3)
    with pytest.raises(ReproError, match="sharded"):
        ConcurrentSessionServer(
            frag, backend="thread", fault_plan=FaultPlan(kills={0: 1})
        )


def test_shard_stats_and_repr(rng_seed):
    graph = web_graph(40, 120, seed=rng_seed % 1000)
    frag = hash_partition(graph, 4)
    with ConcurrentSessionServer(frag, backend="sharded", n_workers=2) as server:
        stats = server.shard_stats()
        assert len(stats) == 2
        assert sorted(fid for s in stats for fid in s["fids"]) == [0, 1, 2, 3]
        assert all(s["peak_rss_kb"] > 0 for s in stats)
        assert "sharded" in repr(server)
    with pytest.raises(ReproError):
        ConcurrentSessionServer(frag, backend="thread").shard_stats()


def test_workers_hold_their_owned_fragments_and_not_the_graph():
    """Per-worker residency scales with ``|F|/n``, as exact counts: at
    ``|F| = 16`` four workers' ``resident_size`` (sum of ``|Vi| + |Ei|``)
    adds up to the one-worker pool's, none holds more than 0.6x of it, and
    each owns exactly the fragments the ring assigns its slot."""
    graph = web_graph(800, 3200, n_labels=5, seed=17)
    frag = hash_partition(graph, 16, seed=17)
    with ConcurrentSessionServer(frag, backend="sharded", n_workers=1) as server:
        [single] = server.shard_stats()
    assert single["fids"] == tuple(range(16))
    with ConcurrentSessionServer(frag, backend="sharded", n_workers=4) as server:
        stats = server.shard_stats()
        for slot, worker in zip(server.ring.workers, stats):
            assert worker["fids"] == server.ring.fragments_of(slot)
    sizes = [worker["resident_size"] for worker in stats]
    assert len(sizes) == 4
    assert sum(sizes) == single["resident_size"]
    assert max(sizes) <= 0.6 * single["resident_size"]


@pytest.fixture
def q_starts(monkeypatch):
    """The slot of every ``q.start`` the coordinator posts to a worker."""
    from repro.session.concurrent import _ShardHandle

    slots = []
    post = _ShardHandle.post

    def recording(handle, command, payload):
        if command == "q.start":
            slots.append(handle.slot)
        return post(handle, command, payload)

    monkeypatch.setattr(_ShardHandle, "post", recording)
    return slots


def test_sharded_server_counts_the_queries_it_serves(rng_seed, q_starts):
    """The sharded backend reads through the session's cache: a repeated
    query is a hit the coordinator answers, and each distinct query runs
    the protocol once -- one ``q.start`` per live worker."""
    graph = web_graph(150, 600, n_labels=5, seed=rng_seed % 1000)
    frag = hash_partition(graph, 4)
    queries = [cyclic_pattern(graph, 3, 4, seed=s) for s in range(3)]
    with ConcurrentSessionServer(frag, backend="sharded", n_workers=2) as server:
        for query in queries * 2:
            server.run(query, algorithm="dgpm")
        stats = server.stats
        assert (stats.queries_served, stats.cache_hits, stats.cache_misses) == (6, 3, 3)
        assert sorted(q_starts) == sorted(server.ring.workers * 3)


def test_concurrent_identical_sharded_misses_run_once(rng_seed, q_starts):
    """k threads submitting one uncached query at once coalesce into one
    distributed run: each worker sees a single ``q.start``."""
    graph = web_graph(150, 600, n_labels=5, seed=rng_seed % 1000)
    query = cyclic_pattern(graph, 3, 4, seed=rng_seed % 1000)
    k = 6
    barrier = threading.Barrier(k)
    with ConcurrentSessionServer(
        hash_partition(graph, 4), backend="sharded", n_workers=2
    ) as server:

        def submit():
            barrier.wait()
            return server.submit(query, algorithm="dgpm")

        futures: list = []
        threads = [
            threading.Thread(target=lambda: futures.append(submit()))
            for _ in range(k)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        answers = {future.result().relation for future in futures}
        assert answers == {simulation(query, graph)}
        assert sorted(q_starts) == sorted(server.ring.workers)
        assert (server.stats.cache_misses, server.stats.cache_hits) == (1, k - 1)
