"""Online repartitioning: answer-invariance, placement moves, traffic wiring.

The headline contract is the per-stamp replay oracle: interleave a mutation
feed with queries, trigger :meth:`ConcurrentSessionServer.rebalance` in the
middle, and every stamped result -- before, across, and after the migration
-- must equal a from-scratch simulation of the graph after its stamp's
mutations.  Placement is invisible to answers; only throughput may change.
"""

from __future__ import annotations

import pytest

from repro import (
    ConcurrentSessionServer,
    hash_partition,
    simulation,
    web_graph,
)
from repro.bench.workloads import cyclic_pattern
from repro.errors import ReproError
from repro.graph.digraph import DiGraph
from repro.graph.mutations import DeleteEdge
from repro.session.sharding import HashRing


def _instance(seed=23):
    graph = web_graph(160, 700, n_labels=5, seed=seed)
    frag = hash_partition(graph, 6, seed=seed)
    queries = [cyclic_pattern(graph, 3, 4, seed=s) for s in range(3)]
    return graph, frag, queries


def _replay_oracle(graph_seed, stamped, mutations):
    """Check each (query, relation, stamp) against a fresh replay."""
    for query, relation, stamp in stamped:
        replay = web_graph(160, 700, n_labels=5, seed=graph_seed)
        for kind, u, v in mutations[:stamp]:
            if kind == "delete":
                replay.remove_edge(u, v)
            else:
                replay.add_edge(u, v)
        assert relation == simulation(query, replay), (
            f"stamp {stamp} diverged from replay"
        )


@pytest.mark.parametrize(
    "backend,kwargs",
    [
        ("thread", {"n_workers": 2}),
        ("sharded", {"n_workers": 2}),
    ],
)
def test_rebalance_mid_feed_is_answer_invariant(backend, kwargs):
    """The per-stamp replay oracle across an online migration, per backend."""
    seed = 23
    graph, frag, queries = _instance(seed)
    edges = list(graph.edges())
    mutations = [("delete", *edges[i]) for i in range(6)]
    stamped = []
    with ConcurrentSessionServer(frag, backend=backend, **kwargs) as server:
        for i, mutation in enumerate(mutations):
            out = server.apply([DeleteEdge(mutation[1], mutation[2])])[0]
            assert out.stamp == i + 1
            result = server.run(queries[i % len(queries)], algorithm="dgpm")
            assert result.stamp == i + 1
            stamped.append((queries[i % len(queries)], result.relation, result.stamp))
            if i == 2:  # migrate mid-feed, then keep mutating
                outcome = server.rebalance()
                assert outcome.mode == "repartition"
                assert outcome.stamp == 3  # placement never advances the stamp
                assert server.rebalances == 1
                for query in queries:
                    post = server.run(query, algorithm="dgpm")
                    assert post.stamp == 3
                    stamped.append((query, post.relation, 3))
    _replay_oracle(seed, stamped, mutations)


def test_rebalance_improves_cut_and_boundary():
    graph, frag, queries = _instance()
    with ConcurrentSessionServer(frag, backend="thread", n_workers=2) as server:
        for query in queries:
            server.run(query, algorithm="dgpm")
        outcome = server.rebalance(seed=3)
        # hash_partition ignores locality entirely; the KL refinement must
        # find a strictly better cut on a locality-heavy generator graph.
        assert outcome.cut_after < outcome.cut_before
        assert outcome.boundary_after < outcome.boundary_before
        assert outcome.moved > 0
        snap = server.partition_snapshot()
        assert snap.n_crossing_edges == outcome.cut_after
        assert snap.total_boundary == outcome.boundary_after


def test_thread_rebalance_never_reaches_a_shard_pool(monkeypatch):
    """A thread server holds no shard pool: nothing of ``ShardPool`` is
    built or called while it serves, rebalances and closes, yet the
    rebalance is counted and the answers stay exact."""
    from repro.session import sharding

    def refuse(*args, **kwargs):
        raise AssertionError("a thread server reached the shard pool")

    for name in ("__init__", "evaluate", "reinstall", "place", "stats", "close"):
        monkeypatch.setattr(sharding.ShardPool, name, refuse)
    graph, frag, queries = _instance()
    with ConcurrentSessionServer(frag, backend="thread", n_workers=2) as server:
        assert server.ring is None and server.respawns == 0
        outcome = server.rebalance(seed=3)
        assert outcome.mode == "repartition" and server.rebalances == 1
        for query in queries:
            assert server.run(query, algorithm="dgpm").relation == simulation(
                query, graph
            )


def test_place_mode_requires_sharded_backend():
    _, frag, _ = _instance()
    with ConcurrentSessionServer(frag, backend="thread") as server:
        with pytest.raises(ReproError, match="sharded"):
            server.rebalance(mode="place")
        with pytest.raises(ReproError, match="unknown rebalance mode"):
            server.rebalance(mode="swap")


def test_place_mode_moves_hot_fragments_between_workers():
    graph, frag, queries = _instance()
    with ConcurrentSessionServer(frag, backend="sharded", n_workers=2) as server:
        before = server.ring.assignment()
        hot_slot = server.ring.owner_of(0)
        hot_fids = [f for f in server.ring.fragments if server.ring.owner_of(f) == hot_slot]
        traffic = {fid: 1000 for fid in hot_fids}
        outcome = server.rebalance(mode="place", traffic=traffic)
        assert outcome.mode == "place"
        assert outcome.moved > 0
        assert outcome.cut_before == outcome.cut_after  # placement only
        after = server.ring.assignment()
        assert before != after
        # Serving still works and matches the oracle on the migrated pool.
        for query in queries:
            assert server.run(query, algorithm="dgpm").relation == simulation(
                query, graph
            )


def test_traffic_counters_attribute_queries_and_mutations():
    graph, frag, queries = _instance()
    with ConcurrentSessionServer(frag, backend="thread", n_workers=2) as server:
        server.run(queries[0], algorithm="dgpm")
        server.run(queries[0], algorithm="dgpm")  # hit: bumps from stored fids
        stats = server.stats
        assert stats.fragment_queries
        assert sum(stats.fragment_queries.values()) >= 2 * len(
            set(stats.fragment_queries)
        ) or stats.fragment_queries
        u, v = next(iter(graph.edges()))
        server.apply([DeleteEdge(u, v)])
        assert stats.fragment_mutations
        merged = stats.traffic_snapshot()
        assert all(merged[f] >= c for f, c in stats.fragment_mutations.items())
        stats.reset_fragment_traffic()
        assert not stats.fragment_queries and not stats.fragment_mutations


def test_traffic_counter_bound_folds_into_overflow_key():
    from repro.session.session import SessionStats

    stats = SessionStats()
    stats.MAX_FRAGMENT_KEYS = 4  # class attr shadowed per-instance for the test
    stats.bump_fragment("fragment_queries", range(10))
    assert len(stats.fragment_queries) <= 5  # 4 tracked + overflow key
    assert stats.fragment_queries[-1] == 6  # spill is exact
    assert sum(stats.fragment_queries.values()) == 10


def test_sharded_coordinator_attributes_traffic():
    graph, frag, queries = _instance()
    with ConcurrentSessionServer(frag, backend="sharded", n_workers=2) as server:
        server.run(queries[0], algorithm="dgpm")
        assert server.stats.fragment_queries  # bumped when the session serves it


def test_hash_ring_rebalanced_is_deterministic_and_minimal():
    ring = HashRing((0, 1, 2), tuple(range(9)))
    flat = ring.rebalanced({})
    assert flat.assignment() == ring.assignment()  # balanced input: no moves
    hot = {fid: 900 for fid in ring.fragments_of(0)}
    moved = ring.moved(ring.rebalanced(hot))
    assert moved  # hot slot sheds load
    assert all(src == 0 for src, _ in moved.values())
    again = ring.moved(ring.rebalanced(hot))
    assert moved == again  # pure function of (ring, weights)
    # never strips a slot below one fragment
    rebalanced = ring.rebalanced(hot)
    assert all(rebalanced.fragments_of(slot) for slot in rebalanced.workers)


def test_swap_fragmentation_rejects_different_graph():
    graph, frag, _ = _instance()
    other = DiGraph({i: "A" for i in range(5)})
    other_frag = hash_partition(other, 2, seed=0)
    from repro.session.session import SimulationSession

    session = SimulationSession(frag)
    with pytest.raises(ReproError, match="same graph"):
        session.swap_fragmentation(other_frag)


def test_stats_reply_carries_partition_snapshot_over_the_wire():
    from repro.net import codec
    from repro.net.protocol import StatsReply

    graph, frag, queries = _instance()
    with ConcurrentSessionServer(frag, backend="thread", n_workers=2) as server:
        server.run(queries[0], algorithm="dgpm")
        server.run(queries[0], algorithm="dgpm")  # hot: the delete promotes it
        a, b = next(iter(queries[0].edges()))
        pair = (queries[0].label(a), queries[0].label(b))
        server.apply([DeleteEdge(*next(
            (u, v) for u, v in graph.edges()
            if (graph.label(u), graph.label(v)) == pair
        ))])
        reply = StatsReply(
            stats=server.stats,
            stamp=server.stamp,
            backend=server.backend,
            n_workers=server.n_workers,
            partition=server.partition_snapshot(),
        )
        back = codec.decode(codec.encode(reply))
        assert back.partition == server.partition_snapshot()
        assert back.stats.fragment_queries == server.stats.fragment_queries
        assert back.stats.entries_promoted == server.stats.entries_promoted == 1
