"""Fault injection against the sharded backend: kills are survivable.

The deterministic :class:`FaultPlan` kills/drops/delays at exact message
boundaries, so every scenario replays from its seed alone (the seed is in
the test output on failure).  The contract under test, per ISSUE 8:

* a killed worker is respawned (or its slot evicted under an exhausted
  policy) and its fragments re-shipped -- the client never hangs;
* a mutation batch is never lost: a worker that missed one is replaced by
  a respawn that re-extracts from the parent's post-batch fragmentation;
* every surviving answer still equals the from-scratch replay oracle at
  its stamp.
"""

from __future__ import annotations

import os
import signal
import threading
import time

from repro import (
    ConcurrentSessionServer,
    hash_partition,
    simulation,
    web_graph,
)
from repro.bench.workloads import cyclic_pattern
from repro.errors import ProtocolError
from repro.runtime.transport import FaultPlan, RetryPolicy
from repro.session import concurrent

import pytest

from tests.session.test_concurrent_stress import _answer_moving_ops, _replay

# Every server here is built with cache_size=0: a fault only fires, and an
# answer only checks a worker, on a read that reaches the workers, and a
# cached repeat is answered by the coordinator without touching a worker.


def _fixture(seed: int, n_fragments: int = 6):
    graph = web_graph(50, 180, n_labels=4, seed=seed)
    frag = hash_partition(graph, n_fragments, seed=seed)
    query = cyclic_pattern(graph, 3, 4, seed=seed)
    return graph, frag, query


# ----------------------------------------------------------------------
# FaultPlan determinism
# ----------------------------------------------------------------------

def test_seeded_plan_is_deterministic():
    for seed in range(20):
        a = FaultPlan.seeded(seed, n_slots=4)
        b = FaultPlan.seeded(seed, n_slots=4)
        assert a.kills == b.kills
        assert list(a.kills.values())[0] in range(4, 40)


def test_kill_fires_once_per_slot():
    plan = FaultPlan(seed=1, kills={0: 2})
    assert plan.decide(0, 1) is None
    assert plan.decide(0, 5) == "kill"
    assert plan.decide(0, 6) is None  # one-shot: respawned links survive
    assert plan.events == [(0, 5, "kill")]


def test_drop_is_consumed_and_recorded():
    plan = FaultPlan(seed=2, drops=[(1, 3)])
    assert plan.decide(1, 3) == "drop"
    assert plan.decide(1, 3) is None
    assert plan.events == [(1, 3, "drop")]


# ----------------------------------------------------------------------
# kill mid-stream: respawn + re-ship, correct answers, no hang
# ----------------------------------------------------------------------

@pytest.mark.parametrize("fault_seed", [3, 11, 29])
def test_seeded_kill_mid_stream_recovers(fault_seed, rng_seed):
    seed = rng_seed % 1000
    graph, frag, query = _fixture(seed)
    oracle = simulation(query, graph)
    plan = FaultPlan.seeded(fault_seed, n_slots=3, kill_window=(2, 20))
    with ConcurrentSessionServer(
        frag, backend="sharded", n_workers=3, fault_plan=plan, cache_size=0
    ) as server:
        for _ in range(12):  # enough traffic to cross the kill boundary
            result = server.run(query, algorithm="dgpm")
            assert result.relation == oracle, f"fault seed {fault_seed}"
        assert any(action == "kill" for _, _, action in plan.events), (
            f"kill never fired (fault seed {fault_seed}): {plan.events}"
        )
        assert server.respawns >= 1
        # the respawned worker owns its slot's fragments again (re-ship)
        stats = server.shard_stats()
        owned = sorted(fid for s in stats for fid in s["fids"])
        assert owned == sorted(f.fid for f in frag)


def test_dropped_frame_surfaces_and_heals(rng_seed):
    seed = rng_seed % 1000
    graph, frag, query = _fixture(seed)
    oracle = simulation(query, graph)
    plan = FaultPlan(seed=7, drops=[(0, 3)])
    with ConcurrentSessionServer(
        frag, backend="sharded", n_workers=2, fault_plan=plan, cache_size=0
    ) as server:
        for _ in range(6):
            assert server.run(query, algorithm="dgpm").relation == oracle
        assert (0, 3, "drop") in plan.events


def test_no_lost_mutation_batch_after_kill(rng, rng_seed):
    """A worker killed before/while a batch lands is respawned from the
    parent's post-batch fragmentation: every later answer sees the batch."""
    seed = rng_seed % 1000
    graph, frag, query = _fixture(seed)
    initial = graph.copy()
    ops = _answer_moving_ops(graph, query, 4, 6, rng)
    plan = FaultPlan.seeded(seed, n_slots=3, kill_window=(2, 25))
    with ConcurrentSessionServer(
        frag, backend="sharded", n_workers=3, fault_plan=plan, cache_size=0
    ) as server:
        for start in range(0, len(ops), 2):
            outcomes = server.apply(ops[start:start + 2])
            stamp = outcomes[-1].stamp
            result = server.run(query, algorithm="dgpm")
            assert result.stamp == stamp
            expected = simulation(query, _replay(initial, ops, stamp))
            assert result.relation == expected, (
                f"stamp {stamp} diverged (graph seed {seed}, "
                f"fault plan {plan!r})"
            )
        assert server.stamp == len(ops)


def test_an_interrupted_batch_still_reaches_the_workers(monkeypatch, rng, rng_seed):
    """A batch stopped by an interrupt (a non-Exception) after its first
    update ships that update to the workers: the next answer is the
    oracle's on the parent graph, not the workers' stale copy's."""

    class Interrupt(BaseException):
        pass

    seed = rng_seed % 1000
    graph, frag, query = _fixture(seed)
    before = simulation(query, graph)
    cut, second = _answer_moving_ops(graph, query, 2, 0, rng)
    with ConcurrentSessionServer(
        frag, backend="sharded", n_workers=3, cache_size=0
    ) as server:
        apply = server.session.apply
        calls = []

        def interrupted(ops):
            calls.append(ops)
            if len(calls) == 2:
                raise Interrupt
            return apply(ops)

        monkeypatch.setattr(server.session, "apply", interrupted)
        with pytest.raises(Interrupt):
            server.apply([cut, second])
        monkeypatch.undo()
        assert server.stamp == 1
        assert not graph.has_edge(cut.u, cut.v)
        expected = simulation(query, graph)
        assert expected != before  # the applied update moved the answer
        assert server.run(query, algorithm="dgpm").relation == expected


def test_delays_jitter_without_breaking_answers(rng_seed):
    seed = rng_seed % 1000
    graph, frag, query = _fixture(seed)
    oracle = simulation(query, graph)
    plan = FaultPlan(seed=5, delay_every=7, delay_s=0.0005)
    with ConcurrentSessionServer(
        frag, backend="sharded", n_workers=2, fault_plan=plan, cache_size=0
    ) as server:
        for _ in range(4):
            assert server.run(query, algorithm="dgpm").relation == oracle
        assert any(action == "delay" for _, _, action in plan.events)


# ----------------------------------------------------------------------
# respawn exhaustion: the slot leaves the ring, service continues
# ----------------------------------------------------------------------

def test_exhausted_respawn_evicts_slot_and_reships_migrated(
    monkeypatch, rng_seed
):
    seed = rng_seed % 1000
    graph, frag, query = _fixture(seed)
    oracle = simulation(query, graph)
    import repro.runtime.mp as mp_mod

    def never_spawns(*args, **kwargs):
        raise ProtocolError("injected: respawn exhausted")

    with ConcurrentSessionServer(
        frag,
        backend="sharded",
        n_workers=3,
        respawn=RetryPolicy(attempts=1, backoff_s=0.0),
        cache_size=0,
    ) as server:
        assert server.run(query, algorithm="dgpm").relation == oracle
        old_ring = server.ring
        victim = server._pool._handles[0]
        victim.process.terminate()
        victim.process.join(timeout=10)
        monkeypatch.setattr(mp_mod, "respawn_worker", never_spawns)
        result = server.run(query, algorithm="dgpm")
        assert result.relation == oracle
        assert len(server.ring.workers) == 2
        assert victim.slot not in server.ring.workers
        # only the dead slot's fragments moved; survivors kept theirs
        moved = old_ring.moved(server.ring)
        assert set(moved) == set(old_ring.fragments_of(victim.slot))
        stats = server.shard_stats()
        owned = sorted(fid for s in stats for fid in s["fids"])
        assert owned == sorted(f.fid for f in frag)


def test_all_workers_dead_raises_instead_of_hanging(monkeypatch, rng_seed):
    seed = rng_seed % 1000
    graph, frag, query = _fixture(seed, n_fragments=4)
    import repro.runtime.mp as mp_mod

    def never_spawns(*args, **kwargs):
        raise ProtocolError("injected: respawn exhausted")

    with ConcurrentSessionServer(
        frag,
        backend="sharded",
        n_workers=2,
        respawn=RetryPolicy(attempts=1, backoff_s=0.0),
        cache_size=0,
    ) as server:
        for handle in list(server._pool._handles):
            handle.process.terminate()
            handle.process.join(timeout=10)
        monkeypatch.setattr(mp_mod, "respawn_worker", never_spawns)
        with pytest.raises(ProtocolError, match="every shard worker"):
            server.run(query, algorithm="dgpm")


def test_plain_worker_kill_respawns_without_a_fault_plan(rng_seed):
    """Respawn works for real process death, not just injected faults."""
    seed = rng_seed % 1000
    graph, frag, query = _fixture(seed)
    oracle = simulation(query, graph)
    with ConcurrentSessionServer(
        frag, backend="sharded", n_workers=3, cache_size=0
    ) as server:
        assert server.run(query, algorithm="dgpm").relation == oracle
        victim = server._pool._handles[1]
        victim.process.terminate()
        victim.process.join(timeout=10)
        assert server.run(query, algorithm="dgpm").relation == oracle
        assert server.respawns == 1
        assert len(server.ring.workers) == 3  # no eviction: the respawn took


def test_close_kills_a_worker_a_miss_is_wedged_on(monkeypatch):
    """A miss blocked on a stopped worker holds close() up only for the
    drain bound: then the pool kills that worker, the miss fails, and no
    worker outlives close()."""
    monkeypatch.setattr(concurrent, "CLOSE_DRAIN_TIMEOUT", 1.0)
    graph, frag, query = _fixture(5)
    server = ConcurrentSessionServer(frag, backend="sharded", n_workers=2, cache_size=0)
    processes = [handle.process for handle in server._pool._handles]
    try:
        evaluate, entered = server.session._evaluate, threading.Event()

        def spy(key):
            entered.set()
            return evaluate(key)

        server.session._evaluate = spy
        os.kill(processes[0].pid, signal.SIGSTOP)
        future = server.submit(query, algorithm="dgpm")
        assert entered.wait(30)
        begin = time.monotonic()
        server.close()
        assert time.monotonic() - begin < 1.0 + 5.0
        with pytest.raises(ProtocolError):
            future.result(timeout=30)
        assert not any(proc.is_alive() for proc in processes)
    finally:
        for proc in processes:
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=10)
