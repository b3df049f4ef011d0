"""The worker link: shard workers over the pipe they were spawned with.

One site per shard worker against the simulator, the resident shard-worker
pool behind :class:`ConcurrentSessionServer`, dead-peer detection and the
respawn policy.  The ``transport`` fixture has the one value ``"pipe"``: it
names the link in every test id below.
"""

from __future__ import annotations

import multiprocessing
import threading
import time

import pytest

from repro import ConcurrentSessionServer, partition, simulation, web_graph
from repro.bench.workloads import cyclic_pattern
from repro.core import DgpmConfig, run_dgpm
from repro.errors import ProtocolError
from repro.runtime import mp as mp_mod
from repro.graph.examples import figure1
from repro.graph.generators import random_labeled_graph
from repro.graph.mutations import DeleteEdge
from repro.graph.pattern import Pattern
from repro.partition import random_partition
from repro.runtime.mp import _shard_worker, respawn_worker
from repro.runtime.transport import RetryPolicy

from tests.runtime.test_mp import assert_same_accounting, run_dgpm_one_site_per_worker


@pytest.fixture(params=["pipe"])
def transport(request) -> str:
    """The worker link's name, for the test ids."""
    return request.param


# ----------------------------------------------------------------------
# one site per shard worker
# ----------------------------------------------------------------------
class TestSiteExecutor:
    def test_figure1_matches_simulator(self, transport):
        q, g, frag = figure1()
        config = DgpmConfig(enable_push=False)
        sim_run = run_dgpm(q, frag, config)
        mp_run = run_dgpm_one_site_per_worker(q, frag, config)
        assert mp_run.relation == sim_run.relation == simulation(q, g)
        assert_same_accounting(mp_run.metrics, sim_run.metrics)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_instances(self, transport, seed):
        graph = random_labeled_graph(40, 160, n_labels=3, seed=seed)
        frag = random_partition(graph, 3, seed=seed)
        q = Pattern({"a": "L0", "b": "L1"}, [("a", "b"), ("b", "a")])
        config = DgpmConfig(enable_push=False)
        mp_run = run_dgpm_one_site_per_worker(q, frag, config)
        assert mp_run.relation == simulation(q, graph)
        assert_same_accounting(mp_run.metrics, run_dgpm(q, frag, config).metrics)


# ----------------------------------------------------------------------
# the resident shard-worker pool (sharded backend of the concurrent server)
# ----------------------------------------------------------------------
@pytest.fixture()
def small_instance():
    graph = web_graph(150, 600, n_labels=5, seed=17)
    frag = partition(graph, 3, seed=17)
    queries = [cyclic_pattern(graph, 3, 4, seed=s) for s in range(3)]
    return graph, frag, queries


class TestResidentWorkerPool:
    def test_query_parity_and_mutation_lockstep(self, transport, small_instance):
        graph, frag, queries = small_instance
        with ConcurrentSessionServer(frag, backend="sharded", n_workers=2) as server:
            for q, r in zip(queries, server.run_many(queries, algorithm="dgpm")):
                assert r.stamp == 0
                assert r.relation == simulation(q, graph)
            outcome = server.apply([DeleteEdge(*list(graph.edges())[0])])[0]
            assert outcome.stamp == 1
            # workers saw the broadcast: answers match the mutated oracle
            for q in queries:
                r = server.run(q, algorithm="dgpm")
                assert r.stamp == 1
                assert r.relation == simulation(q, graph)

    def test_dead_worker_is_routed_around(self, transport, small_instance):
        """A killed worker surfaces as a dead link (pipe EOF) and its respawn
        serves the very next query."""
        graph, frag, queries = small_instance
        with ConcurrentSessionServer(frag, backend="sharded", n_workers=2) as server:
            assert server.run(queries[0], algorithm="dgpm").stamp == 0
            victim = server._pool._handles[0]
            victim.process.terminate()
            victim.process.join(timeout=10)
            for q in queries * 2:
                assert server.run(q, algorithm="dgpm").relation == simulation(q, graph)
            assert server.respawns == 1

    def test_failed_start_terminates_the_workers_already_started(
        self, transport, small_instance, monkeypatch
    ):
        """The constructor starts every slot in one respawn_worker call; when
        a later slot cannot start, the workers already started do not
        outlive it."""
        graph, frag, queries = small_instance
        started = _record_spawns(monkeypatch)
        probed_spawn = mp_mod.respawn_worker

        def second_start_fails(target, inits, policy):
            return probed_spawn(_serve_unless_none, [inits[0], None], policy)

        monkeypatch.setattr(mp_mod, "respawn_worker", second_start_fails)
        with pytest.raises(ProtocolError, match="1 attempt"):
            ConcurrentSessionServer(
                frag, backend="sharded", n_workers=2,
                respawn=RetryPolicy(attempts=1, backoff_s=0.0),
            )
        assert len(started) == 2
        for proc in started:
            proc.join(timeout=10)
            assert not proc.is_alive()

    def test_transport_is_not_a_parameter(self, small_instance):
        """One link, nothing to select: the old keyword is refused, not
        accepted and ignored."""
        graph, frag, queries = small_instance
        with pytest.raises(TypeError, match="transport"):
            ConcurrentSessionServer(frag, backend="sharded", transport="pipe")


# ----------------------------------------------------------------------
# the link itself
# ----------------------------------------------------------------------
class TestTransportPrimitives:
    def test_roundtrip_and_eof(self, transport):
        """The failure model the coordinator is written against: objects
        arrive whole and in order, a closed peer is ``EOFError``."""
        parent, worker = multiprocessing.Pipe()
        try:
            parent.send(("init", {"deps": [1, 2, 3]}))
            assert worker.recv() == ("init", {"deps": [1, 2, 3]})
            worker.send(("msgs", ["a", "b"]))
            assert parent.recv() == ("msgs", ["a", "b"])
            worker.close()
            with pytest.raises(EOFError):
                parent.recv()
        finally:
            parent.close()
            worker.close()


# ----------------------------------------------------------------------
# the respawn policy
# ----------------------------------------------------------------------
def _doa_worker(link, init):
    """A worker that dies on arrival: never serves."""
    return


def _serve_unless_none(link, init):
    """A shard worker, or one that dies on arrival when ``init`` is None."""
    if init is not None:
        _shard_worker(link, init)


def _die_until_set(link, init):
    """Dies on arrival until its event is set (it sets it), then serves."""
    event, shard_init = init
    if event.is_set():
        _shard_worker(link, shard_init)
    else:
        event.set()


def _record_spawns(monkeypatch) -> list:
    """Every worker process started while the test runs, in start order."""
    started = []

    class Recorded(multiprocessing.Process):
        def start(self):
            super().start()
            started.append(self)

    monkeypatch.setattr(mp_mod.mp, "Process", Recorded)
    return started


def _mute_worker(link, init):
    """A worker that stays alive without ever answering, then exits by
    itself (so a caller that waits it out leaks no process)."""
    time.sleep(8.0)


#: the policies every respawn scenario must behave identically under
RETRY_POLICIES = {
    "single-shot": RetryPolicy(attempts=1, backoff_s=0.0),
    "backoff": RetryPolicy(attempts=3, backoff_s=0.01, multiplier=1.5),
}


@pytest.fixture(params=sorted(RETRY_POLICIES))
def retry_policy(request) -> RetryPolicy:
    return RETRY_POLICIES[request.param]


class TestRespawnPolicy:
    def _shard_init(self):
        graph = web_graph(40, 120, n_labels=3, seed=9)
        frag = partition(graph, 4, seed=9)
        from repro.core.depgraph import DependencyGraphs

        return (frag.extract_shard((0, 2)), DependencyGraphs(frag))

    def test_respawn_probes_a_live_worker(self, transport, retry_policy):
        """A fresh spawn under any policy serves the probe immediately."""
        init = self._shard_init()
        [(proc, link)] = respawn_worker(_shard_worker, [init], retry_policy)
        try:
            link.send(("stats", None))
            status, stats = link.recv()
            assert status == "ok"
            assert stats["fids"] == (0, 2)
        finally:
            link.send(("stop", None))
            proc.join(timeout=10)
            link.close()

    def test_respawn_after_kill_restores_service(self, transport, retry_policy):
        """Kill -> respawn yields a worker with the same shard."""
        init = self._shard_init()
        [(proc, link)] = respawn_worker(_shard_worker, [init], retry_policy)
        proc.terminate()
        proc.join(timeout=10)
        link.close()
        [(proc2, link2)] = respawn_worker(_shard_worker, [init], retry_policy)
        try:
            link2.send(("stats", None))
            status, stats = link2.recv()
            assert status == "ok"
            assert stats["fids"] == (0, 2)
        finally:
            link2.send(("stop", None))
            proc2.join(timeout=10)
            link2.close()

    def test_one_call_starts_every_slot_and_retries_only_the_failed_one(
        self, transport, monkeypatch
    ):
        """Several inits start together; a slot whose first attempt dies is
        started again on its own, and the slots that served keep their
        first worker."""
        init = self._shard_init()
        healthy, flaky = multiprocessing.Event(), multiprocessing.Event()
        healthy.set()
        started = _record_spawns(monkeypatch)
        policy = RetryPolicy(attempts=2, backoff_s=0.0)
        workers = respawn_worker(
            _die_until_set, [(healthy, init), (flaky, init)], policy
        )
        try:
            assert len(started) == 3  # slot 0 once, slot 1 twice
            assert [proc for proc, _ in workers] == [started[0], started[2]]
            for _, link in workers:
                link.send(("stats", None))
                assert link.recv()[1]["fids"] == (0, 2)
        finally:
            for proc, link in workers:
                link.send(("stop", None))
                proc.join(timeout=10)
                link.close()

    def test_exhausted_policy_raises_with_attempt_count(
        self, transport, retry_policy
    ):
        """A dead-on-arrival worker exhausts the policy: every attempt dies
        at the probe."""
        init = self._shard_init()
        with pytest.raises(ProtocolError, match=f"{retry_policy.attempts} attempt"):
            respawn_worker(_doa_worker, [init], retry_policy)

    def test_silent_worker_fails_the_probe_instead_of_hanging(
        self, transport, retry_policy, monkeypatch
    ):
        """A worker that never answers its spawn probe is a failed attempt
        once PROBE_TIMEOUT passes: the policy runs out and the caller gets
        ProtocolError instead of waiting for the child to exit."""
        monkeypatch.setattr(mp_mod, "PROBE_TIMEOUT", 0.2, raising=False)
        init = self._shard_init()
        raised = []

        def start():
            try:
                respawn_worker(_mute_worker, [init], retry_policy)
            except Exception as exc:
                raised.append(exc)

        thread = threading.Thread(target=start, daemon=True)
        thread.start()
        thread.join(timeout=5.0)
        assert not thread.is_alive(), "respawn_worker waited on a silent worker"
        [exc] = raised
        assert isinstance(exc, ProtocolError)
        assert f"{retry_policy.attempts} attempt" in str(exc)

    def test_silent_workers_share_one_probe_deadline(self, transport, monkeypatch):
        """Every worker of a call is spawned before any probe is awaited, so
        four silent ones cost one PROBE_TIMEOUT, not four, and none of them
        outlives the failed call."""
        monkeypatch.setattr(mp_mod, "PROBE_TIMEOUT", 1.0, raising=False)
        started = _record_spawns(monkeypatch)
        begin = time.monotonic()
        with pytest.raises(ProtocolError, match="1 attempt"):
            respawn_worker(
                _mute_worker, [self._shard_init()] * 4, RETRY_POLICIES["single-shot"]
            )
        assert time.monotonic() - begin < 2.5
        assert len(started) == 4
        for proc in started:
            proc.join(timeout=10)
            assert not proc.is_alive()

    def test_an_exhausted_start_sleeps_no_backoff_after_its_last_try(
        self, transport
    ):
        """The backoff separates tries: a one-try policy with a 1 s backoff
        raises as soon as its dead-on-arrival worker fails the probe."""
        init = (multiprocessing.Event(), self._shard_init())  # never set
        begin = time.monotonic()
        with pytest.raises(ProtocolError, match="1 attempt"):
            respawn_worker(
                _die_until_set, [init], RetryPolicy(attempts=1, backoff_s=1.0)
            )
        assert time.monotonic() - begin < 0.5

    def test_delays_grow_and_cap(self):
        policy = RetryPolicy(
            attempts=5, backoff_s=0.1, multiplier=2.0, max_backoff_s=0.3
        )
        assert list(policy.delays()) == [0.1, 0.2, 0.3, 0.3, 0.3]
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)


# ----------------------------------------------------------------------
# the worker's command loop, driven over its own link
# ----------------------------------------------------------------------
class TestShardCommands:
    """One worker over fids (0, 2) of a 4-fragment partition, started the
    one way a worker starts and spoken to command by command."""

    @pytest.fixture()
    def worker(self, transport):
        from repro.core.depgraph import DependencyGraphs

        graph = web_graph(40, 120, n_labels=3, seed=9)
        frag = partition(graph, 4, seed=9)
        deps = DependencyGraphs(frag)
        [(proc, link)] = respawn_worker(
            _shard_worker,
            [(frag.extract_shard((0, 2)), deps)],
            RETRY_POLICIES["single-shot"],
        )

        def ask(command, payload=None):
            link.send((command, payload))
            return link.recv()

        try:
            yield graph, frag, deps, ask
        finally:
            link.send(("stop", None))
            proc.join(timeout=10)
            link.close()

    @staticmethod
    def _start(ask, graph):
        query = cyclic_pattern(graph, 3, 4, seed=0)
        status, value = ask("q.start", ("dgpm", query, DgpmConfig()))
        assert status == "ok", value

    def test_ring_move_install_swaps_fids_and_keeps_the_active_query(self, worker):
        """``install`` with ``deps=None`` moves fragments in and out and
        leaves a running query's state alone."""
        graph, frag, _, ask = worker
        self._start(ask, graph)
        assert ask("install", ({1: frag[1]}, [2], None)) == ("ok", (0, 1))
        status, value = ask("q.tick", (1, []))
        assert status == "ok", value
        status, value = ask("stats")
        assert status == "ok"
        assert value["fids"] == (0, 1)
        assert value["resident_size"] == frag[0].size + frag[1].size

    def test_repartition_install_resets_the_active_query(self, worker):
        """``install`` with new watcher tables re-ships every owned
        fragment and drops the query state built over the old tables."""
        graph, frag, deps, ask = worker
        self._start(ask, graph)
        assert ask("install", ({0: frag[0], 2: frag[2]}, (), deps)) == (
            "ok",
            (0, 2),
        )
        status, exc = ask("q.tick", (1, []))
        assert status == "err"
        assert isinstance(exc, ProtocolError)
        assert "without an active q.start" in str(exc)

    def test_an_error_reply_leaves_the_worker_serving(self, worker):
        """A command that raises is answered ``("err", exc)`` and the loop
        takes the next command; nothing else is lost."""
        _, frag, _, ask = worker
        status, exc = ask("rebalance", {})
        assert status == "err"
        assert "unknown shard command 'rebalance'" in str(exc)
        status, exc = ask("q.collect")
        assert status == "err"
        assert isinstance(exc, ProtocolError)
        status, value = ask("stats")
        assert status == "ok"
        assert value["fids"] == (0, 2)

    def test_mutate_replays_the_parent_deltas(self, worker):
        """``mutate`` patches the owned fragments with the parent's deltas:
        the worker's resident size follows the parent's fragments."""
        graph, frag, _, ask = worker
        deltas = [frag.delete_edge(*edge) for edge in list(graph.edges())[:12]]
        deltas.append(frag.add_node(("fresh", 0), "L0", fid=2))
        deltas.append(frag.remove_node(next(iter(frag[0].local_nodes))))
        assert ask("mutate", deltas) == ("ok", len(deltas))
        status, value = ask("stats")
        assert status == "ok"
        assert value["resident_size"] == frag[0].size + frag[2].size
