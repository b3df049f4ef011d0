"""The worker link: shard workers over the pipe they were spawned with.

One site per shard worker against the simulator, the resident shard-worker
pool behind :class:`ConcurrentSessionServer`, dead-peer detection and the
respawn policy.  The ``transport`` fixture has the one value ``"pipe"``: it
names the link in every test id below.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro import ConcurrentSessionServer, partition, simulation, web_graph
from repro.bench.workloads import cyclic_pattern
from repro.core import DgpmConfig, run_dgpm
from repro.errors import ProtocolError
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
            victim = server._shards[0]
            victim.process.terminate()
            victim.process.join(timeout=10)
            for q in queries * 2:
                assert server.run(q, algorithm="dgpm").relation == simulation(q, graph)
            assert server.respawns == 1

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
        proc, link = respawn_worker(_shard_worker, init, retry_policy)
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
        proc, link = respawn_worker(_shard_worker, init, retry_policy)
        proc.terminate()
        proc.join(timeout=10)
        link.close()
        proc2, link2 = respawn_worker(_shard_worker, init, retry_policy)
        try:
            link2.send(("stats", None))
            status, stats = link2.recv()
            assert status == "ok"
            assert stats["fids"] == (0, 2)
        finally:
            link2.send(("stop", None))
            proc2.join(timeout=10)
            link2.close()

    def test_exhausted_policy_raises_with_attempt_count(
        self, transport, retry_policy
    ):
        """A dead-on-arrival worker exhausts the policy: every attempt dies
        at the probe."""
        init = self._shard_init()
        with pytest.raises(ProtocolError, match=f"{retry_policy.attempts} attempt"):
            respawn_worker(_doa_worker, init, retry_policy)

    def test_delays_grow_and_cap(self):
        policy = RetryPolicy(
            attempts=5, backoff_s=0.1, multiplier=2.0, max_backoff_s=0.3
        )
        assert list(policy.delays()) == [0.1, 0.2, 0.3, 0.3, 0.3]
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
