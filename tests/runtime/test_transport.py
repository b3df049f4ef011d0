"""One test suite, two transports: pipe and TCP workers must be equivalent.

The ``transport`` fixture parametrizes every scenario below over both
channel implementations -- one site per shard worker against the simulator,
the resident shard-worker pool behind :class:`ConcurrentSessionServer`, and
dead-peer detection all run the identical assertions, so the TCP path can
never drift from the pipe path's semantics.
"""

from __future__ import annotations

import multiprocessing
import time

import pytest

from repro import ConcurrentSessionServer, partition, simulation, web_graph
from repro.bench.workloads import cyclic_pattern
from repro.core import DgpmConfig, run_dgpm
from repro.errors import ProtocolError, ReproError, TransportError
from repro.graph.examples import figure1
from repro.graph.generators import random_labeled_graph
from repro.graph.pattern import Pattern
from repro.partition import random_partition
from repro.runtime.mp import _shard_worker, respawn_worker
from repro.runtime.transport import (
    PipeTransport,
    RetryPolicy,
    SocketListener,
    connect_worker,
    open_worker_transport,
)

from tests.runtime.test_mp import assert_same_accounting, run_dgpm_one_site_per_worker


@pytest.fixture(params=["pipe", "tcp"])
def transport(request) -> str:
    """Every test in this file runs once per worker channel."""
    return request.param


# ----------------------------------------------------------------------
# one site per shard worker, over either channel
# ----------------------------------------------------------------------
class TestSiteExecutor:
    def test_figure1_matches_simulator(self, transport):
        q, g, frag = figure1()
        config = DgpmConfig(enable_push=False)
        sim_run = run_dgpm(q, frag, config)
        mp_run = run_dgpm_one_site_per_worker(q, frag, config, transport)
        assert mp_run.relation == sim_run.relation == simulation(q, g)
        assert_same_accounting(mp_run.metrics, sim_run.metrics)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_instances(self, transport, seed):
        graph = random_labeled_graph(40, 160, n_labels=3, seed=seed)
        frag = random_partition(graph, 3, seed=seed)
        q = Pattern({"a": "L0", "b": "L1"}, [("a", "b"), ("b", "a")])
        config = DgpmConfig(enable_push=False)
        mp_run = run_dgpm_one_site_per_worker(q, frag, config, transport)
        assert mp_run.relation == simulation(q, graph)
        assert_same_accounting(mp_run.metrics, run_dgpm(q, frag, config).metrics)

    def test_message_accounting_is_channel_independent(self):
        """DS/message metering must not depend on the transport at all."""
        graph = random_labeled_graph(40, 160, n_labels=3, seed=2)
        frag = random_partition(graph, 3, seed=2)
        q = Pattern({"a": "L0", "b": "L1"}, [("a", "b"), ("b", "a")])
        config = DgpmConfig(enable_push=False)
        by_pipe = run_dgpm_one_site_per_worker(q, frag, config, "pipe")
        by_tcp = run_dgpm_one_site_per_worker(q, frag, config, "tcp")
        assert by_pipe.relation == by_tcp.relation
        assert_same_accounting(by_pipe.metrics, by_tcp.metrics)

    def test_unknown_transport_rejected(self):
        """The spawn layer validates the channel name itself."""
        with pytest.raises(ReproError, match="unknown transport"):
            respawn_worker(_shard_worker, (), "carrier-pigeon", RetryPolicy())


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
        with ConcurrentSessionServer(
            frag, backend="sharded", n_workers=2, transport=transport
        ) as server:
            for q, r in zip(queries, server.run_many(queries, algorithm="dgpm")):
                assert r.stamp == 0
                assert r.relation == simulation(q, graph)
            outcome = server.delete_edge(*list(graph.edges())[0])
            assert outcome.stamp == 1
            # workers saw the broadcast: answers match the mutated oracle
            for q in queries:
                r = server.run(q, algorithm="dgpm")
                assert r.stamp == 1
                assert r.relation == simulation(q, graph)

    def test_dead_worker_is_routed_around(self, transport, small_instance):
        """A killed worker surfaces as a dead link -- identically for pipe
        EOF and socket EOF -- and its respawn serves the very next query."""
        graph, frag, queries = small_instance
        with ConcurrentSessionServer(
            frag, backend="sharded", n_workers=2, transport=transport
        ) as server:
            assert server.run(queries[0], algorithm="dgpm").stamp == 0
            victim = server._shards[0]
            victim.process.terminate()
            victim.process.join(timeout=10)
            for q in queries * 2:
                assert server.run(q, algorithm="dgpm").relation == simulation(q, graph)
            assert server.respawns == 1

    def test_thread_backend_rejects_transport_choice(self, small_instance):
        graph, frag, queries = small_instance
        with pytest.raises(ReproError, match="backend='sharded'"):
            ConcurrentSessionServer(frag, backend="thread", transport="tcp")

    def test_unknown_transport_rejected(self, small_instance):
        graph, frag, queries = small_instance
        with pytest.raises(ReproError, match="unknown transport"):
            ConcurrentSessionServer(frag, backend="sharded", transport="udp")


# ----------------------------------------------------------------------
# the transport primitives themselves
# ----------------------------------------------------------------------
def _tcp_pair():
    listener = SocketListener()
    token = SocketListener.fresh_token()
    worker_end = connect_worker(listener.address, token)
    slot, parent_end = listener.accept_worker({token: "w0"})
    listener.close()
    assert slot == "w0"
    return parent_end, worker_end


def _pipe_pair():
    ctx = multiprocessing.get_context()
    a, b = ctx.Pipe()
    return PipeTransport(a), PipeTransport(b)


class TestTransportPrimitives:
    def test_roundtrip_and_eof(self, transport):
        parent, worker = _tcp_pair() if transport == "tcp" else _pipe_pair()
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

    def test_open_worker_transport_pipe_spec(self):
        ctx = multiprocessing.get_context()
        a, b = ctx.Pipe()
        link = open_worker_transport(("pipe", b))
        PipeTransport(a).send("hi")
        assert link.recv() == "hi"
        link.close()
        a.close()

    def test_open_worker_transport_rejects_unknown(self):
        with pytest.raises(TransportError, match="unknown worker channel"):
            open_worker_transport(("smoke-signal", None))

    def test_listener_refuses_wrong_token(self):
        with SocketListener() as listener:
            good = SocketListener.fresh_token()
            bad = SocketListener.fresh_token()
            results = {}

            import threading

            def dial(token, key):
                try:
                    results[key] = connect_worker(listener.address, token)
                except TransportError as exc:
                    results[key] = exc

            t1 = threading.Thread(target=dial, args=(bad, "bad"))
            t2 = threading.Thread(target=dial, args=(good, "good"))
            t1.start()
            time.sleep(0.05)  # the impostor dials first
            t2.start()
            slot, accepted = listener.accept_worker({good: "w0"}, timeout=10.0)
            t1.join(timeout=10)
            t2.join(timeout=10)
            assert slot == "w0"
            accepted.send("welcome")
            assert results["good"].recv() == "welcome"
            accepted.close()
            results["good"].close()

    def test_strangers_are_dropped_without_being_unpickled(
        self, pickle_bomb, monkeypatch
    ):
        """The listener authenticates *before* anything is unpickled: an OBJ
        pickle bomb as the first frame, one behind a wrong token, and one
        behind a replayed (already used) token all leave the sentinel absent,
        and the legitimate worker dialing afterwards still gets its slot --
        also past a silent stranger and one that stalls mid-header, who each
        cost the accept loop the handshake timeout, not its whole deadline."""
        import socket

        from repro.net import protocol

        monkeypatch.setattr("repro.runtime.transport.HANDSHAKE_TIMEOUT_S", 0.2)
        bomb, sentinel = pickle_bomb
        obj_frame = protocol.encode(bomb)  # bytes travel as an OBJ frame

        def hello(token: bytes) -> bytes:
            return protocol.encode(protocol.Hello(role="worker", token=token))

        with SocketListener() as listener:
            used, good = SocketListener.fresh_token(), SocketListener.fresh_token()
            first = connect_worker(listener.address, used)
            assert listener.accept_worker({used: "w0"}, timeout=10.0)[0] == "w0"
            strangers = []
            for opening in (
                obj_frame,  # no token at all
                hello(SocketListener.fresh_token()) + obj_frame,  # wrong token
                hello(used) + obj_frame,  # replayed token
                b"",  # says nothing
                hello(good)[:7],  # stalls mid-header
            ):
                sock = socket.create_connection(listener.address, timeout=10.0)
                sock.sendall(opening)
                strangers.append(sock)
            worker = connect_worker(listener.address, good)
            slot, parent = listener.accept_worker({good: "w1"}, timeout=5.0)
            assert slot == "w1"
            for sock in strangers:
                try:
                    assert sock.recv(1) == b""  # hung up on, nothing said
                except ConnectionResetError:
                    pass  # dropped with our bytes unread: also a hang-up
                sock.close()
            assert not sentinel.exists()
            parent.send("welcome")
            assert worker.recv() == "welcome"
            for link in (first, worker, parent):
                link.close()

    def test_listener_times_out_without_workers(self):
        with SocketListener() as listener:
            with pytest.raises(TransportError, match="no worker connected"):
                listener.accept_worker(
                    {SocketListener.fresh_token(): "w0"}, timeout=0.2
                )

    def test_connect_worker_unreachable(self):
        with pytest.raises(TransportError, match="cannot reach parent"):
            connect_worker(("127.0.0.1", 1), SocketListener.fresh_token(), timeout=0.5)


# ----------------------------------------------------------------------
# the reconnect/respawn policy: identical semantics on both transports
# ----------------------------------------------------------------------
def _doa_worker(channel, init=None):
    """A worker that dies on arrival: never handshakes, never serves."""
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
        proc, link = respawn_worker(_shard_worker, init, transport, retry_policy)
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
        """Kill -> respawn yields a worker with the same shard, either
        channel: the reconnect semantics are transport-independent."""
        init = self._shard_init()
        proc, link = respawn_worker(_shard_worker, init, transport, retry_policy)
        proc.terminate()
        proc.join(timeout=10)
        link.close()
        proc2, link2 = respawn_worker(_shard_worker, init, transport, retry_policy)
        try:
            link2.send(("stats", None))
            status, stats = link2.recv()
            assert status == "ok"
            assert stats["fids"] == (0, 2)
        finally:
            link2.send(("stop", None))
            proc2.join(timeout=10)
            link2.close()

    def test_tcp_respawn_mints_a_fresh_token(self, monkeypatch, retry_policy):
        """Every TCP respawn re-authenticates: the token is minted per
        attempt, never reused from the dead worker's listener."""
        minted = []
        original = SocketListener.fresh_token

        def recording():
            token = original()
            minted.append(token)
            return token

        monkeypatch.setattr(
            SocketListener, "fresh_token", staticmethod(recording)
        )
        init = self._shard_init()
        for round_no in range(2):
            before = len(minted)
            proc, link = respawn_worker(_shard_worker, init, "tcp", retry_policy)
            assert len(minted) == before + 1
            link.send(("stop", None))
            proc.join(timeout=10)
            link.close()
        assert len(set(minted)) == len(minted), "a token was reused"

    def test_exhausted_policy_raises_with_attempt_count(
        self, transport, retry_policy
    ):
        """A dead-on-arrival worker exhausts the policy on both channels:
        the pipe path dies at the probe, the TCP path at the handshake."""
        init = self._shard_init()
        with pytest.raises(ProtocolError, match=f"{retry_policy.attempts} attempt"):
            respawn_worker(
                _doa_worker,
                init,
                transport,
                retry_policy,
                handshake_timeout=0.5,
            )

    def test_delays_grow_and_cap(self):
        policy = RetryPolicy(
            attempts=5, backoff_s=0.1, multiplier=2.0, max_backoff_s=0.3
        )
        assert list(policy.delays()) == [0.1, 0.2, 0.3, 0.3, 0.3]
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
