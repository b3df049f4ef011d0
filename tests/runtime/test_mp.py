"""Sites as real OS processes: shard workers vs the simulator.

``backend="sharded"`` with ``n_workers == |F|`` is the paper's deployment
literally -- fragment ``Fi`` at site ``Si`` -- and with fewer workers some
sites share a process; either way the workers run the engine's own
``LocalHost``, so relation, message count, DS bytes (and breakdown) and
round count must equal the in-process engine's for *any* ``n_workers``.
"""

import pytest

from repro import ConcurrentSessionServer, partition, web_graph
from repro.core import DgpmConfig, run_dgpm
from repro.graph.examples import example8_graph, figure1, figure1_fragmentation
from repro.graph.generators import random_labeled_graph
from repro.graph.pattern import Pattern
from repro.partition import random_partition
from repro.runtime.costmodel import CostModel
from repro.runtime.messages import DATA_KINDS
from repro.runtime.network import Network
from repro.simulation import simulation
from tests.conftest import web_1k_query


def run_dgpm_one_site_per_worker(query, frag, config):
    """dGPM over ``|F|`` shard workers, each owning exactly one fragment."""
    with ConcurrentSessionServer(
        frag, backend="sharded", n_workers=frag.n_fragments, config=config
    ) as server:
        assert set(server.ring.loads().values()) == {1}
        return server.run(query, algorithm="dgpm")


def assert_same_accounting(mp_metrics, sim_metrics):
    assert mp_metrics.n_messages == sim_metrics.n_messages
    assert mp_metrics.ds_bytes == sim_metrics.ds_bytes
    assert mp_metrics.ds_breakdown == sim_metrics.ds_breakdown
    assert mp_metrics.n_rounds == sim_metrics.n_rounds


class TestMpExecutor:
    def test_figure1_matches_simulator(self):
        q, g, frag = figure1()
        config = DgpmConfig(enable_push=False)
        sim_run = run_dgpm(q, frag, config)
        mp_run = run_dgpm_one_site_per_worker(q, frag, config)
        assert mp_run.relation == sim_run.relation == simulation(q, g)
        assert_same_accounting(mp_run.metrics, sim_run.metrics)

    def test_cascading_falsifications_across_processes(self):
        q, _, _ = figure1()
        g = example8_graph()
        frag = figure1_fragmentation(g)
        config = DgpmConfig(enable_push=False)
        mp_run = run_dgpm_one_site_per_worker(q, frag, config)
        assert not mp_run.is_match
        assert mp_run.relation == simulation(q, g)
        assert_same_accounting(mp_run.metrics, run_dgpm(q, frag, config).metrics)

    def test_push_configuration_works_in_processes(self):
        q, g, frag = figure1()
        config = DgpmConfig(enable_push=True, push_threshold=0.0)
        mp_run = run_dgpm_one_site_per_worker(q, frag, config)
        assert mp_run.relation == simulation(q, g)
        assert_same_accounting(mp_run.metrics, run_dgpm(q, frag, config).metrics)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_instances(self, seed):
        graph = random_labeled_graph(40, 160, n_labels=3, seed=seed)
        frag = random_partition(graph, 3, seed=seed)
        q = Pattern({"a": "L0", "b": "L1"}, [("a", "b"), ("b", "a")])
        config = DgpmConfig(enable_push=False)
        mp_run = run_dgpm_one_site_per_worker(q, frag, config)
        assert mp_run.relation == simulation(q, graph)
        assert_same_accounting(mp_run.metrics, run_dgpm(q, frag, config).metrics)

    def test_metrics_shape(self):
        q, _, frag = figure1()
        mp_run = run_dgpm_one_site_per_worker(
            q, frag, DgpmConfig(enable_push=False)
        )
        assert mp_run.metrics.algorithm == "dGPM/sharded"
        assert mp_run.metrics.extras["sharded_workers"] == frag.n_fragments
        assert mp_run.metrics.pt_seconds > 0
        assert mp_run.metrics.n_rounds >= 1


@pytest.fixture(scope="module")
def reproduced():
    """ISSUE 17's instance: 16 fragments, push on (the default config), and
    a site that rewires a falsification to itself."""
    graph = web_graph(1000, 5000, seed=3)
    return graph, web_1k_query()


class TestPlacementIndependentAccounting:
    """ROADMAP item 4: at the parent this instance read 489 messages /
    19,320 B in-process and 0, 254 and 483 messages sharded at ``n_workers``
    1, 2 and 16 -- mail between two fragments of one worker was never
    metered, and in-process counted a site's notes to itself."""

    @pytest.mark.parametrize(
        "n_workers", [1, 2, 16], ids=["1-pipe", "2-pipe", "16-pipe"]
    )
    def test_any_worker_count_reports_the_inprocess_metrics(
        self, reproduced, n_workers
    ):
        graph, query = reproduced
        sim_run = run_dgpm(query, partition(graph, 16))
        assert sim_run.metrics.extras["pushes"] > 0
        with ConcurrentSessionServer(
            partition(graph, 16), backend="sharded", n_workers=n_workers
        ) as server:
            mp_run = server.run(query, algorithm="dgpm")
        assert mp_run.relation == sim_run.relation == simulation(query, graph)
        assert_same_accounting(mp_run.metrics, sim_run.metrics)
        m = mp_run.metrics
        assert (m.n_messages, m.ds_bytes, m.n_rounds) == (483, 19_104, 3)
        assert m.extras["pushes"] == sim_run.metrics.extras["pushes"]
        assert m.extras["sharded_workers"] == n_workers
        # what stayed inside a worker: everything with one, nothing with |F|
        wire_bytes = {1: 0, 2: 10_164, 16: 19_104}[n_workers]
        assert m.ds_bytes - m.extras["colocated_ds_bytes"] == wire_bytes

    def test_no_metered_message_is_self_addressed(self, reproduced, monkeypatch):
        graph, query = reproduced
        metered, notes_to_self = [], []
        send = Network.send

        def spy(network, mail):  # the network meters rows: (kind, src, dst)
            before = network.count_by_kind.get(mail.kind, 0)
            send(network, mail)
            counted = network.count_by_kind.get(mail.kind, 0) - before
            rows = [(mail.kind, src, dst) for src, dst in zip(mail.srcs, mail.dsts)]
            assert counted == sum(src != dst for _, src, dst in rows)
            metered.extend(row for row in rows if row[1] != row[2])
            notes_to_self.extend(row for row in rows if row[1] == row[2])

        monkeypatch.setattr(Network, "send", spy)
        metrics = run_dgpm(query, partition(graph, 16)).metrics
        # push's REWIRE to a leaf's owner that is also the new watcher: the
        # falsification it then hands itself is a local event, not DS
        assert len(notes_to_self) == 6
        assert sum(kind in DATA_KINDS for kind, _, _ in metered) == metrics.n_messages == 483
        run_dgpm(query, partition(graph, 16), DgpmConfig(enable_push=False))
        assert len(notes_to_self) == 6  # and none without push

    def test_sharded_pt_is_the_simulated_makespan(self):
        """PT means the same on both backends: per-round slowest compute
        plus modeled link time, not the coordinator's wall clock."""
        q, _, _ = figure1()
        frag = figure1_fragmentation(example8_graph())  # falsifications cascade
        config = DgpmConfig(
            enable_push=False,
            cost=CostModel(latency_s=0.5, bandwidth_bytes_per_s=1e12),
        )
        with ConcurrentSessionServer(
            frag, backend="sharded", n_workers=2, config=config
        ) as server:
            metrics = server.run(q, algorithm="dgpm").metrics
        assert metrics.n_rounds >= 2
        assert len(metrics.per_round_compute) == metrics.n_rounds
        assert metrics.pt_seconds >= 0.5 * (metrics.n_rounds - 1)
        assert metrics.wall_seconds < metrics.pt_seconds
