"""Sites as real OS processes: one shard worker per fragment vs the simulator.

``backend="sharded"`` with ``n_workers == |F|`` is the paper's deployment
literally -- fragment ``Fi`` at site ``Si`` -- so its relation, message
count, DS bytes and round count must equal the in-process engine's.
"""

import pytest

from repro import ConcurrentSessionServer
from repro.core import DgpmConfig, run_dgpm
from repro.graph.examples import example8_graph, figure1, figure1_fragmentation
from repro.graph.generators import random_labeled_graph
from repro.graph.pattern import Pattern
from repro.partition import random_partition
from repro.simulation import simulation


def run_dgpm_one_site_per_worker(query, frag, config, transport="pipe"):
    """dGPM over ``|F|`` shard workers, each owning exactly one fragment."""
    with ConcurrentSessionServer(
        frag,
        backend="sharded",
        n_workers=frag.n_fragments,
        config=config,
        transport=transport,
    ) as server:
        assert set(server.ring.loads().values()) == {1}
        return server.run(query, algorithm="dgpm")


def assert_same_accounting(mp_metrics, sim_metrics):
    assert mp_metrics.n_messages == sim_metrics.n_messages
    assert mp_metrics.ds_bytes == sim_metrics.ds_bytes
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
