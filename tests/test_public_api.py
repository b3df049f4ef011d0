"""Integration tests through the public package surface only."""

import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

import pytest

import repro
from repro.analysis.checkers import ALL_CHECKERS
from repro.core.protocol import AlgorithmSpec


#: everything public these define -- a name not listed is a second way in
SURFACES = {
    "repro.core.incremental": {
        "IncrementalMatchState", "RepairCost",
        "delta_may_change_answer", "edge_update_may_change_answer",
    },
    "repro.core.incremental.IncrementalMatchState": {"apply", "bootstrap", "relation"},
    "repro.bench.smoke": {"fingerprint", "write_record"},
}

#: parameters no call site ever set, now the constants they were
REMOVED_PARAMETERS = [
    ("repro.session.SimulationSession", "deps"),
    ("repro.session.ConcurrentSessionServer.rebalance", "balance"),
    ("repro.session.ConcurrentSessionServer.rebalance", "max_passes"),
    ("repro.session.sharding.HashRing.rebalanced", "tolerance"),
    ("repro.runtime.mp.respawn_worker", "probe"),
    ("repro.net.NetworkSessionServer", "drain_timeout"),
]


class TestExports:
    def test_all_exports_resolve(self):
        for package in ("repro", "repro.core", "repro.session", "repro.net", "repro.bench"):
            module = importlib.import_module(package)
            assert len(set(module.__all__)) == len(module.__all__), package
            for name in module.__all__:
                assert hasattr(module, name), f"{package}.__all__ lists missing {name}"

    @pytest.mark.parametrize("owner", sorted(SURFACES))
    def test_narrowed_surfaces_define_nothing_else(self, owner):
        obj = pkgutil.resolve_name(owner)
        home = getattr(obj, "__module__", obj.__name__)  # a class's, or the module
        public = {
            name
            for name, value in vars(obj).items()
            if not name.startswith("_") and getattr(value, "__module__", None) == home
        }
        assert public == SURFACES[owner]

    def test_removed_entry_points_are_gone(self):
        # run_protocol(SPEC, ...) is the call; a baseline is its one run_*
        for owner in ("core.dgpm", "core.dgpmd", "core.dgpmt", "baselines.dishhk",
                      "baselines.dmes", "baselines.match_central"):
            module = importlib.import_module(f"repro.{owner}")
            assert not [name for name in vars(module) if name.startswith("execute")]
        assert "join" not in vars(repro.session.sharding.HashRing)
        assert "__getstate__" not in vars(repro.session.SessionStats)
        # a session serves the three specs of repro.core.dispatch.ALGORITHMS
        assert not {"DRIVERS", "AlgorithmDriver"} & set(repro.session.__all__)
        with pytest.raises(ImportError):
            importlib.import_module("repro.session.drivers")
        assert "engines" not in {f.name for f in dataclasses.fields(AlgorithmSpec)}
        assert "driver-registry" not in {checker.rule for checker in ALL_CHECKERS}

    @pytest.mark.parametrize("function, name", REMOVED_PARAMETERS)
    def test_removed_parameters_are_gone(self, function, name):
        assert name not in inspect.signature(pkgutil.resolve_name(function)).parameters

    def test_import_repro_does_not_load_the_network_layer(self):
        """``repro.runtime`` and ``repro.session`` sit below ``repro.net``:
        importing the library opens no door to sockets or handshakes."""
        script = (
            "import repro, sys; "
            "print([m for m in sys.modules if m.startswith('repro.net') or m == 'hmac'])"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            capture_output=True, text=True, check=True, timeout=60,
        )
        assert out.stdout.strip() == "[]"

    def test_version(self):
        assert repro.__version__ == "1.0.0"


class TestQuickstartFlow:
    def test_readme_flow(self):
        g = repro.web_graph(1000, 5000, seed=1)
        frag = repro.partition(g, n_fragments=4, seed=1)
        from repro.bench.workloads import cyclic_pattern

        q = cyclic_pattern(g, 4, 6, seed=1)
        result = repro.run_dgpm(q, frag)
        assert result.relation == repro.simulation(q, g)
        assert result.metrics.ds_kb >= 0
        assert result.is_match

    def test_partition_with_vf_target(self):
        g = repro.web_graph(1500, 7500, seed=2)
        frag = repro.partition(g, 6, seed=2, vf_ratio=0.30)
        frag.validate()
        assert frag.vf_ratio == pytest.approx(0.30, abs=0.06)

    def test_auto_dispatch_tree(self):
        tree = repro.random_tree(60, seed=1)
        frag = repro.tree_partition(tree, 4, seed=1)
        q = repro.Pattern({"q": tree.label(0)})
        result = repro.run_auto(q, frag)
        assert result.metrics.algorithm == "dGPMt"

    def test_custom_cost_model(self):
        g = repro.web_graph(500, 2000, seed=3)
        frag = repro.partition(g, 3, seed=3)
        q = repro.Pattern({"a": "dom0", "b": "dom1"}, [("a", "b")])
        slow = repro.DgpmConfig(cost=repro.CostModel(latency_s=1.0))
        fast = repro.DgpmConfig(cost=repro.CostModel(latency_s=0.0001))
        slow_pt = repro.run_dgpm(q, frag, slow).metrics.pt_seconds
        fast_pt = repro.run_dgpm(q, frag, fast).metrics.pt_seconds
        assert slow_pt > fast_pt

    def test_error_hierarchy(self):
        assert issubclass(repro.GraphError, repro.ReproError)
        assert issubclass(repro.PatternError, repro.ReproError)
        assert issubclass(repro.FragmentationError, repro.ReproError)
        assert issubclass(repro.ProtocolError, repro.ReproError)


class TestMultiprocessExecutor:
    def test_mp_matches_simulator(self):
        g = repro.web_graph(400, 1600, seed=4)
        frag = repro.partition(g, 3, seed=4)
        from repro.bench.workloads import cyclic_pattern

        q = cyclic_pattern(g, 4, 5, seed=2)
        config = repro.DgpmConfig(enable_push=False)
        sim_result = repro.run_dgpm(q, frag, config)
        with repro.ConcurrentSessionServer(
            frag, backend="sharded", n_workers=3, config=config
        ) as server:
            mp_result = server.run(q, algorithm="dgpm")
        assert mp_result.relation == sim_result.relation
        assert mp_result.metrics.n_messages == sim_result.metrics.n_messages
