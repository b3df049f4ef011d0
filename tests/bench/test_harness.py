"""Tests for the sweep harness, the record comparison and the CLI."""

import json

import pytest

from repro.bench.cli import EXPERIMENTS, main
from repro.bench.harness import drift, run_sweep
from repro.core import run_dgpm
from repro.errors import ReproError
from repro.graph.generators import random_labeled_graph
from repro.graph.pattern import Pattern
from repro.partition import random_partition
from repro.runtime.metrics import RunMetrics, RunResult
from repro.simulation.matchrel import MatchRelation


def _instances():
    graph = random_labeled_graph(60, 240, n_labels=3, seed=1)
    q = Pattern({"a": "L0", "b": "L1"}, [("a", "b")])
    return [
        (nf, [q], random_partition(graph, nf, seed=1)) for nf in (2, 4)
    ]


class TestRunSweep:
    def test_produces_point_per_x(self):
        instances = _instances()
        series = run_sweep("t", "|F|", instances, {"dGPM": run_dgpm})
        assert [p.x for p in series.points] == [2, 4]
        for point, (_, (query,), frag) in zip(series.points, instances):
            assert point.instance == {
                "n_nodes": 60,
                "n_edges": frag.graph.n_edges,
                "n_fragments": frag.n_fragments,
                "crossing_edges": frag.n_crossing_edges,
                "boundary_nodes": frag.n_virtual_nodes,
                "largest_fragment": frag.largest_fragment.size,
            }
            assert point.queries == [{"n_nodes": 2, "n_edges": 1, "diameter": 1}]
            (run,) = point.algorithms["dGPM"]
            m = run_dgpm(query, frag).metrics
            assert (run["rounds"], run["messages"], run["ds_bytes"], run["ds_breakdown"]) == (
                m.n_rounds, m.n_messages, m.ds_bytes, m.ds_breakdown
            )
            assert all(type(run[k]) is int for k in ("rounds", "messages", "ds_bytes"))

    def test_verification_catches_wrong_answers(self):
        def broken(query, fragmentation):
            empty = MatchRelation(query.nodes(), {})
            metrics = RunMetrics("broken", 0.0, 0.0, 0, 0, 0)
            return RunResult(relation=empty, metrics=metrics)

        with pytest.raises(ReproError):
            run_sweep("t", "|F|", _instances(), {"broken": broken})

    def test_verify_off_skips_oracle(self):
        def fast_fake(query, fragmentation):
            rel = MatchRelation(query.nodes(), {u: {0} for u in query.nodes()})
            return RunResult(rel, RunMetrics("x", 1.0, 1.0, 1024, 1, 1))

        series = run_sweep("t", "x", _instances(), {"x": fast_fake}, verify=False)
        assert series.points[0].algorithms["x"][0]["ds_bytes"] == 1024


class TestDrift:
    RUN = {"rounds": 3, "ds_breakdown": {"query": 8}, "pt_seconds": 0.5, "wall_seconds": 0.7}

    def test_clock_readings_are_not_compared(self):
        assert drift([self.RUN], [{**self.RUN, "pt_seconds": 9.0, "wall_seconds": 9.0}]) == []

    def test_every_moved_counter_is_named(self):
        moved = {**self.RUN, "rounds": 4, "ds_breakdown": {"query": 8, "control": 16}}
        assert drift({"a": [self.RUN]}, {"a": [moved]}) == [
            "/a[0]/ds_breakdown/control: committed '<absent>', measured 16",
            "/a[0]/rounds: committed 3, measured 4",
        ]

    def test_a_missing_point_is_drift(self):
        assert drift([self.RUN, self.RUN], [self.RUN]) == [
            ": committed 2 entries, measured 1"
        ]


class TestCli:
    def test_list(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert all(key in out for key in EXPERIMENTS)

    def test_unknown_figure(self, capsys):
        assert main(["nope"]) == 2
        assert "6ab" in capsys.readouterr().err

    def test_help_when_no_args(self, capsys):
        assert main(["--scale", "0.5"]) == 0
        assert "python -m repro.bench" in capsys.readouterr().out

    def test_table1_runs(self, capsys, tmp_path):
        out = tmp_path / "record.json"
        assert main(["table1", "--scale", "0.1", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        record = json.loads(out.read_text())
        assert record["bench"] == "paper" and record["python"] and record["platform"]
        (series,) = record["experiments"].values()
        assert [point["x"] for point in series["points"]] == [
            "dGPM", "dGPMd", "dGPMt", "Figure 5"
        ]

    def test_check_fails_on_one_moved_integer(self, capsys, tmp_path):
        out = tmp_path / "record.json"
        assert main(["thm1-rounds", "--out", str(out), "--check", str(out)]) == 0
        record = json.loads(out.read_text())
        record["experiments"]["thm1-rounds"]["points"][2]["algorithms"]["dGPM"][0][
            "ds_breakdown"
        ]["var_update"] += 1
        out.write_text(json.dumps(record))
        assert main(["thm1-rounds", "--check", str(out)]) == 1
        assert (
            "/experiments/thm1-rounds/points[2]/algorithms/dGPM[0]/ds_breakdown/var_update"
            in capsys.readouterr().out
        )
        # an experiment the record does not hold is drift too
        assert main(["thm1-shipment", "--check", str(out)]) == 1
