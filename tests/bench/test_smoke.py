"""The one writer behind every ``BENCH_*.json``, and ``bench_engines --out``."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.bench import smoke
from repro.bench.engines import GATE_EDGES, GATE_NODES, EnginePoint, EngineSeries

ROOT = Path(__file__).resolve().parents[2]


def test_write_record_stamps_bench_time_and_fingerprint(tmp_path):
    out = smoke.write_record(tmp_path / "deep" / "r.json", "net", {"ok": True, "x": 2.5})
    document = json.loads(out.read_text())
    assert document["bench"] == "net" and document["x"] == 2.5
    assert document["recorded_at"] > 0
    assert document.items() >= smoke.fingerprint().items()


@pytest.mark.parametrize("array_qps, code", [(60.0, 0), (20.0, 1)])
def test_bench_engines_out_writes_the_committed_records_fields(
    array_qps, code, tmp_path, monkeypatch, capsys
):
    spec = importlib.util.spec_from_file_location(
        "bench_engines", ROOT / "benchmarks" / "bench_engines.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    point = EnginePoint(
        GATE_NODES, GATE_EDGES, 16, 6, dict_qps=10.0, array_qps=array_qps,
        parity=True, compile_seconds=0.1, compilations=16,
    )
    monkeypatch.setattr(script, "engine_series", lambda **_: EngineSeries([point]))
    out = tmp_path / "engines.json"
    assert script.main(["--smoke", "--out", str(out)]) == code  # the gate's exit code
    assert script.main(["--smoke"]) == code and list(tmp_path.iterdir()) == [out]
    record = json.loads(out.read_text())
    committed = json.loads((ROOT / "BENCH_ENGINES.json").read_text())
    assert record.keys() >= committed.keys()  # + the fingerprint, added since
    assert record["points"][0].keys() == committed["points"][0].keys()
    assert record["ok"] is (code == 0) and record["smoke"] is True
