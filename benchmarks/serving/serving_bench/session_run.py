"""One workload, one run: inputs, measurement, report, exit status."""

from __future__ import annotations

import asyncio
import json
import time
from pathlib import Path
from typing import Dict, Optional

from serving_bench import harness, report, workloads

OUT_DIR = report.HERE / "out"


def check_digests(inputs: workloads.Inputs, seconds: float) -> Optional[str]:
    """None when the inputs are the pinned ones, else what drifted.

    The dataset digest is checked on every run.  The per-seed digest covers
    the op streams too, and is pinned for the seeds the calibration used at
    the run length of BENCHMARK.json.
    """
    try:
        with open(report.PINNED_JSON) as fh:
            pinned = json.load(fh)
    except FileNotFoundError:
        return "pinned_inputs.json is missing"
    entry = pinned["workloads"].get(inputs.spec.name)
    if entry is None:
        return f"no pinned digest for workload {inputs.spec.name}"
    if entry["dataset_digest"] != inputs.dataset_digest:
        return "inputs drifted: graph or pattern pool differ from the pinned dataset"
    if seconds == pinned["seconds"]:
        want = entry["input_digest"].get(str(inputs.seed))
        if want is not None and want != inputs.input_digest:
            return f"inputs drifted: op streams of seed {inputs.seed} differ from the pinned ones"
    return None


def _jsonable(value):
    if hasattr(value, "__dataclass_fields__"):
        return {k: _jsonable(getattr(value, k)) for k in value.__dataclass_fields__}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def run_workload(
    spec: workloads.Spec,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool,
    out: Optional[Path],
) -> int:
    wall_start = time.perf_counter()
    fingerprint = report.fingerprint(seed)
    print(f"== {spec.name}  seed={seed}  seconds={seconds:g}  trace={int(trace)}")
    print(f"   {spec.why}")
    if fingerprint["busy_host"]:
        print(f"   flag: 1-min load average {fingerprint['loadavg_1m_before']:.2f} > half of {fingerprint['usable_cpus']} CPUs before start")

    inputs = workloads.build_inputs(spec, seed, seconds)
    drift = check_digests(inputs, seconds)
    if drift is not None:
        print(f"   FAILED: {drift}")
        return 3

    document: Dict[str, object] = {
        "workload": spec.name,
        "why": spec.why,
        "spec": _jsonable(spec),
        "fingerprint": fingerprint,
        "seconds": seconds,
        "smoke": smoke,
        "dataset_digest": inputs.dataset_digest,
        "input_digest": inputs.input_digest,
        "graph.gen_s": inputs.gen_s,
    }
    if trace:
        from serving_bench import ladder

        result = ladder.run_traced(inputs, OUT_DIR if out is None else out.parent)
        values, attempted, failed = result.values, result.attempted, result.failed
        report.print_table("per-layer metrics (traced run)", values, result.notes)
        print(f"   probes_missing: {result.probes_missing}")
        document.update(result.document)
        declared = list(report.declared("per_layer"))
        flags = result.flags
    else:
        e2e = asyncio.run(harness.run_end_to_end(inputs, n_setups=1 if smoke else 3))
        values, attempted, failed = e2e.metrics, e2e.attempted, e2e.failed
        notes = {
            "setup_s": f"median of {e2e.samples['setup_s']}",
            "service_p50_ms": f"{e2e.samples['closed_reads']} reads x {e2e.samples['closed_passes']} passes, fastest each",
            "service_p95_ms": f"{e2e.samples['closed_reads']} reads x {e2e.samples['closed_passes']} passes, fastest each",
            "query_p50_ms": f"n={e2e.samples['query']}",
            "query_p95_ms": f"n={e2e.samples['query']}",
            "mutate_p50_ms": f"n={e2e.samples['mutate']}",
            "mutate_p95_ms": f"n={e2e.samples['mutate']}",
            "push_lag_p50_ms": f"n={e2e.samples['push_lag']}",
            "push_lag_p95_ms": f"n={e2e.samples['push_lag']}",
            "throughput_ops_s": f"fastest of {e2e.samples['closed_passes']} passes per op, {e2e.samples['closed_ops']} ops in {e2e.durations['closed_s']:.2f} s",
            "failed_ops_share": f"{failed} of {attempted}; {e2e.samples['verified']} oracle checks",
        }
        report.print_table("end-to-end metrics (tracing off)", values, notes)
        report.print_table("harness health", {**e2e.health, "session.cache_hit_rate": e2e.server_stats["session.cache_hit_rate"]})
        for problem in e2e.problems[:10]:
            print(f"   failed: {problem}")
        document.update(
            end_to_end=values, samples=e2e.samples, health=e2e.health,
            durations=e2e.durations, problems=e2e.problems[:50],
            server_stats=_jsonable(e2e.server_stats),
        )
        declared = list(report.declared("end_to_end"))
        flags = e2e.flags
    for flag in flags:
        print(f"   flag: {flag}")
    document["flags"] = flags
    document["attempted"] = attempted
    document["failed"] = failed
    document["wall_s"] = time.perf_counter() - wall_start
    document["claim"] = None

    target = out if out is not None else OUT_DIR / f"{'trace' if trace else 'result'}-{spec.name}-seed{seed}.json"
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "w") as fh:
        json.dump(document, fh, indent=1)
    print(f"   report: {target}   wall {document['wall_s']:.1f} s")
    print(report.final_line(failed == 0, attempted, failed, declared, values))
    return 0 if failed == 0 else 1
