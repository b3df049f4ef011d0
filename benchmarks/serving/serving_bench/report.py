"""Environment fingerprint, BENCHMARK.json access and printing."""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, Optional

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
PINNED_JSON = HERE / "pinned_inputs.json"

#: units the name's suffix does not give away
UNITS = {"throughput_ops_s": "ops/s", "loadgen.closed_ops_s": "ops/s"}


def unit_of(name: str) -> str:
    """A metric's unit, from the suffix its name carries."""
    if name in UNITS:
        return UNITS[name]
    leaf = "_" + name.rsplit(".", 1)[-1]
    for suffix, unit in (
        ("_ms", "ms"), ("_us", "us"), ("_s", "s"), ("_kb", "KB"), ("_mb", "MB"),
        ("_pct", "%"), ("_bytes", "B"), ("_rate", "ratio"), ("_share", "ratio"),
    ):
        if leaf.endswith(suffix) or f"{suffix}_" in leaf:
            return unit
    return "count"


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _commit() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
            text=True, timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def spin_ms() -> float:
    """A fixed pure-Python loop, timed: how fast this box is right now.
    Runs minutes apart here differ by more than their own noise; this says
    whether two reports were taken on the same kind of day."""
    start = time.perf_counter()
    sum(i * i % 7 for i in range(500_000))
    return (time.perf_counter() - start) * 1e3


def fingerprint(seed: int) -> Dict[str, object]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    cpus = usable_cpus()
    load1 = os.getloadavg()[0]
    return {
        "usable_cpus": cpus,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "commit": _commit(),
        "seed": seed,
        "loadavg_1m_before": load1,
        "spin_ms_before": spin_ms(),
        "busy_host": load1 > 0.5 * cpus,
    }


def declared(section: str) -> Iterable[dict]:
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)[section]


def final_line(correct: bool, attempted: int, failed: int, names: Iterable[dict], values: Dict[str, Optional[float]]) -> str:
    """The one JSON object the driver reads: exactly the declared metrics."""
    metrics = {
        item["name"]: {"value": values.get(item["name"]), "unit": item["unit"]}
        for item in names
    }
    return json.dumps(
        {"correct": correct, "attempted": max(1, attempted), "failed": failed, "metrics": metrics}
    )


def print_table(title: str, values: Dict[str, Optional[float]], notes: Optional[Dict[str, str]] = None) -> None:
    notes = notes or {}
    print(f"-- {title}")
    for name, value in values.items():
        shown = "-" if value is None else f"{value:.4f}"
        note = f"   ({notes[name]})" if name in notes else ""
        print(f"   {name:<36} {shown:>14} {unit_of(name):<6}{note}")
    sys.stdout.flush()
