"""Machine-readable benchmark records: one writer, one JSON per bench.

Every committed ``BENCH_<NAME>.json`` goes through :func:`write_record`,
which stamps the payload with the bench's name, the time and the environment
:func:`fingerprint` so records from different runs are comparable.
``python -m repro.bench --out`` writes ``BENCH_PAPER.json`` with it, and
``benchmarks/bench_engines.py --out`` writes ``BENCH_ENGINES.json``; without
``--out`` a benchmark run leaves nothing behind.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path


def fingerprint() -> dict:
    """What a reader needs to compare records from different machines."""
    return {"python": sys.version.split()[0], "platform": platform.platform()}


def write_record(path: Path, bench: str, payload: dict) -> Path:
    """Write one bench's JSON record: name, time and fingerprint, then
    ``payload`` (which must be JSON-serializable)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    document = {"bench": bench, "recorded_at": time.time(), **fingerprint(), **payload}
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path
