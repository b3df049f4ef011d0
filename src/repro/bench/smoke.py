"""Machine-readable benchmark records: one writer, one JSON per bench.

Every committed ``BENCH_<NAME>.json`` and every CI smoke result goes through
:func:`write_record`, which stamps the payload with the bench's name, the
time and the environment :func:`fingerprint` so records from different runs
are comparable.  ``python -m repro.bench`` writes ``BENCH_PAPER.json`` with
it directly; each benchmark script's ``main()`` calls :func:`record_smoke`
with its headline figures, and when the ``BENCH_SMOKE_DIR`` environment
variable is set (CI sets it) the payload lands in
``$BENCH_SMOKE_DIR/<bench>.json``.  After all smokes ran,
``python -m repro.bench.smoke --dir <dir> --out BENCH_SMOKE.json`` merges
them into the single per-run artifact CI uploads.

Without ``BENCH_SMOKE_DIR`` :func:`record_smoke` is a no-op, so local
benchmark runs leave nothing behind.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Optional

ENV_VAR = "BENCH_SMOKE_DIR"


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


def record_smoke(bench: str, payload: dict) -> Optional[Path]:
    """Persist one benchmark's machine-readable result (no-op unless CI asks).

    ``bench`` names the output file and the entry in the merged artifact.
    Returns the written path, or ``None`` when ``BENCH_SMOKE_DIR`` is unset.
    """
    directory = os.environ.get(ENV_VAR)
    if not directory:
        return None
    return write_record(Path(directory) / f"{bench}.json", bench, payload)


def collect(directory: Path, out: Path) -> dict:
    """Merge every ``<bench>.json`` under ``directory`` into ``out``."""
    benches = {}
    for path in sorted(Path(directory).glob("*.json")):
        with open(path) as fh:
            entry = json.load(fh)
        benches[entry.get("bench", path.stem)] = entry
    merged = {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        **fingerprint(),
        "n_benches": len(benches),
        "benches": benches,
    }
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
    return merged


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--dir",
        default=os.environ.get(ENV_VAR, "benchmarks/results/smoke"),
        help="directory holding the per-bench JSON files",
    )
    parser.add_argument(
        "--out",
        default="BENCH_SMOKE.json",
        help="merged artifact to write",
    )
    args = parser.parse_args(argv)
    merged = collect(Path(args.dir), Path(args.out))
    print(
        f"collected {merged['n_benches']} bench result(s) from {args.dir} "
        f"into {args.out}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
