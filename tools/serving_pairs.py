#!/usr/bin/env python3
"""Alternating parent/change runs of the serving benchmark, kept as records.

    python3 tools/serving_pairs.py --parent ../parent --workload cold_reads --seeds 1 2 3

Runs ``benchmarks/serving/run.py`` in the parent's checkout and in this one in
turn, the first side alternating, reads only the last line of its output (the
JSON object) and appends a record per run to ``BENCH_SERVING_PAIRS.json`` here.
A run that exits non-zero stops the tool.  Both trees are byte-compiled first:
the server runs with ``PYTHONDONTWRITEBYTECODE=1``, so a tree without ``.pyc``
files would compile every module inside ``setup_s``.
"""

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_SERVING_PAIRS.json"
sys.path.insert(0, str(ROOT / "src"))

from repro.bench.smoke import fingerprint  # noqa: E402


def commit(tree: Path) -> str:
    """The checkout's HEAD, plus a digest of how its ``src/`` differs from
    HEAD: the diff and every untracked file."""
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True).stdout
    new = git("ls-files", "--others", "--exclude-standard", "--", "src").split()
    diff = git("diff", "HEAD", "--", "src") + "".join(path + (tree / path).read_text() for path in new)
    head = git("rev-parse", "--short", "HEAD").strip() or "unknown"
    return head + (f"+src.{hashlib.sha1(diff.encode()).hexdigest()[:8]}" if diff else "")


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One benchmark run in ``tree``; its final JSON line."""
    out = subprocess.run(
        [sys.executable, "benchmarks/serving/run.py", "--workload", workload, "--seed", str(seed)],
        cwd=tree, capture_output=True, text=True,
    )
    if out.returncode or not out.stdout.strip():
        raise SystemExit(f"run.py failed in {tree} (exit {out.returncode}): {out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--pairs", type=int, default=10, help="pairs in all, seeds taken in turn")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": ROOT}  # the change: this checkout
    for tree in trees.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=tree, check=True)
    commits = {side: commit(tree) for side, tree in trees.items()}
    records = json.loads(OUT.read_text())["records"] if OUT.exists() else []
    done = len({r["pair"] for r in records if r["workload"] == args.workload})
    for pair in range(done, done + args.pairs):
        seed = args.seeds[pair % len(args.seeds)]
        sides = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for order, side in enumerate(sides):
            last = run_once(trees[side], args.workload, seed)
            records.append({
                **{f"{name}_commit": rev for name, rev in commits.items()},
                "side": side, "workload": args.workload, "seed": seed, "pair": pair, "order": order,
                "metrics": {name: m["value"] for name, m in last["metrics"].items()},
                "attempted": last["attempted"], "failed": last["failed"], "fingerprint": fingerprint(),
            })
            OUT.write_text(json.dumps({"bench": "serving_pairs", "records": records}, indent=1) + "\n")
            print(side, args.workload, seed, records[-1]["metrics"], flush=True)


if __name__ == "__main__":
    sys.exit(main())
