#!/usr/bin/env python3
"""Fail when ``src/`` grows past the committed line count.

Counts lines (as ``wc -l`` does) over ``src/**/*.py`` and compares with
``tools/src_loc_baseline.txt``; exits 1 above it.  ``--write`` lowers the
baseline to the current count and never raises it: growing ``src/`` on
purpose means editing the baseline by hand, in a diff a reviewer sees.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
BASELINE = REPO / "tools" / "src_loc_baseline.txt"


def main(argv) -> int:
    total = sum(p.read_bytes().count(b"\n") for p in (REPO / "src").rglob("*.py"))
    baseline = int(BASELINE.read_text().split()[0])
    print(f"src/: {total} lines (baseline {baseline})")
    if "--write" in argv and total < baseline:
        BASELINE.write_text(f"{total}\n")
    return 1 if total > baseline else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
