"""Order statistics with the benchmark's reporting rule.

A percentile is reported only when at least :data:`MIN_BEYOND` samples lie
beyond it: p95 needs 200 samples, p99 needs 1000.  Below that the tail
estimate is one or two observations and moves with every run, so the
harness prints ``None`` and the sample count instead of a number.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Optional, Sequence

MIN_BEYOND = 10


def samples_needed(pct: float) -> int:
    """Fewest samples for which ``pct`` has MIN_BEYOND samples beyond it."""
    return math.ceil(MIN_BEYOND / (1.0 - pct / 100.0) - 1e-9)


def percentile(values: Sequence[float], pct: float, repeats: int = 1) -> Optional[float]:
    """Nearest-rank percentile, or None when the sample cannot support it.

    The median (``pct == 50``) is exempt from the rule but still needs one
    sample.  ``repeats``: how many timed samples each value stands for (a
    closed-loop op's fastest round trip stands for one per pass).
    """
    n = len(values)
    if n == 0:
        return None
    if pct != 50 and n * repeats < samples_needed(pct):
        return None
    ordered = sorted(values)
    if pct == 50:
        return float(statistics.median(ordered))
    rank = max(1, math.ceil(pct / 100.0 * n))
    return float(ordered[rank - 1])


def mean(values: Iterable[float]) -> Optional[float]:
    values = list(values)
    return float(statistics.fmean(values)) if values else None


