"""Run results and performance metrics.

:class:`RunMetrics` is what every benchmark prints: the simulated parallel
response time (PT) and the data shipment (DS), matching the paper's two
y-axes, plus the raw ingredients (rounds, message counts, per-round compute).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.simulation.matchrel import MatchRelation


@dataclass(frozen=True)
class RunMetrics:
    """Metered performance of one distributed run.

    Frozen: instances live in the session's result cache and are encoded
    inside RunReply frames, so every cache hit and every reply future hands
    the same object to another caller.  Derive variants with
    ``dataclasses.replace``.
    """

    algorithm: str
    #: simulated makespan: sum over rounds of (max site compute + link time)
    pt_seconds: float
    #: total wall-clock of the in-process run (diagnostic only)
    wall_seconds: float
    #: headline data shipment in bytes (protocol data messages only)
    ds_bytes: int
    #: number of protocol data messages
    n_messages: int
    #: synchronous rounds executed (message-delivery cycles)
    n_rounds: int
    #: bytes per message kind (full breakdown, incl. control/query/result)
    ds_breakdown: Dict[str, int] = field(default_factory=dict)
    #: slowest-site compute per round, seconds.  Measured where every site
    #: has a program of its own; an *estimate* where one program evaluates
    #: several co-located sites at once (dGPM on the array engine): the
    #: program's step time apportioned by each site's share of the counter
    #: decrements, largest share reported.  ``pt_seconds`` inherits that.
    per_round_compute: List[float] = field(default_factory=list)
    #: algorithm-specific extras (e.g. supersteps, push count)
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def ds_kb(self) -> float:
        """DS in kilobytes -- the unit of the paper's Figure 6."""
        return self.ds_bytes / 1024.0

    def describe(self) -> str:
        """One-line summary, paper-style."""
        return (
            f"{self.algorithm}: PT={self.pt_seconds:.4f}s "
            f"DS={self.ds_kb:.2f}KB msgs={self.n_messages} rounds={self.n_rounds}"
        )


@dataclass(frozen=True)
class RunResult:
    """Answer plus metrics for one distributed evaluation.

    Frozen for the same reason as :class:`RunMetrics`: this is the cached
    value itself, shared by every hit on the entry.
    """

    relation: MatchRelation
    metrics: RunMetrics

    @property
    def is_match(self) -> bool:
        """Boolean-query view of the answer."""
        return self.relation.is_match
