"""Sustained stream throughput of the resident session layer.

:func:`query_stream_series` (behind ``benchmarks/bench_query_stream.py``): a
resident fragmentation serves a stream of pattern queries, and we compare

* **one-shot** -- each query goes through the public ``run_dgpm`` entry
  point, paying the per-graph setup (dependency/watcher tables, engine and
  network wiring) every time; this is how every Fig.-6 benchmark drives the
  system, and the right cost model for a single reproduction run;
* **session** -- a :class:`~repro.session.SimulationSession` pays the setup
  once, serves the same stream through cached structures, and answers
  repeated queries from its LRU result cache.

Streams are *mixed*: a pool of distinct patterns sampled from the data
graph, cycled ``repeat`` times (web workloads repeat hot queries; the cache
is useless without repetition and undersold without distinct queries).
Parity with the one-shot answers is asserted on every point -- throughput
that changes answers would be worthless.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.bench.workloads import cyclic_pattern
from repro.core.config import DgpmConfig
from repro.core.dgpm import run_dgpm
from repro.graph.digraph import DiGraph
from repro.graph.generators import web_graph
from repro.graph.pattern import Pattern
from repro.partition.fragmentation import Fragmentation
from repro.session import SimulationSession


def mixed_query_stream(
    graph: DiGraph,
    n_distinct: int = 6,
    repeat: int = 4,
    n_nodes: int = 4,
    n_edges: int = 6,
    seed: int = 0,
) -> List[Pattern]:
    """``n_distinct`` patterns sampled from ``graph``, cycled ``repeat`` times.

    Patterns are re-instantiated per repetition (fresh ``Pattern`` objects),
    so cache hits must come from canonical hashing, not object identity;
    pattern ``s`` gets the deterministic seed ``seed + s``.
    """
    stream: List[Pattern] = []
    for rep in range(repeat):
        for s in range(n_distinct):
            stream.append(
                cyclic_pattern(graph, n_nodes=n_nodes, n_edges=n_edges, seed=seed + s)
            )
    return stream


@dataclass
class StreamPoint:
    """Measured throughput at one fragment count."""

    n_fragments: int
    n_queries: int
    n_distinct: int
    oneshot_seconds: float
    session_seconds: float
    cache_hit_rate: float
    #: session time on the distinct prefix only (no possible cache hit) --
    #: isolates the setup-amortization gain from the caching gain
    session_distinct_seconds: float
    oneshot_distinct_seconds: float
    parity: bool

    @property
    def oneshot_qps(self) -> float:
        return self.n_queries / self.oneshot_seconds if self.oneshot_seconds else 0.0

    @property
    def session_qps(self) -> float:
        return self.n_queries / self.session_seconds if self.session_seconds else 0.0

    @property
    def speedup(self) -> float:
        """One-shot per-query wall time over session per-query wall time."""
        return self.oneshot_seconds / self.session_seconds if self.session_seconds else 0.0

    @property
    def distinct_speedup(self) -> float:
        """Setup-amortization gain alone (all-distinct prefix, no cache hits)."""
        if not self.session_distinct_seconds:
            return 0.0
        return self.oneshot_distinct_seconds / self.session_distinct_seconds


@dataclass
class StreamSeries:
    """The full sweep over fragment counts."""

    points: List[StreamPoint] = field(default_factory=list)

    def render(self) -> str:
        header = (
            f"{'|F|':>5} {'queries':>8} {'one-shot q/s':>13} {'session q/s':>12} "
            f"{'speedup':>8} {'distinct x':>10} {'hit rate':>9} {'parity':>7}"
        )
        lines = [header, "-" * len(header)]
        for p in self.points:
            lines.append(
                f"{p.n_fragments:>5} {p.n_queries:>8} {p.oneshot_qps:>13.1f} "
                f"{p.session_qps:>12.1f} {p.speedup:>7.2f}x {p.distinct_speedup:>9.2f}x "
                f"{p.cache_hit_rate:>8.0%} {'ok' if p.parity else 'FAIL':>7}"
            )
        return "\n".join(lines)


def measure_stream_point(
    fragmentation: Fragmentation,
    stream: Sequence[Pattern],
    n_distinct: int,
    config: Optional[DgpmConfig] = None,
) -> StreamPoint:
    """Serve ``stream`` one-shot and via a session; meter both, check parity."""
    config = config or DgpmConfig()

    t0 = time.perf_counter()
    oneshot = [run_dgpm(q, fragmentation, config) for q in stream]
    oneshot_seconds = time.perf_counter() - t0
    oneshot_distinct_seconds = oneshot_seconds * n_distinct / max(1, len(stream))

    # A fresh session serving only distinct queries: amortization, no caching.
    distinct_session = SimulationSession(fragmentation, config=config).warm()
    t0 = time.perf_counter()
    distinct_session.run_many(stream[:n_distinct], algorithm="dgpm")
    session_distinct_seconds = time.perf_counter() - t0

    session = SimulationSession(fragmentation, config=config)
    t0 = time.perf_counter()
    served = session.run_many(stream, algorithm="dgpm")
    session_seconds = time.perf_counter() - t0

    parity = all(
        s.relation == o.relation for s, o in zip(served, oneshot)
    )
    return StreamPoint(
        n_fragments=fragmentation.n_fragments,
        n_queries=len(stream),
        n_distinct=n_distinct,
        oneshot_seconds=oneshot_seconds,
        session_seconds=session_seconds,
        cache_hit_rate=session.stats.hit_rate,
        session_distinct_seconds=session_distinct_seconds,
        oneshot_distinct_seconds=oneshot_distinct_seconds,
        parity=parity,
    )


def query_stream_series(
    fragment_counts: Sequence[int] = (4, 8, 16),
    n_nodes: int = 3000,
    n_edges: int = 15000,
    n_distinct: int = 6,
    repeat: int = 4,
    seed: int = 7,
    config: Optional[DgpmConfig] = None,
) -> StreamSeries:
    """Sweep sustained queries/sec over fragment counts on one web graph."""
    from repro import partition

    graph = web_graph(n_nodes, n_edges, seed=seed)
    stream = mixed_query_stream(graph, n_distinct=n_distinct, repeat=repeat, seed=seed)
    series = StreamSeries()
    for n_fragments in fragment_counts:
        frag = partition(graph, n_fragments=n_fragments, seed=seed, vf_ratio=0.25)
        series.points.append(
            measure_stream_point(frag, stream, n_distinct=n_distinct, config=config)
        )
    return series
