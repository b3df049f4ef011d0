"""Sustained stream throughput of the resident session layer.

Two experiments live here.

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

:func:`update_stream_series` (behind ``benchmarks/bench_updates.py``): the
same resident graph now *changes* under the query stream.  One session uses
the in-place maintenance pipeline (fragmentation patched per update, warm
incremental repair of hot cached queries, label-relevance retention); the
baseline session drops every derived structure on every mutation
(``maintenance="invalidate"`` -- the pre-maintenance behavior).  Both serve
an identical interleaved delete/insert/query stream; every answer is
parity-checked between the two modes, and the maintained session is
additionally checked against a from-scratch centralized ``simulation`` after
every mutation.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.bench.workloads import cyclic_pattern
from repro.core.config import DgpmConfig
from repro.core.dgpm import run_dgpm
from repro.graph.digraph import DiGraph
from repro.graph.generators import web_graph
from repro.graph.mutations import DeleteEdge, InsertEdge, MutationOp
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
    rng: Optional[random.Random] = None,
) -> List[Pattern]:
    """``n_distinct`` patterns sampled from ``graph``, cycled ``repeat`` times.

    Patterns are re-instantiated per repetition (fresh ``Pattern`` objects),
    so cache hits must come from canonical hashing, not object identity.

    With ``rng``, the distinct patterns are drawn from the caller's
    generator (per-pattern sub-seeds derived from it); by default each
    pattern gets the deterministic seed ``seed + s``.
    """
    sub_seeds = (
        [rng.randrange(2**31) for _ in range(n_distinct)]
        if rng is not None
        else [seed + s for s in range(n_distinct)]
    )
    stream: List[Pattern] = []
    for rep in range(repeat):
        for s in range(n_distinct):
            stream.append(
                cyclic_pattern(
                    graph, n_nodes=n_nodes, n_edges=n_edges, seed=sub_seeds[s]
                )
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


# ----------------------------------------------------------------------
# mutating streams: incremental maintenance vs drop-everything
# ----------------------------------------------------------------------

def mixed_update_stream(
    graph: DiGraph,
    n_rounds: int = 30,
    n_hot: int = 3,
    seed: int = 0,
    queries: Optional[Sequence[Pattern]] = None,
    rng: Optional[random.Random] = None,
) -> List[object]:
    """An interleaved op list over ``graph``: typed mutations and
    ``("query", hot index)`` entries.

    Each round mutates once (mostly deletions; every fourth round re-inserts
    a previously deleted edge, so the stream also exercises the revival
    path) and then queries one of ``n_hot`` hot patterns.  When ``queries``
    are given, every other deletion is drawn from edges whose label pair a
    query edge carries -- the adversarial half of the stream that actually
    invalidates answers and forces repairs (uniform deletions on a large
    alphabet almost never touch a witness).  Ops are generated against a
    scratch copy, so the same list can be replayed against independent
    sessions.  ``rng`` overrides ``seed`` (one caller-owned stream across
    many calls); by default the call is a pure function of its arguments.
    """
    rng = rng if rng is not None else random.Random(seed)
    scratch = graph.copy()
    relevant_pairs = (
        {(q.label(a), q.label(b)) for q in queries for a, b in q.edges()}
        if queries
        else set()
    )
    deleted: List[Tuple] = []
    ops: List[object] = []
    for step in range(n_rounds):
        if step % 4 == 3 and deleted:
            u, v = deleted.pop(rng.randrange(len(deleted)))
            scratch.add_edge(u, v)
            ops.append(InsertEdge(u, v))
        else:
            edges = list(scratch.edges())
            if relevant_pairs and step % 2 == 0:
                hot = [
                    (u, v)
                    for u, v in edges
                    if (scratch.label(u), scratch.label(v)) in relevant_pairs
                ]
                if hot:
                    edges = hot
            u, v = edges[rng.randrange(len(edges))]
            scratch.remove_edge(u, v)
            deleted.append((u, v))
            ops.append(DeleteEdge(u, v))
        ops.append(("query", step % n_hot))
    return ops


@dataclass
class UpdatePoint:
    """Measured update+query throughput at one fragment count."""

    n_fragments: int
    n_ops: int
    n_mutations: int
    maintained_seconds: float
    invalidate_seconds: float
    #: answers identical between the two modes (a dedicated oracle pass
    #: additionally *raises* if the maintained session ever disagrees with
    #: from-scratch simulation after a mutation, when enabled)
    parity: bool
    cache_repaired: int
    cache_kept: int
    cache_evicted: int
    invalidations: int  # of the maintained session; must stay 0

    @property
    def maintained_ops(self) -> float:
        return self.n_ops / self.maintained_seconds if self.maintained_seconds else 0.0

    @property
    def invalidate_ops(self) -> float:
        return self.n_ops / self.invalidate_seconds if self.invalidate_seconds else 0.0

    @property
    def speedup(self) -> float:
        """Drop-everything wall time over maintained wall time."""
        return (
            self.invalidate_seconds / self.maintained_seconds
            if self.maintained_seconds
            else 0.0
        )


@dataclass
class UpdateSeries:
    """The sweep over fragment counts for the mutating-stream experiment."""

    points: List[UpdatePoint] = field(default_factory=list)

    def render(self) -> str:
        header = (
            f"{'|F|':>5} {'ops':>5} {'muts':>5} {'drop-all ops/s':>15} "
            f"{'maintained ops/s':>17} {'speedup':>8} {'repaired':>9} "
            f"{'kept':>6} {'evicted':>8} {'parity':>7}"
        )
        lines = [header, "-" * len(header)]
        for p in self.points:
            lines.append(
                f"{p.n_fragments:>5} {p.n_ops:>5} {p.n_mutations:>5} "
                f"{p.invalidate_ops:>15.1f} {p.maintained_ops:>17.1f} "
                f"{p.speedup:>7.2f}x {p.cache_repaired:>9} {p.cache_kept:>6} "
                f"{p.cache_evicted:>8} {'ok' if p.parity else 'FAIL':>7}"
            )
        return "\n".join(lines)


def _replay_ops(session, queries, ops, oracle: bool):
    """Apply ``ops``; return (timed seconds, served relations).

    Only the op itself is timed.  With ``oracle`` set, every mutation is
    followed by an *untimed* from-scratch ``simulation`` check of every hot
    query against the session's current graph.
    """
    from repro.simulation import simulation

    elapsed = 0.0
    relations = []
    graph = session.fragmentation.graph
    gc.collect()  # the untimed warm-up's garbage is not the stream's to pay for
    for op in ops:
        t0 = time.perf_counter()
        if isinstance(op, MutationOp):
            session.apply_op(op)
        else:
            relations.append(session.run(queries[op[1]], algorithm="dgpm").relation)
        elapsed += time.perf_counter() - t0
        if oracle and isinstance(op, MutationOp):
            for q in queries:
                served = session.run(q, algorithm="dgpm").relation
                if served != simulation(q, graph):
                    raise AssertionError(f"parity violated after {op!r}")
    return elapsed, relations


def measure_update_point(
    make_fragmentation,
    ops: Sequence[object],
    queries: Sequence[Pattern],
    n_fragments: int,
    oracle: bool = True,
) -> UpdatePoint:
    """Replay one op stream in both maintenance modes and compare.

    ``make_fragmentation`` builds a *fresh* fragmentation (each mode mutates
    its own resident graph).  The untimed warm-up serves the hot queries
    twice, deletes and re-inserts one label-relevant edge per query (the
    first relevant write builds the warm state) and serves them again, so
    the maintained session starts warm -- a long-running server's steady state.

    With ``oracle`` set, a *third* (maintained) session replays the stream
    with from-scratch ``simulation`` checks after every mutation; keeping the
    oracle off the timed sessions means neither gets its cache pre-warmed by
    the checking itself.
    """
    def fresh_session(mode: str) -> SimulationSession:
        session = SimulationSession(make_fragmentation(), maintenance=mode).warm()
        graph = session.fragmentation.graph
        session.run_many([*queries, *queries], algorithm="dgpm")
        for q in queries:
            a, b = next(iter(q.edges()))
            u, v = next(
                (u, v) for u, v in graph.edges()
                if (graph.label(u), graph.label(v)) == (q.label(a), q.label(b))
            )
            session.apply([DeleteEdge(u, v), InsertEdge(u, v)])
        session.run_many(queries, algorithm="dgpm")
        return session

    maintained = fresh_session("incremental")
    stats = maintained.stats  # the counters below exclude the warm-up's share
    warmup = (stats.entries_repaired, stats.entries_kept, stats.entries_evicted)
    maintained_seconds, maintained_rel = _replay_ops(
        maintained, queries, ops, oracle=False
    )
    invalidate_seconds, invalidate_rel = _replay_ops(
        fresh_session("invalidate"), queries, ops, oracle=False
    )
    if oracle:
        # Raises AssertionError on the first divergence from the oracle.
        _replay_ops(fresh_session("incremental"), queries, ops, oracle=True)

    parity = maintained_rel == invalidate_rel and stats.invalidations == 0
    return UpdatePoint(
        n_fragments=n_fragments,
        n_ops=len(ops),
        n_mutations=sum(1 for op in ops if isinstance(op, MutationOp)),
        maintained_seconds=maintained_seconds,
        invalidate_seconds=invalidate_seconds,
        parity=parity,
        cache_repaired=stats.entries_repaired - warmup[0],
        cache_kept=stats.entries_kept - warmup[1],
        cache_evicted=stats.entries_evicted - warmup[2],
        invalidations=stats.invalidations,
    )


def update_stream_series(
    fragment_counts: Sequence[int] = (4, 8),
    n_nodes: int = 2000,
    n_edges: int = 10000,
    n_rounds: int = 30,
    n_hot: int = 3,
    seed: int = 13,
    oracle: bool = True,
) -> UpdateSeries:
    """Sweep update+query ops/sec over fragment counts on one web graph."""
    from repro import partition

    series = UpdateSeries()
    for n_fragments in fragment_counts:
        graph = web_graph(n_nodes, n_edges, seed=seed)
        queries = [
            cyclic_pattern(graph, n_nodes=3, n_edges=4, seed=seed + s)
            for s in range(n_hot)
        ]
        ops = mixed_update_stream(
            graph, n_rounds=n_rounds, n_hot=n_hot, seed=seed, queries=queries
        )

        def make_fragmentation():
            fresh = web_graph(n_nodes, n_edges, seed=seed)
            return partition(fresh, n_fragments=n_fragments, seed=seed, vf_ratio=0.25)

        series.points.append(
            measure_update_point(
                make_fragmentation, ops, queries, n_fragments, oracle=oracle
            )
        )
    return series
