"""Dict engine vs array engine: single-thread q/s on the mixed query stream.

The array engine (``engine="array"``, :mod:`repro.core.arraystate`) exists
for one reason: per-query evaluation cost.  This module measures exactly
that -- the same resident fragmentation serves the same |F|=16 mixed query
stream through two sessions, one per engine, and we report queries/sec and
the speedup.  Every answer is parity-checked between the engines first;
throughput that changes answers would be worthless.

Measurement protocol (deliberate choices, in order of importance):

* **Push disabled** (``DgpmConfig(enable_push=False)``).  The Section-4.2
  push optimization is symbolic-equation machinery whose cost is identical
  under both engines and dominates when enabled, so it would dilute the
  engine comparison; it is also a communication-rounds optimization that is
  a uniform net loss in the in-process harness.  Comparing both engines
  under the same no-push config isolates what this benchmark is about: the
  evaluation engine.
* **Result cache off** (``cache_size=0``).  A cache hit costs the same under
  either engine; we are metering evaluation, not caching.
* **CPU time, not wall time** (``time.process_time``).  Wall clock on shared
  runners includes hypervisor steal; CPU time is what the engine actually
  consumed.
* **Best-of-``repeat`` per query.**  Transient interference (page cache,
  frequency scaling) inflates individual runs; the per-query minimum is the
  stable estimate of the engine's cost.
* **Collector paused during timed sections.**  The cyclic GC triggers on
  allocation counts, so *when* it fires inside a stream is history-dependent
  noise.  Pausing it is conservative toward the dict engine, which
  otherwise pays heavy collector time for its per-pair object churn.

The headline gate (enforced by ``benchmarks/bench_engines.py --smoke`` in
CI) lives at the large end of the series: the columnar engine's advantage
grows with fragment size, because numpy per-call overhead amortizes over
wider rows.  At web-graph scale (96k nodes, 480k edges, |F|=16) the array
engine must clear **5x** the dict engine's q/s.  The small end (1k nodes,
some 120 rows a fragment) is on record too: dGPM evaluates a host's
fragments as one array program, so that overhead is paid per round, not per
site, and the array engine does not lose there either.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.bench.workloads import cyclic_pattern
from repro.core.config import DgpmConfig
from repro.graph.digraph import DiGraph
from repro.graph.generators import web_graph
from repro.graph.pattern import Pattern
from repro.partition.fragmentation import Fragmentation
from repro.session import SimulationSession

#: the series behind BENCH_ENGINES.json: advantage as a function of scale,
#: from some 120 rows a fragment up to the CI gate's size
DEFAULT_SIZES: Tuple[Tuple[int, int], ...] = (
    (1000, 5000),
    (12000, 60000),
    (48000, 240000),
    (96000, 480000),
)

#: the CI gate workload (the large end of the series) and its floor
GATE_NODES = 96000
GATE_EDGES = 480000
GATE_SPEEDUP = 5.0


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
class EnginePoint:
    """Both engines' throughput on one workload."""

    n_nodes: int
    n_edges: int
    n_fragments: int
    n_queries: int
    dict_qps: float
    array_qps: float
    parity: bool
    #: one-time cost of compiling every fragment to CSR, host snapshot
    #: included (amortized over the session's lifetime; reported so the
    #: trade is visible)
    compile_seconds: float
    compilations: int

    @property
    def speedup(self) -> float:
        return self.array_qps / self.dict_qps if self.dict_qps else 0.0


@dataclass
class EngineSeries:
    """The sweep over graph sizes."""

    points: List[EnginePoint] = field(default_factory=list)

    def render(self) -> str:
        header = (
            f"{'nodes':>8} {'edges':>8} {'|F|':>4} {'queries':>8} "
            f"{'dict q/s':>9} {'array q/s':>10} {'speedup':>8} "
            f"{'compile s':>10} {'parity':>7}"
        )
        lines = [header, "-" * len(header)]
        for p in self.points:
            lines.append(
                f"{p.n_nodes:>8} {p.n_edges:>8} {p.n_fragments:>4} "
                f"{p.n_queries:>8} {p.dict_qps:>9.2f} {p.array_qps:>10.2f} "
                f"{p.speedup:>7.2f}x {p.compile_seconds:>10.3f} "
                f"{'ok' if p.parity else 'FAIL':>7}"
            )
        return "\n".join(lines)


def _stream_qps(session: SimulationSession, queries: Sequence, repeat: int) -> float:
    """Best-of-``repeat`` CPU seconds per query, folded into queries/sec."""
    best = [float("inf")] * len(queries)
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeat):
            for i, query in enumerate(queries):
                t0 = time.process_time()
                session.run(query, algorithm="dgpm")
                best[i] = min(best[i], time.process_time() - t0)
    finally:
        if gc_was_enabled:
            gc.enable()
    return len(queries) / sum(best)


def measure_engine_point(
    fragmentation: Fragmentation,
    queries: Sequence,
    n_nodes: int,
    n_edges: int,
    repeat: int = 3,
    config: Optional[DgpmConfig] = None,
) -> EnginePoint:
    """Serve ``queries`` through one session per engine; meter and compare."""
    config = config or DgpmConfig(enable_push=False)
    sessions = {}
    answers = {}
    compile_seconds = 0.0
    compilations = 0
    for engine in ("dict", "array"):
        session = SimulationSession(
            fragmentation, config=config, cache_size=0, engine=engine
        )
        if engine == "array":
            # not compile cost: the watcher tables (the dict engine needs
            # them too) and importing numpy (once a process, not a session)
            deps, compiled = session.deps, session.compiled_fragments()
            t0 = time.process_time()
            compiled.warm(deps)
            compile_seconds = time.process_time() - t0
            compilations = compiled.compilations
        session.warm()
        # Parity pass doubles as warmup (first-touch page faults, lazy
        # caches) so the timed loop measures steady-state serving.
        answers[engine] = [
            session.run(q, algorithm="dgpm").relation for q in queries
        ]
        sessions[engine] = session
    parity = all(a == b for a, b in zip(answers["dict"], answers["array"]))
    return EnginePoint(
        n_nodes=n_nodes,
        n_edges=n_edges,
        n_fragments=fragmentation.n_fragments,
        n_queries=len(queries),
        dict_qps=_stream_qps(sessions["dict"], queries, repeat),
        array_qps=_stream_qps(sessions["array"], queries, repeat),
        parity=parity,
        compile_seconds=compile_seconds,
        compilations=compilations,
    )


def engine_series(
    sizes: Sequence[Tuple[int, int]] = DEFAULT_SIZES,
    n_fragments: int = 16,
    n_distinct: int = 6,
    repeat: int = 3,
    q_nodes: int = 4,
    q_edges: int = 6,
    seed: int = 7,
    config: Optional[DgpmConfig] = None,
) -> EngineSeries:
    """Sweep both engines over web-graph sizes at fixed |F|."""
    from repro import partition

    series = EngineSeries()
    for n_nodes, n_edges in sizes:
        graph = web_graph(n_nodes, n_edges, seed=11)
        fragmentation = partition(
            graph, n_fragments=n_fragments, seed=3, vf_ratio=0.25
        )
        queries = mixed_query_stream(
            graph, n_distinct, 1, n_nodes=q_nodes, n_edges=q_edges, seed=seed
        )
        series.points.append(
            measure_engine_point(
                fragmentation,
                queries,
                n_nodes=n_nodes,
                n_edges=n_edges,
                repeat=repeat,
                config=config,
            )
        )
    return series
