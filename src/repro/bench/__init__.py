"""Benchmark harness: workloads, sweeps, and the Figure-6 experiment suite.

* :mod:`~repro.bench.workloads` -- query generators that sample patterns
  *from the data graph* with match-preserving growth operations, mirroring
  the paper's workloads ("20 cyclic patterns with conditions ...", DAG query
  sets ``Q1..Q8`` with diameter ``d = i + 1``);
* :mod:`~repro.bench.harness` -- sweep runner producing paper-style series
  (one row per x-value, one column per algorithm, PT and DS);
* :mod:`~repro.bench.figures` -- the sixteen Figure-6 panels plus Table 1 and
  the Theorem-1 audit, each as a parameterized experiment;
* :mod:`~repro.bench.stream` -- sustained query-stream throughput of the
  resident session layer vs one-shot runs (not a paper figure; the ROADMAP's
  serving scenario);
* :mod:`~repro.bench.cli` -- ``python -m repro.bench --figure 6a``.
"""

from repro.bench.workloads import cyclic_pattern, dag_pattern, tree_pattern
from repro.bench.harness import ExperimentSeries, SweepPoint, run_sweep
from repro.bench.stream import (
    StreamPoint,
    StreamSeries,
    mixed_query_stream,
    query_stream_series,
)

__all__ = [
    "cyclic_pattern",
    "dag_pattern",
    "tree_pattern",
    "ExperimentSeries",
    "SweepPoint",
    "run_sweep",
    "StreamPoint",
    "StreamSeries",
    "mixed_query_stream",
    "query_stream_series",
]
