"""Benchmark harness: workloads, sweeps, and the paper's experiment suite.

* :mod:`~repro.bench.workloads` -- query generators that sample patterns
  *from the data graph* with match-preserving growth operations, mirroring
  the paper's workloads ("20 cyclic patterns with conditions ...", DAG query
  sets ``Q1..Q8`` with diameter ``d = i + 1``);
* :mod:`~repro.bench.harness` -- sweep runner producing one series per pair
  of panels (one point per x-value; per algorithm and query the exact rounds
  / messages / DS counters, PT beside them) and the record comparison;
* :mod:`~repro.bench.figures` -- the sixteen Figure-6 panels plus Table 1,
  Figure 5 and the Theorem-1 families, each as a parameterized experiment;
* :mod:`~repro.bench.cli` -- ``python -m repro.bench 6ab`` /
  ``--all --check BENCH_PAPER.json``, the one way those experiments run;
* :mod:`~repro.bench.smoke` -- the writer behind every ``BENCH_*.json``;
* :mod:`~repro.bench.engines` -- array engine vs dict engine throughput (not
  a paper figure; behind ``benchmarks/bench_engines.py``).
"""

from repro.bench.workloads import cyclic_pattern, dag_pattern, tree_pattern
from repro.bench.harness import ExperimentSeries, SweepPoint, drift, run_sweep

__all__ = [
    "cyclic_pattern",
    "dag_pattern",
    "tree_pattern",
    "ExperimentSeries",
    "SweepPoint",
    "drift",
    "run_sweep",
]
