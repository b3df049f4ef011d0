"""The paper's contribution: distributed graph-simulation algorithms.

* :func:`~repro.core.dgpm.run_dgpm` -- the partition-bounded algorithm dGPM
  (Section 4, Theorem 2), with the two Section-4.2 optimizations (incremental
  local evaluation and the tunable push operation) individually switchable;
  ``optimized=False`` yields the paper's dGPMNOpt ablation.
* :func:`~repro.core.dgpmd.run_dgpmd` -- the rank-scheduled algorithm for DAG
  queries/graphs (Section 5.1, Theorem 3).
* :func:`~repro.core.dgpmt.run_dgpmt` -- the two-round tree algorithm
  (Section 5.2, Corollary 4).
* :func:`~repro.core.dispatch.run_auto` -- picks the best applicable
  algorithm from the shapes of ``Q``, ``G`` and ``F``.
* :mod:`~repro.core.protocol` -- what the three (and the dMes baseline)
  share: one :class:`~repro.core.protocol.AlgorithmSpec` each, and the one
  :func:`~repro.core.protocol.run_protocol` skeleton that runs any of them
  in-process or over shard workers.
* :mod:`~repro.core.impossibility` -- the Theorem-1 gadget families and an
  auditor that demonstrates the impossibility empirically.
* :class:`~repro.core.incremental.IncrementalDgpmSession` -- long-lived
  evaluation maintaining ``Q(G)`` under edge updates (Section 4.2 / [13]);
  :class:`~repro.core.incremental.IncrementalMatchState` is the same
  machinery over shared session-owned structures (one per hot query of a
  :class:`~repro.session.SimulationSession`).
"""

from repro.core.config import DgpmConfig
from repro.core.dgpm import run_dgpm
from repro.core.dgpmd import run_dgpmd
from repro.core.dgpmt import run_dgpmt
from repro.core.dispatch import run_auto
from repro.core.incremental import (
    IncrementalDgpmSession,
    IncrementalMatchState,
    UpdateMetrics,
)

__all__ = [
    "DgpmConfig",
    "run_dgpm",
    "run_dgpmd",
    "run_dgpmt",
    "run_auto",
    "IncrementalDgpmSession",
    "IncrementalMatchState",
    "UpdateMetrics",
]
