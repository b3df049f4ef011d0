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
* :class:`~repro.core.incremental.IncrementalMatchState` -- a warm
  evaluation maintaining ``Q(G)`` under graph updates (Section 4.2 / [13])
  over caller-owned structures; a :class:`~repro.session.SimulationSession`
  keeps one per hot query.
"""

from repro.core.config import DgpmConfig
from repro.core.dgpm import run_dgpm
from repro.core.dgpmd import run_dgpmd
from repro.core.dgpmt import run_dgpmt
from repro.core.dispatch import run_auto
from repro.core.incremental import IncrementalMatchState, RepairCost

__all__ = [
    "DgpmConfig",
    "run_dgpm",
    "run_dgpmd",
    "run_dgpmt",
    "run_auto",
    "IncrementalMatchState",
    "RepairCost",
]
