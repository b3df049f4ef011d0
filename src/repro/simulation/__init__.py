"""Centralized graph-simulation engines.

Graph simulation (Henzinger, Henzinger & Kopke, FOCS'95) is the matching
semantics the paper builds on: ``Q(G)`` is the unique *maximum* relation
``R ⊆ Vq × V`` such that matched nodes agree on labels and every query edge
out of ``u`` is witnessed by a data edge out of each match of ``u``.

* :func:`~repro.simulation.hhk.simulation` -- the efficient counter-based
  refinement, ``O((|Vq|+|V|)(|Eq|+|E|))``; the library's workhorse.
* :func:`~repro.simulation.naive.naive_simulation` -- the textbook fixpoint,
  used as an oracle in tests.
* :func:`~repro.simulation.dagsim.dag_simulation` -- rank-layered evaluation
  for DAG queries; one pass per rank, mirroring dGPMd's schedule.
* :class:`~repro.simulation.matchrel.MatchRelation` -- the result type shared
  by every engine (Boolean and data-selecting views, Section 2.1).
"""

from repro.simulation.matchrel import MatchRelation
from repro.simulation.hhk import simulation
from repro.simulation.naive import naive_simulation
from repro.simulation.dagsim import dag_simulation

__all__ = [
    "MatchRelation",
    "simulation",
    "naive_simulation",
    "dag_simulation",
]
