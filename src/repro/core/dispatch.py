"""Algorithm selection: pick the strongest applicable guarantee.

The paper's hierarchy (Sections 4-5): trees admit parallel-scalable data
shipment (dGPMt); DAG queries/graphs admit rank scheduling (dGPMd); general
graphs get the partition-bounded dGPM.  :func:`run_auto` applies the first
algorithm whose precondition holds.  :data:`ALGORITHMS` is those three specs
by name -- exactly what a session serves.

The preconditions are the predicates the executors' own entry checks use
(``dgpmt_applies``, ``dgpmd_applies``) and read maintained facts -- the shape
index of :class:`~repro.graph.digraph.DiGraph`, the fragmentation's
connected-fragments memo -- so choosing is O(1) per request, whatever ``|G|``.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.config import DgpmConfig
from repro.core.dgpm import DGPM
from repro.core.dgpmd import DGPMD, dgpmd_applies
from repro.core.dgpmt import DGPMT, dgpmt_applies
from repro.core.protocol import AlgorithmSpec
from repro.graph.pattern import Pattern
from repro.partition.fragmentation import Fragmentation
from repro.runtime.metrics import RunResult

#: every algorithm a session serves, by name: the paper's three
ALGORITHMS: Dict[str, AlgorithmSpec] = {s.name: s for s in (DGPM, DGPMD, DGPMT)}


def choose_algorithm(query: Pattern, fragmentation: Fragmentation) -> str:
    """Name of the algorithm :func:`run_auto` would use."""
    if dgpmt_applies(fragmentation):
        return "dGPMt"
    if dgpmd_applies(query, fragmentation):
        return "dGPMd"
    return "dGPM"


def choose_algorithm_if_decided(query: Pattern, fragmentation: Fragmentation) -> Optional[str]:
    """:func:`choose_algorithm`'s answer when every fact it would read is
    already decided, else None; never scans the data graph.

    A maintained fact can be left undecided by a mutation (acyclicity after
    an insert into a DAG or a delete on the remembered cycle, the
    connected-fragments memo after any mutation); :func:`choose_algorithm`
    settles exactly the ones this returns None for, with an ``O(|G|)`` scan.
    Mirrors its short-circuits: a fact it would not read is not required.
    """
    tree, acyclic = fragmentation.graph.shape_if_known()
    if tree is None:
        return None
    if tree:
        connected = fragmentation.connected_fragments_if_known()
        if connected is None:
            return None
        if connected:
            return "dGPMt"
    if query.is_dag():
        return "dGPMd"
    if acyclic is None:
        return None
    return "dGPMd" if acyclic else "dGPM"


def run_auto(
    query: Pattern,
    fragmentation: Fragmentation,
    config: Optional[DgpmConfig] = None,
) -> RunResult:
    """Evaluate ``query`` with the best algorithm for the instance's shape.

    One-shot convenience over :class:`~repro.session.SimulationSession`,
    whose ``algorithm="auto"`` resolves through :func:`choose_algorithm`.
    """
    from repro.session import SimulationSession

    return SimulationSession(fragmentation, config=config).run(query)
