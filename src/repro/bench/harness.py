"""Sweep runner producing the data behind the paper's plots.

Each Figure-6 panel is a sweep: one x-axis (``|F|``, ``|Q|``, ``|Vf|``,
``d``, ``|G|``), several algorithms, two y-axes (PT seconds, DS KB).
:func:`run_sweep` executes the cross product, verifies every distributed
answer against the centralized oracle (a reproduction that silently returns
wrong matches is worthless), and returns an :class:`ExperimentSeries` whose
``dataclasses.asdict`` is the entry ``BENCH_PAPER.json`` holds for it.

Rounds, messages and DS (total and by message kind) are exact integers of
the protocol, recorded per query so two runs can be compared for equality
(:func:`drift`); PT and wall time sit beside them as informational floats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from reprlib import repr as repr_
from typing import Callable, Dict, List, Sequence, Tuple

from repro.errors import ReproError
from repro.graph.pattern import Pattern
from repro.partition.fragmentation import Fragmentation
from repro.runtime.metrics import RunResult
from repro.simulation import simulation

#: An algorithm entry: display name -> runner(query, fragmentation) -> RunResult.
Runner = Callable[[Pattern, Fragmentation], RunResult]

#: per-run keys that depend on the clock; :func:`drift` skips them
INFORMATIONAL = frozenset({"pt_seconds", "wall_seconds"})


@dataclass
class SweepPoint:
    """Every algorithm's per-query counters at one x-value."""

    x: object
    #: ``|V|``, ``|E|``, ``|F|``, ``|Ef|``, ``|Vf|`` and ``|Fm|`` of the instance
    instance: Dict[str, int] = field(default_factory=dict)
    #: ``|Vq|``, ``|Eq|`` and ``d`` of each query
    queries: List[Dict[str, int]] = field(default_factory=list)
    #: algorithm -> one entry per query: ``rounds``, ``messages``,
    #: ``ds_bytes``, ``ds_breakdown`` by kind, and the INFORMATIONAL floats
    algorithms: Dict[str, List[Dict[str, object]]] = field(default_factory=dict)


@dataclass
class ExperimentSeries:
    """A full sweep: the data behind one PT panel and one DS panel."""

    name: str
    x_label: str
    points: List[SweepPoint] = field(default_factory=list)


def run_sweep(
    name: str,
    x_label: str,
    instances: Sequence[Tuple[object, List[Pattern], Fragmentation]],
    algorithms: Dict[str, Runner],
    verify: bool = True,
) -> ExperimentSeries:
    """Execute a sweep.

    ``instances`` yields ``(x_value, queries, fragmentation)`` triples; each
    algorithm runs every query at every x-value once (the paper averages over
    20 patterns; the figures use fewer for laptop runtimes).  With
    ``verify=True`` every answer is checked against the centralized oracle.
    """
    series = ExperimentSeries(name=name, x_label=x_label)
    for x, queries, fragmentation in instances:
        graph = fragmentation.graph
        point = SweepPoint(
            x=x,
            instance={
                "n_nodes": graph.n_nodes,
                "n_edges": graph.n_edges,
                "n_fragments": fragmentation.n_fragments,
                "crossing_edges": fragmentation.n_crossing_edges,
                "boundary_nodes": fragmentation.n_virtual_nodes,
                "largest_fragment": fragmentation.largest_fragment.size,
            },
            queries=[
                {"n_nodes": q.n_nodes, "n_edges": q.n_edges, "diameter": q.diameter()}
                for q in queries
            ],
        )
        oracles = [simulation(q, graph) for q in queries] if verify else None
        for alg_name, runner in algorithms.items():
            runs = point.algorithms[alg_name] = []
            for qi, query in enumerate(queries):
                result = runner(query, fragmentation)
                if verify and result.relation != oracles[qi]:
                    raise ReproError(
                        f"{alg_name} returned a wrong answer at {x_label}={x!r} (query {qi})"
                    )
                m = result.metrics
                runs.append(
                    {
                        "rounds": m.n_rounds,
                        "messages": m.n_messages,
                        "ds_bytes": m.ds_bytes,
                        "ds_breakdown": dict(m.ds_breakdown),
                        "pt_seconds": m.pt_seconds,
                        "wall_seconds": m.wall_seconds,
                    }
                )
        series.points.append(point)
    return series


def drift(committed: object, measured: object, path: str = "") -> List[str]:
    """Where two JSON-shaped records disagree, INFORMATIONAL keys aside.

    One line per differing leaf (or missing key / length mismatch), so an
    empty list is equality on everything that is exactly reproducible.
    """
    if isinstance(committed, dict) and isinstance(measured, dict):
        keys = sorted((committed.keys() | measured.keys()) - INFORMATIONAL, key=str)
        return [
            line
            for key in keys
            for line in drift(
                committed.get(key, "<absent>"), measured.get(key, "<absent>"), f"{path}/{key}"
            )
        ]
    if isinstance(committed, list) and isinstance(measured, list):
        if len(committed) != len(measured):
            return [f"{path}: committed {len(committed)} entries, measured {len(measured)}"]
        return [
            line
            for i, pair in enumerate(zip(committed, measured))
            for line in drift(*pair, f"{path}[{i}]")
        ]
    if committed != measured:
        return [f"{path}: committed {repr_(committed)}, measured {repr_(measured)}"]
    return []
