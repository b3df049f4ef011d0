"""One spec per superstep algorithm, one protocol skeleton for all of them.

dGPM, dGPMd, dGPMt and the dMes baseline differ in what a site does with its
inbox; everything around that is the same three phases -- the coordinator
broadcasts ``Q``, the sites step in rounds until quiescence, the coordinator
collects and unions the local matches.  An :class:`AlgorithmSpec` names the
differences (how to build one site's program, an optional coordinator inbox
handler and entry check, what to report beside DS and PT) and
:func:`run_protocol` is the skeleton, the only place those phases are spelled.
Both deployments of a served algorithm (dGPM, dGPMd, dGPMt) call it:
in-process evaluation with every site on one
:class:`~repro.runtime.engine.LocalHost`, the sharded backend with its
worker handles as the hosts -- so a run is metered by the same code wherever
its sites live.  The dMes baseline is never served: its one-shot
:func:`~repro.baselines.dmes.run_dmes` calls it in-process.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.core.arraycompile import CompiledFragmentation, validate_engine
from repro.core.config import DgpmConfig
from repro.core.depgraph import DependencyGraphs
from repro.graph.digraph import Node
from repro.graph.pattern import Pattern
from repro.partition.fragmentation import Fragmentation
from repro.runtime.engine import Host, LocalHost, SiteProgram, SyncEngine
from repro.runtime.messages import Mail
from repro.runtime.metrics import RunResult
from repro.runtime.network import Network
from repro.simulation.matchrel import MatchRelation


@dataclass(frozen=True)
class AlgorithmSpec:
    """What distinguishes one superstep algorithm from the others."""

    #: lowercase name (a served spec's is what ``SimulationSession.run`` accepts)
    name: str
    #: ``RunMetrics.algorithm`` of an in-process run
    display_name: str
    #: ``(fids, fragmentation, query, deps, config, compiled) -> {fid:
    #: SiteProgram}``, the programs of one host's sites (:func:`per_site`
    #: wraps a one-site constructor; a program may stand for several sites).
    #: ``fragmentation`` may be a worker's ``FragmentShard``, ``compiled`` is
    #: the compiled-CSR cache under ``engine="array"`` and None under
    #: ``"dict"`` -- which evaluation state a site gets is decided here
    build_programs: Callable[..., Dict[int, SiteProgram]]
    #: ``(fragmentation, query, cost) -> coordinator inbox handler``
    make_coordinator: Optional[Callable] = None
    #: ``(query, fragmentation, display name)``: raises if the algorithm does
    #: not apply, returns a finished result to short-circuit, else None
    precheck: Optional[Callable[..., Optional[RunResult]]] = None
    #: ``RunMetrics.extras`` key -> (read one site program's value, fold the
    #: sites' values)
    extras: Mapping[str, Tuple[Callable, Callable]] = field(default_factory=dict)
    #: display name under a config with every optimization off, if it has one
    unoptimized_name: Optional[str] = None
    #: the fixpoint does not depend on delivery order (Section 4.1), so
    #: ``config.scramble`` may reorder it; the others need lockstep rounds
    schedule_independent: bool = False


def per_site(build: Callable[..., SiteProgram]) -> Callable[..., Dict[int, SiteProgram]]:
    """``build_programs`` of an algorithm with one program per site, from
    ``build(fid, fragmentation, query, deps, config, compiled)``."""
    return lambda fids, *run: {fid: build(fid, *run) for fid in fids}


def assemble_result(query: Pattern, results: List[Mail]) -> MatchRelation:
    """Coordinator phase 3: union the local matches of every RESULT row;
    empty if a query node is bare."""
    merged: Dict[Node, Set[Node]] = {u: set() for u in query.nodes()}
    for mail in results:
        for src, payload in zip(mail.srcs, mail.payloads):
            for u, vs in payload.items():
                if isinstance(vs, bool):  # boolean_only collection
                    if vs:
                        merged[u].add(("__some__", src, u))
                else:
                    merged[u] |= vs
    return MatchRelation(query.nodes(), merged)


def _network(spec: AlgorithmSpec, config: DgpmConfig) -> Network:
    scramble = config.scramble if spec.schedule_independent else None
    return Network(config.cost, scramble=scramble)


def local_host(
    spec: AlgorithmSpec,
    fids: Iterable[int],
    fragmentation,
    query: Pattern,
    deps: DependencyGraphs,
    config: DgpmConfig,
    compiled=None,
) -> LocalHost:
    """The sites ``fids`` of one run as a host in this process."""
    return LocalHost(
        spec.build_programs(list(fids), fragmentation, query, deps, config, compiled),
        _network(spec, config),
        {key: read for key, (read, _) in spec.extras.items()},
    )


def run_protocol(
    spec: AlgorithmSpec,
    query: Pattern,
    fragmentation: Fragmentation,
    config: Optional[DgpmConfig] = None,
    engine: str = "dict",
    deps: Optional[Callable[[], DependencyGraphs]] = None,
    compiled: Optional[Callable[[], CompiledFragmentation]] = None,
    placement: Optional[Mapping[int, Host]] = None,
) -> RunResult:
    """One evaluation of ``query`` by ``spec``'s algorithm.

    ``deps`` and ``compiled`` provide a session's resident watcher tables
    and compiled-CSR cache; they are called only once the precheck has
    passed (and ``compiled`` only under ``engine="array"``), and throwaway
    structures are built when omitted.  ``placement`` maps every fragment
    id to the host its site runs on: None puts all of them on one
    :class:`LocalHost` here; the sharded backend passes its worker handles,
    and the run is then labelled ``<name>/sharded`` and reports
    ``sharded_workers`` and ``colocated_ds_bytes``.
    """
    config = config or DgpmConfig()
    cost = config.cost
    start = time.perf_counter()
    label = spec.display_name
    if spec.unoptimized_name and not (config.incremental or config.enable_push):
        label = spec.unoptimized_name
    sharded = placement is not None
    if sharded:
        label += "/sharded"
    if spec.precheck is not None:
        short_circuit = spec.precheck(query, fragmentation, label)
        if short_circuit is not None:
            return short_circuit
    if placement is None:
        if validate_engine(engine) == "dict":
            compiled_cache = None
        else:
            compiled_cache = compiled() if compiled else CompiledFragmentation(fragmentation)
        host = local_host(
            spec,
            [frag.fid for frag in fragmentation],
            fragmentation,
            query,
            deps() if deps else DependencyGraphs(fragmentation),
            config,
            compiled_cache,
        )
        placement = dict.fromkeys(host.programs, host)

    network = _network(spec, config)
    network.broadcast_query(placement, query)
    coordinator = (
        spec.make_coordinator(fragmentation, query, cost)
        if spec.make_coordinator is not None
        else None
    )
    sync = SyncEngine(placement, network, cost, coordinator)
    sync.run_fixpoint((spec.name, query, config))
    results = sync.collect_results()
    network.deliver()

    assemble_start = time.perf_counter()
    relation = assemble_result(query, results)
    assemble_time = time.perf_counter() - assemble_start

    extras = {key: fold(sync.site_extras[key]) for key, (_, fold) in spec.extras.items()}
    if sharded:
        extras["sharded_workers"] = float(len(sync.hosts))
        extras["colocated_ds_bytes"] = float(sync.colocated_ds_bytes)
    metrics = sync.metrics(
        label,
        wall_seconds=time.perf_counter() - start,
        extra_compute=assemble_time,
        **extras,
    )
    return RunResult(relation=relation, metrics=metrics)
