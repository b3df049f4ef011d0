"""Algorithm dGPMd: rank-scheduled simulation for DAG queries (Section 5.1).

When ``Q`` is a DAG, ``X(u, v)`` depends only on variables of strictly
smaller topological rank ``r(u')``, so every variable can be decided
*exactly* in ascending rank order -- no fixpoint iteration, no retraction.
The schedule:

* round ``r``: every site decides all its variables of rank ``r``; the
  falsified in-node variables of that rank are shipped **in one batch per
  watcher site** (the paper's Example 10: 6 batched messages on Figure 5,
  versus 12 single-variable messages under dGPM);
* by the time rank ``r + 1`` is evaluated, the falsifications of every rank
  ``<= r`` virtual variable have arrived, so the evaluation is exact.

At most ``d`` message rounds (``d`` = query diameter >= max rank), hence the
Theorem-3 bound ``O(d(|Vq|+|Vm|)(|Eq|+|Em|) + |Q||F|)`` and, for fixed
``|F|``, parallel scalability in response time.

When ``G`` is a DAG instead: a cyclic ``Q`` can never match a DAG (every
query node on a cycle would need an infinite path), so the coordinator
answers ``empty`` outright; a DAG ``Q`` goes through the schedule above.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Set

from repro.core.config import DgpmConfig
from repro.core.depgraph import DependencyGraphs
from repro.core.protocol import AlgorithmSpec, per_site
from repro.core.state import VarKey
from repro.errors import PatternError
from repro.graph import algorithms
from repro.graph.digraph import Node
from repro.graph.pattern import Pattern
from repro.partition.fragmentation import Fragmentation
from repro.runtime.engine import TickResult
from repro.runtime.messages import COORDINATOR, Message, MessageKind
from repro.runtime.metrics import RunMetrics, RunResult
from repro.simulation.matchrel import MatchRelation


class DgpmdSiteProgram:
    """Per-site half of dGPMd: exact per-rank evaluation, batched shipping.

    With a ``compiled`` CSR cache the per-rank schedule runs on an
    :class:`~repro.core.arraystate.ArrayRankState` (the array engine's
    vectorized backend); when None the exact evaluation runs over
    dict-of-sets state.
    """

    def __init__(
        self,
        fid: int,
        fragmentation: Fragmentation,
        query: Pattern,
        deps: DependencyGraphs,
        config: DgpmConfig,
        compiled=None,
    ) -> None:
        self.fid = fid
        self.fragment = fragmentation[fid]
        self.query = query
        self.deps = deps
        self.cost = config.cost
        self.config = config
        self.rank_groups = query.nodes_by_rank()
        self.max_rank = len(self.rank_groups) - 1
        self.rank_state = None
        if compiled is not None:
            from repro.core.arraystate import ArrayRankState  # lazy, as in dgpm

            self.rank_state = ArrayRankState(compiled.get(fid), query, compiled.interner)
        #: exact matches per query node, filled rank by rank (local nodes)
        self.sim: Dict[Node, Set[Node]] = {}
        #: virtual variables reported false by their owners
        self.virtual_false: Set[VarKey] = set()
        self.current_rank = 0

    # ------------------------------------------------------------------
    def _evaluate_rank(self, rank: int) -> List[VarKey]:
        """Decide every rank-``rank`` variable exactly; return falsified in-node vars."""
        if self.rank_state is not None:
            return self.rank_state.evaluate_nodes(
                self.rank_groups[rank], lambda u: bool(self.query.parents(u))
            )
        graph = self.fragment.graph
        local = self.fragment.local_nodes
        in_nodes = self.fragment.in_nodes
        falsified: List[VarKey] = []
        for u in self.rank_groups[rank]:
            want = self.query.label(u)
            matches: Set[Node] = set()
            for v in local:
                if graph.label(v) != want:
                    continue
                ok = True
                for u_child in self.query.children(u):
                    # Children have strictly smaller rank: local values are
                    # final, virtual values are final-by-absence-of-message.
                    hit = False
                    child_local = self.sim[u_child]
                    for succ in graph.successors(v):
                        if succ in local:
                            if succ in child_local:
                                hit = True
                                break
                        else:
                            if (
                                graph.label(succ) == self.query.label(u_child)
                                and (u_child, succ) not in self.virtual_false
                            ):
                                hit = True
                                break
                    if not hit:
                        ok = False
                        break
                if ok:
                    matches.add(v)
                elif v in in_nodes and self.query.parents(u):
                    # Only variables referenced by some parent equation are
                    # worth shipping; top-rank nodes have no parents, which
                    # is why "no data needs to be shipped when r = d".
                    falsified.append((u, v))
            self.sim[u] = matches
        return falsified

    def _batch_messages(self, falsified: List[VarKey]) -> List[Message]:
        """One VAR_UPDATE batch per watcher site (the Example-10 merge)."""
        per_site: Dict[int, List[VarKey]] = {}
        for u, v in falsified:
            for peer in self.deps.watcher_sites(self.fid, v):
                per_site.setdefault(peer, []).append((u, v))
        return [
            Message(
                src=self.fid,
                dst=peer,
                kind=MessageKind.VAR_UPDATE,
                payload=entries,
                size_bytes=self.cost.var_batch_bytes(len(entries)),
            )
            for peer, entries in sorted(per_site.items())
        ]

    # ------------------------------------------------------------------
    def on_start(self) -> TickResult:
        falsified = self._evaluate_rank(0)
        self.current_rank = 1
        return TickResult(
            messages=self._batch_messages(falsified),
            halted=self.current_rank > self.max_rank,
        )

    def on_tick(self, round_no: int, inbox: List[Message]) -> TickResult:
        for message in inbox:
            if message.kind == MessageKind.VAR_UPDATE:
                self.virtual_false.update(message.payload)
                if self.rank_state is not None:
                    self.rank_state.mark_virtual_false(message.payload)
        if self.current_rank > self.max_rank:
            return TickResult(messages=[], halted=True)
        falsified = self._evaluate_rank(self.current_rank)
        self.current_rank += 1
        done = self.current_rank > self.max_rank
        # Falsifications of the final rank never unblock anyone downstream
        # ("no data needs to be shipped when r = d"), but watchers may still
        # exist if a crossing edge targets a max-rank candidate; ship only
        # when someone is actually waiting.
        return TickResult(messages=self._batch_messages(falsified), halted=done)

    def collect(self) -> Message:
        if self.rank_state is not None:
            matches = self.rank_state.matches()
        else:
            matches = {u: set(vs) for u, vs in self.sim.items()}
        if self.config.boolean_only:
            payload = {u: bool(vs) for u, vs in matches.items()}
            size = self.cost.var_batch_bytes(len(payload))
        else:
            payload = matches
            size = self.cost.var_batch_bytes(sum(len(vs) for vs in matches.values()))
        return Message(
            src=self.fid,
            dst=COORDINATOR,
            kind=MessageKind.RESULT,
            payload=payload,
            size_bytes=size,
        )


def dgpmd_applies(query: Pattern, fragmentation: Fragmentation) -> bool:
    """Theorem 3's precondition: a DAG query or a DAG data graph."""
    return query.is_dag() or algorithms.is_dag(fragmentation.graph)


def dgpmd_precheck(
    query: Pattern, fragmentation: Fragmentation, algorithm: str = "dGPMd"
) -> Optional[RunResult]:
    """Entry check of every dGPMd run, in-process or sharded.

    ``None`` to run the rank schedule; the finished (empty) result when a
    cyclic query meets a DAG data graph and so cannot match; raises
    :class:`~repro.errors.PatternError` when neither ``Q`` nor ``G`` is a DAG.
    """
    start = time.perf_counter()
    if not dgpmd_applies(query, fragmentation):
        raise PatternError("dGPMd requires a DAG query or a DAG data graph")
    if query.is_dag():
        return None
    wall = time.perf_counter() - start
    metrics = RunMetrics(
        algorithm=algorithm,
        pt_seconds=wall,
        wall_seconds=wall,
        ds_bytes=0,
        n_messages=0,
        n_rounds=0,
        extras={"short_circuit": 1.0},
    )
    return RunResult(relation=MatchRelation(query.nodes(), {}), metrics=metrics)


#: dGPMd's entry in the served registry, :data:`repro.core.dispatch.ALGORITHMS`.
DGPMD = AlgorithmSpec(
    name="dgpmd",
    display_name="dGPMd",
    build_programs=per_site(DgpmdSiteProgram),
    precheck=dgpmd_precheck,
)


def run_dgpmd(
    query: Pattern,
    fragmentation: Fragmentation,
    config: Optional[DgpmConfig] = None,
) -> RunResult:
    """Evaluate a DAG query (or any query on a DAG graph) with dGPMd.

    Raises :class:`~repro.errors.PatternError` when neither ``Q`` nor ``G``
    is a DAG -- use :func:`~repro.core.dgpm.run_dgpm` there instead.

    One-shot convenience over :class:`~repro.session.SimulationSession`.
    """
    from repro.session import SimulationSession

    return SimulationSession(fragmentation, config=config).run(query, algorithm="dgpmd")
