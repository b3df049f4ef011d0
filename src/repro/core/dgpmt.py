"""Algorithm dGPMt: two-round simulation on distributed trees (Section 5.2).

Preconditions (Corollary 4): ``G`` is a rooted directed tree and every
fragment is a connected subtree.  Then each fragment has at most one in-node
(its subtree root) and its virtual nodes are exactly the roots of child
fragments, so the whole run needs **two** coordinator round-trips:

1. every site computes, bottom-up over its subtree, the Boolean vector of its
   root -- one equation per query node over the virtual (child-root)
   variables -- and ships that single vector to the coordinator;
2. the coordinator stitches the ``|F|`` vectors into one acyclic equation
   system, solves it bottom-up (``O(|Q||F|)``), and returns to each site the
   truth values of its virtual variables; sites finalize local matches.

Data shipment is ``O(|Q||F|)`` -- *parallel scalable* in data shipment, the
positive result the impossibility theorem leaves room for; with fixed ``|F|``
response time ``O(|Q||Fm| + |Q||F|)`` is parallel scalable too.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.boolean.expr import BoolExpr, FALSE, TRUE, Var, conj, disj
from repro.boolean.system import EquationSystem
from repro.core.config import DgpmConfig
from repro.core.protocol import AlgorithmSpec, per_site
from repro.core.state import VarKey
from repro.errors import FragmentationError, GraphError
from repro.graph import algorithms
from repro.graph.digraph import Node
from repro.graph.pattern import Pattern
from repro.partition.fragmentation import Fragmentation
from repro.runtime.engine import TickResult
from repro.runtime.messages import COORDINATOR, Message, MessageKind
from repro.runtime.metrics import RunResult


class DgpmtSiteProgram:
    """Per-site half of dGPMt: bottom-up symbolic evaluation of a subtree.

    With a ``compiled`` CSR cache the sweep runs on an
    :class:`~repro.core.arraystate.ArrayTreeState` (the array engine's
    vectorized bottom-up sweep); when None it builds dict-keyed symbolic
    expressions directly.
    """

    def __init__(
        self,
        fid: int,
        fragmentation: Fragmentation,
        query: Pattern,
        config: DgpmConfig,
        compiled=None,
    ) -> None:
        self.fid = fid
        self.fragment = fragmentation[fid]
        self.query = query
        self.cost = config.cost
        self.config = config
        self.tree_state = None
        if compiled is not None:
            from repro.core.arraystate import ArrayTreeState  # lazy, as in dgpm

            self.tree_state = ArrayTreeState(compiled.get(fid), query, compiled.interner)
        #: symbolic value of every local pair, filled bottom-up (dict path)
        self.exprs: Dict[VarKey, BoolExpr] = {}
        self._finalized: Dict[Node, Set[Node]] = {}

    # ------------------------------------------------------------------
    def _bottom_up(self) -> None:
        """Evaluate every local pair symbolically, leaves first.

        Virtual nodes (child-fragment roots) stay symbolic; the subtree
        structure guarantees each node is processed after all its children,
        so a single pass suffices (no fixpoint, no SCCs).
        """
        graph = self.fragment.graph
        local = self.fragment.local_nodes
        # Reverse-BFS order of the local subtree (children before parents).
        roots = [v for v in local if not any(p in local for p in graph.predecessors(v))]
        order: List[Node] = []
        stack = list(roots)
        seen: Set[Node] = set(roots)
        while stack:
            node = stack.pop()
            order.append(node)
            for child in graph.successors(node):
                if child in local and child not in seen:
                    seen.add(child)
                    stack.append(child)
        for v in reversed(order):
            v_label = graph.label(v)
            for u in self.query.nodes():
                if self.query.label(u) != v_label:
                    continue
                children = self.query.children(u)
                if not children:
                    self.exprs[(u, v)] = TRUE
                    continue
                terms: List[BoolExpr] = []
                for u_child in children:
                    want = self.query.label(u_child)
                    alts: List[BoolExpr] = []
                    for succ in graph.successors(v):
                        if graph.label(succ) != want:
                            continue
                        if succ in local:
                            alts.append(self.exprs.get((u_child, succ), FALSE))
                        else:
                            alts.append(Var((u_child, succ)))
                    terms.append(disj(alts) if alts else FALSE)
                self.exprs[(u, v)] = conj(terms)

    def _find_root(self) -> Node:
        """The unique local node with no local predecessor (subtree root)."""
        graph = self.fragment.graph
        local = self.fragment.local_nodes
        roots = [v for v in local if not any(p in local for p in graph.predecessors(v))]
        if len(roots) != 1:
            raise FragmentationError(
                f"fragment {self.fid} is not a connected subtree ({len(roots)} roots)"
            )
        return roots[0]

    def _root_vector(self) -> Dict[VarKey, BoolExpr]:
        """The Boolean vector of the fragment's subtree root."""
        root = self._find_root()
        if self.tree_state is not None:
            return self.tree_state.root_vector(root)
        graph = self.fragment.graph
        return {
            (u, root): self.exprs.get((u, root), FALSE)
            for u in self.query.nodes()
            if graph.label(root) == self.query.label(u)
        }

    # ------------------------------------------------------------------
    def on_start(self) -> TickResult:
        if self.tree_state is not None:
            self.tree_state.bottom_up()
        else:
            self._bottom_up()
        vector = self._root_vector()
        n_terms = sum(expr.n_terms for expr in vector.values()) or 1
        message = Message(
            src=self.fid,
            dst=COORDINATOR,
            kind=MessageKind.EQUATION,
            payload=(self.fid, vector),
            size_bytes=self.cost.message_header_bytes + self.cost.equation_bytes(n_terms),
        )
        return TickResult(messages=[message], halted=False)

    def on_tick(self, round_no: int, inbox: List[Message]) -> TickResult:
        values: Dict[VarKey, bool] = {}
        for message in inbox:
            if message.kind == MessageKind.VAR_VALUES:
                values.update(message.payload)
        if not values and not inbox:
            return TickResult(messages=[], halted=False)
        # Finalize: substitute the coordinator's verdicts on virtual roots.
        if self.tree_state is not None:
            self._finalized = self.tree_state.finalize(values)
            return TickResult(messages=[], halted=True)
        for (u, v), expr in self.exprs.items():
            self._finalized.setdefault(u, set())
            if expr.evaluate_partial(values) == TRUE or (
                expr.is_const() and expr.evaluate({})
            ):
                self._finalized[u].add(v)
        for u in self.query.nodes():
            self._finalized.setdefault(u, set())
        return TickResult(messages=[], halted=True)

    def collect(self) -> Message:
        payload = self._finalized
        size = self.cost.var_batch_bytes(sum(len(vs) for vs in payload.values()))
        return Message(
            src=self.fid, dst=COORDINATOR, kind=MessageKind.RESULT,
            payload=payload, size_bytes=size,
        )


class _TreeCoordinator:
    """Coordinator side: assemble the |F| root vectors, solve, reply."""

    def __init__(self, fragmentation: Fragmentation, query: Pattern, cost) -> None:
        self.fragmentation = fragmentation
        self.query = query
        self.cost = cost
        self.vectors: Dict[int, Dict[VarKey, BoolExpr]] = {}

    def __call__(self, messages: List[Message]) -> List[Message]:
        for message in messages:
            if message.kind == MessageKind.EQUATION:
                fid, vector = message.payload
                self.vectors[fid] = vector
        if len(self.vectors) < self.fragmentation.n_fragments:
            return []
        # All partial answers in: one acyclic system over root variables.
        equations: Dict[VarKey, BoolExpr] = {}
        for vector in self.vectors.values():
            equations.update(vector)
        system = EquationSystem(equations)
        externals = {name: False for name in system.external_parameters()}
        solved = system.solve_acyclic(externals)

        replies: List[Message] = []
        for frag in self.fragmentation:
            values: Dict[VarKey, bool] = {}
            for v in frag.virtual_nodes:
                for u in self.query.nodes():
                    if self.query.label(u) == frag.graph.label(v):
                        values[(u, v)] = solved.get((u, v), False)
            replies.append(
                Message(
                    src=COORDINATOR,
                    dst=frag.fid,
                    kind=MessageKind.VAR_VALUES,
                    payload=values,
                    size_bytes=self.cost.var_batch_bytes(len(values)),
                )
            )
        return replies


def dgpmt_applies(fragmentation: Fragmentation) -> bool:
    """Corollary 4's precondition: a rooted tree cut into connected fragments."""
    return algorithms.is_tree(fragmentation.graph) and fragmentation.has_connected_fragments()


def dgpmt_precheck(query: Pattern, fragmentation: Fragmentation, algorithm: str = "dGPMt") -> None:
    """Entry check of every dGPMt run, in-process or sharded; raises if unmet
    (same signature as :func:`~repro.core.dgpmd.dgpmd_precheck`)."""
    if dgpmt_applies(fragmentation):
        return None
    if not algorithms.is_tree(fragmentation.graph):
        raise GraphError("dGPMt requires a rooted directed tree data graph")
    raise FragmentationError("dGPMt requires connected fragments")


#: dGPMt's entry in the served registry, :data:`repro.core.dispatch.ALGORITHMS`.
DGPMT = AlgorithmSpec(
    name="dgpmt",
    display_name="dGPMt",
    # a subtree's only boundary is its root: no watcher tables needed
    build_programs=per_site(
        lambda fid, fragmentation, query, deps, config, compiled: (
            DgpmtSiteProgram(fid, fragmentation, query, config, compiled)
        )
    ),
    make_coordinator=_TreeCoordinator,
    precheck=dgpmt_precheck,
)


def run_dgpmt(
    query: Pattern,
    fragmentation: Fragmentation,
    config: Optional[DgpmConfig] = None,
) -> RunResult:
    """Evaluate ``query`` on a distributed tree with dGPMt (Corollary 4).

    Raises :class:`~repro.errors.GraphError` if ``G`` is not a rooted tree or
    :class:`~repro.errors.FragmentationError` if fragments are not connected.

    One-shot convenience over :class:`~repro.session.SimulationSession`.
    """
    from repro.session import SimulationSession

    return SimulationSession(fragmentation, config=config).run(query, algorithm="dgpmt")
