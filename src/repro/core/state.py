"""Per-site partial evaluation state: the engine room of lEval (Section 4.1).

One :class:`LocalEvalState` holds, for one fragment ``Fi``:

* candidate sets ``sim(u)`` over the fragment's nodes (local *and* virtual);
  virtual nodes are *optimistically* assumed to match whenever their label
  agrees (``"it always assumes the unevaluated virtual nodes as match
  candidates"``), because graph simulation is a greatest fixpoint;
* successor counters ``count[(v, u')] = |succ(v) ∩ sim(u')|`` for local
  ``v`` -- the standard HHK bookkeeping, restricted to the fragment.

Falsifications propagate through a worklist: removing a node from ``sim(u')``
decrements its predecessors' counters, and a counter hitting zero falsifies
the predecessor pair.  Processing a message this way touches *only the
affected area* -- the counter worklist **is** the paper's incremental lEval
with its ``O(|AFF|)`` guarantee.  The non-incremental dGPMNOpt instead calls
:func:`recompute_from_scratch` on every message batch.

The symbolic side (:meth:`LocalEvalState.in_node_equations`) reduces each
in-node variable to a Boolean equation over virtual-node variables only,
reproducing the paper's Example-6 table; the push operation ships those
equations.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Set, Tuple

from repro.boolean.expr import BoolExpr, FALSE, TRUE, Var, conj, disj
from repro.boolean.system import EquationSystem
from repro.graph.digraph import Node
from repro.graph.pattern import Pattern
from repro.partition.fragment import Fragment

#: A Boolean variable key ``X(u, v)``: (query node, data node).
VarKey = Tuple[Node, Node]


class LocalEvalState:
    """Counter-based partial evaluation of a pattern on one fragment."""

    def __init__(
        self,
        fragment: Fragment,
        query: Pattern,
        known_false_virtual: Iterable[VarKey] = (),
    ) -> None:
        self.fragment = fragment
        self.query = query
        graph = fragment.graph

        #: sim[u] -- not-yet-falsified candidates among the fragment's nodes
        #: (served from the graph's lazy label index, no full-graph scan)
        self.sim: Dict[Node, Set[Node]] = {}
        for u in query.nodes():
            self.sim[u] = set(graph.nodes_with_label(query.label(u)))

        # Pre-apply falsifications of virtual variables already known
        # (used by the from-scratch recomputation of dGPMNOpt).
        pre_removed: List[VarKey] = []
        for u, v in known_false_virtual:
            if v in self.sim.get(u, ()):
                self.sim[u].discard(v)
                pre_removed.append((u, v))

        #: count[(v, u')] for local v: successors of v still in sim(u')
        #: -- seeded from the graph's successor-label counts; before the
        #: pre-removals below, succ(v) ∩ sim(u') is exactly the successors
        #: of v labeled fv(u').
        self.count: Dict[Tuple[Node, Node], int] = {}
        relevant = [u for u in query.nodes() if query.parents(u)]
        for v in fragment.local_nodes:
            slc = graph.successor_label_counts(v)
            for u_child in relevant:
                self.count[(v, u_child)] = slc.get(query.label(u_child), 0)
        # Discount pre-removed candidates: their (all-local) predecessors no
        # longer see them in sim(u).
        for u, v in pre_removed:
            for v_pred in graph.predecessors(v):
                key = (v_pred, u)
                if key in self.count:
                    self.count[key] -= 1

        self._worklist: Deque[VarKey] = deque()
        self._newly_false: List[VarKey] = []
        self._initialized = False
        #: a warm repair's record: every drained falsification is appended
        self.journal: Optional[List[VarKey]] = None

    # ------------------------------------------------------------------
    # fixpoint machinery
    # ------------------------------------------------------------------
    def run_initial(self) -> List[VarKey]:
        """Seed with all local violations and propagate to the local fixpoint.

        Returns every falsified variable of a *local* node, in removal order.
        """
        if self._initialized:
            raise RuntimeError("run_initial may only be called once")
        self._initialized = True
        local = self.fragment.local_nodes
        for u in self.query.nodes():
            children = self.query.children(u)
            if not children:
                continue
            for v in [v for v in self.sim[u] if v in local]:
                if any(self.count[(v, u_child)] == 0 for u_child in children):
                    self.sim[u].discard(v)
                    self._worklist.append((u, v))
                    self._newly_false.append((u, v))
        self._propagate()
        return self.drain_newly_false()

    def falsify_virtual(self, pairs: Iterable[VarKey]) -> List[VarKey]:
        """Apply falsifications of virtual variables received from other sites.

        Incremental: touches only the affected area.  Returns the local
        variables newly falsified in response.  Duplicate or unknown pairs
        are ignored (messages may arrive twice after a push rewire).
        """
        for u, v in pairs:
            if v in self.sim.get(u, ()):
                self.sim[u].discard(v)
                self._worklist.append((u, v))
        self._propagate()
        return self.drain_newly_false()

    def _propagate(self) -> None:
        query = self.query
        graph = self.fragment.graph
        local = self.fragment.local_nodes
        while self._worklist:
            u_rm, v_rm = self._worklist.popleft()
            if v_rm not in graph:
                # A remove_node cascade already detached v_rm from this
                # fragment; its predecessors' counters were adjusted by the
                # cascade's own edge deletions (in-edges repair first).
                continue
            for v_pred in graph.predecessors(v_rm):
                # All predecessors are local: fragments never store
                # out-edges of virtual nodes.
                key = (v_pred, u_rm)
                if key not in self.count:
                    continue
                self.count[key] -= 1
                if self.count[key] == 0:
                    for u_parent in query.parents(u_rm):
                        if v_pred in self.sim[u_parent]:
                            self.sim[u_parent].discard(v_pred)
                            self._worklist.append((u_parent, v_pred))
                            if v_pred in local:
                                self._newly_false.append((u_parent, v_pred))

    def drain_newly_false(self) -> List[VarKey]:
        """Take (and clear) the buffer of newly falsified local variables."""
        out = self._newly_false
        self._newly_false = []
        if self.journal is not None:
            self.journal.extend(out)
        return out

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def local_matches(self) -> Dict[Node, Set[Node]]:
        """Current candidates restricted to local nodes (the site's answer)."""
        local = self.fragment.local_nodes
        return {u: {v for v in vs if v in local} for u, vs in self.sim.items()}

    def virtual_candidates(self) -> List[VarKey]:
        """Virtual variables still assumed true (the paper's ``Fi.O'``)."""
        virtual = self.fragment.virtual_nodes
        return [(u, v) for u, vs in self.sim.items() for v in vs if v in virtual]

    def is_candidate(self, u: Node, v: Node) -> bool:
        """True iff ``X(u, v)`` has not been falsified."""
        return v in self.sim.get(u, ())

    # ------------------------------------------------------------------
    # symbolic equations (Example 6, push, dGPMt)
    # ------------------------------------------------------------------
    def equation_system(self) -> EquationSystem:
        """The local Boolean equation system over not-yet-falsified pairs.

        Internal variables are ``(u, v)`` with ``v`` local; external
        parameters are virtual pairs.  Definitively-true pairs (childless
        query nodes) appear as TRUE.
        """
        equations: Dict[VarKey, BoolExpr] = {}
        graph = self.fragment.graph
        local = self.fragment.local_nodes
        for u in self.query.nodes():
            children = self.query.children(u)
            for v in self.sim[u]:
                if v not in local:
                    continue
                if not children:
                    equations[(u, v)] = TRUE
                    continue
                terms = []
                for u_child in children:
                    targets = self.sim[u_child]
                    alts = [
                        Var((u_child, succ))
                        for succ in graph.successors(v)
                        if succ in targets
                    ]
                    terms.append(disj(alts) if alts else FALSE)
                equations[(u, v)] = conj(terms)
        return EquationSystem(equations)

    def in_node_equations(self, max_terms: int = 4096) -> Dict[VarKey, BoolExpr]:
        """Each unresolved in-node variable, reduced to virtual variables only.

        This is exactly the per-in-node table of the paper's Example 6.
        Variables of in-nodes that are already definitively true reduce to
        TRUE; falsified ones are simply absent (their falsity was shipped).
        """
        system = self.equation_system()
        in_vars = [
            (u, v)
            for u in self.query.nodes()
            for v in self.sim[u]
            if v in self.fragment.in_nodes
        ]
        return system.reduced_system(keep=in_vars, max_terms=max_terms).as_dict()
