"""Incremental maintenance of distributed simulation under graph updates.

Section 4.2 builds dGPM's optimized local evaluation on the authors'
incremental pattern-matching work [13]: falsifications propagate through the
affected area only.  The same machinery maintains ``Q(G)`` *across* graph
updates:

* **edge deletion** is monotone for simulation (matches can only shrink), so
  it is handled natively: decrement the one counter the edge feeds, let the
  falsification worklist run, ship any falsified in-node variables, and
  iterate message rounds to quiescence.  Work is ``O(|AFF|)`` plus the
  messages the affected boundary variables require -- deleting an edge no
  match depends on costs nothing and ships nothing.
* **edge insertion** can revive matches, which the falsification-only
  protocol cannot express; the repair re-opens a set of *pairs*.  Every pair
  the new edge ``(u, v)`` makes true reaches, forward through other newly
  true pairs, a false ``X(a, u)`` that can use the edge as a witness
  (otherwise the old match plus those pairs would have been a larger
  simulation of the old graph).  So the false pairs backward-reachable from
  those seeds in the query x data product -- through false pairs only, true
  ones are never touched -- are set optimistically true in every copy, and
  the falsification fixpoint reruns from them
  (:meth:`IncrementalMatchState._insert`): ``O(|AFF|)`` again.  An
  insert with no seed only bumps the counter the edge feeds.
* **node removal** is a cascade of edge deletions (each repaired natively)
  followed by scrubbing the now-isolated node from the candidate sets and
  counter tables.

:class:`IncrementalMatchState` is the warm per-query state over *shared*
structures -- the fragmentation and
:class:`~repro.core.depgraph.DependencyGraphs` belong to the caller
(typically a :class:`~repro.session.SimulationSession`, which keeps one state
per hot query).  The caller patches both through the fragmentation's in-place
mutation API, then hands the resulting
:class:`~repro.partition.fragmentation.MutationDelta` to
:meth:`IncrementalMatchState.apply`, the one repair entry; the
:class:`RepairCost` it returns is the cost of maintaining the answer.

Usage::

    deps = DependencyGraphs(fragmentation)
    state = IncrementalMatchState(query, fragmentation, deps)
    state.relation()                    # == simulation(query, G)
    delta = fragmentation.delete_edge("f2", "sp1")
    deps.apply_delta(delta)
    cost = state.apply(delta)
    cost.ds_bytes, cost.n_messages      # cost of maintaining the answer
    state.relation()                    # == simulation(query, G')
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.config import DgpmConfig
from repro.core.depgraph import DependencyGraphs
from repro.core.dgpm import DgpmSiteProgram
from repro.core.state import VarKey
from repro.errors import ReproError
from repro.graph.digraph import Label, Node
from repro.graph.pattern import Pattern
from repro.partition.fragmentation import Fragmentation, MutationDelta
from repro.runtime.engine import LocalHost, SyncEngine
from repro.runtime.messages import Message
from repro.runtime.network import Network
from repro.simulation.matchrel import MatchRelation


@dataclass(frozen=True)
class RepairCost:
    """What one in-place repair (or re-evaluation) of a warm state cost.

    Frozen: repair reports are read across threads in the concurrent serving
    layer, and an immutable snapshot can never be observed half-updated.
    """

    #: local variables the repair falsified across all sites (the |AFF| proxy)
    n_falsified: int
    n_messages: int           # protocol data messages shipped
    ds_bytes: int             # protocol data bytes shipped
    n_rounds: int             # message rounds to re-quiescence
    #: which repair path ran: "" (surgery), "bootstrap", or "targeted"
    strategy: str = ""
    #: pairs an insert re-opened (each is re-falsified or newly true)
    n_reopened: int = 0
    #: the net answer-visible change: local ``(query node, data node)``
    #: pairs that turned true / false.  A re-opened pair falsified again is
    #: in neither, and a virtual copy never is (it is not in the answer).
    added: Tuple[VarKey, ...] = ()
    removed: Tuple[VarKey, ...] = ()

    @property
    def changed(self) -> bool:
        """False: the answer is exactly what it was before the delta."""
        return bool(self.added or self.removed)


def edge_update_may_change_answer(query: Pattern, u_label: Label, v_label: Label) -> bool:
    """Can inserting/deleting an edge labeled ``(u_label, v_label)`` change ``Q(G)``?

    The simulation conditions inspect a data edge ``(u, v)`` only as a
    witness for a query edge ``(a, b)`` with ``L(a) = L(u)`` and
    ``L(b) = L(v)``; if no query edge carries that label pair, the maximum
    match is unchanged by the update and every cached answer stays valid.
    """
    return any(
        query.label(a) == u_label and query.label(b) == v_label
        for a, b in query.edges()
    )


def delta_may_change_answer(query: Pattern, delta: MutationDelta) -> bool:
    """Can ``delta`` change ``Q(G)``?  False keeps a cached answer as it is."""
    if delta.kind == "add_node":
        # An edge-less node can only match a *childless* query node of the
        # same label (any query child would need a witnessing successor).
        return any(
            query.label(q) == delta.u_label and not query.children(q)
            for q in query.nodes()
        )
    if delta.kind == "remove_node":
        # The node itself was a potential match iff its label appears in the
        # query; otherwise only its (cascaded) edges could matter.
        return any(query.label(q) == delta.u_label for q in query.nodes()) or any(
            edge_update_may_change_answer(query, d.u_label, d.v_label)
            for d in delta.cascade
        )
    return edge_update_may_change_answer(query, delta.u_label, delta.v_label)


class IncrementalMatchState:
    """Warm evaluation of one query over caller-owned shared structures.

    The caller mutates the fragmentation (and patches ``deps``) through the
    in-place mutation API *first*, then hands the delta to :meth:`apply`.
    Every site's
    :class:`~repro.core.state.LocalEvalState` stays alive between updates, so
    a deletion's repair work is ``O(|AFF|)`` plus the messages the affected
    boundary variables require.
    """

    def __init__(
        self,
        query: Pattern,
        fragmentation: Fragmentation,
        deps: DependencyGraphs,
        config: Optional[DgpmConfig] = None,
    ) -> None:
        config = config or DgpmConfig()
        self.query = query
        self.fragmentation = fragmentation
        self.deps = deps
        # Repair is incremental lEval whatever the caller's config says, and
        # push rewires watcher sets dynamically: warm states keep the
        # protocol in its plain falsification-shipping form.
        self.config = DgpmConfig(
            incremental=True, enable_push=False,
            boolean_only=config.boolean_only, cost=config.cost,
        )
        #: query nodes that have parents (the only ones counters track)
        self._parented = [u for u in query.nodes() if query.parents(u)]
        #: one repair's local pairs gone false (journaled by every site) / true
        self._journal: List[VarKey] = []
        self._revived: List[VarKey] = []
        self.bootstrap()

    # ------------------------------------------------------------------
    def bootstrap(self) -> RepairCost:
        """(Re)build every site's state and run the fixpoint from scratch."""
        self.programs: Dict[int, DgpmSiteProgram] = {
            frag.fid: DgpmSiteProgram(
                frag.fid, self.fragmentation, self.query, self.deps, self.config
            )
            for frag in self.fragmentation
        }
        cost = self._drain(None, strategy="bootstrap")
        merged: Dict[Node, Set[Node]] = {u: set() for u in self.query.nodes()}
        for program in self.programs.values():
            program.state.journal = self._journal
            for u, vs in program.state.local_matches().items():
                merged[u] |= vs
        self._answer = MatchRelation(self.query.nodes(), merged)
        return cost

    def _drain(
        self,
        seeded: Optional[List[Message]],
        strategy: str = "",
        n_reopened: int = 0,
    ) -> RepairCost:
        """Ship ``seeded`` between the sites and iterate message rounds to
        quiescence, every site on one host; ``None`` runs every site's first
        step instead (a fresh evaluation, which has no |AFF| to report)."""
        n_messages = ds_bytes = n_rounds = 0
        if seeded != []:  # else the repair stayed inside one site: nothing ships
            cost = self.config.cost
            mail = Network(cost)
            engine = SyncEngine(
                dict.fromkeys(self.programs, LocalHost(self.programs, mail)),
                Network(cost),
                cost,
            )
            if seeded is None:
                engine.run_fixpoint()
            else:
                engine.drain(seeded)
            mail.absorb(engine.network)
            n_messages, ds_bytes = mail.data_message_count, mail.data_bytes
            n_rounds = engine.n_rounds
        return RepairCost(0, n_messages, ds_bytes, n_rounds, strategy, n_reopened)

    def relation(self) -> MatchRelation:
        """The current maximum match ``Q(G)``: merged from the sites once per
        :meth:`bootstrap`, then patched by every repair's change set."""
        return self._answer

    def apply(self, delta: MutationDelta) -> RepairCost:
        """Repair after ``delta`` was applied to the shared fragmentation and
        ``deps``: the one entry, whatever the delta's kind.  The cost carries
        the net change of the answer (``added`` / ``removed``), the set that
        patches :meth:`relation` -- no site is re-merged."""
        if delta.kind == "delete":
            cost = self._delete(delta.u, delta.v, delta.v_label)
        elif delta.kind == "insert":
            cost = self._insert(delta)
        elif delta.kind == "remove_node":
            cost = self._remove_node(delta)
        elif delta.kind == "add_node":
            cost = self._add_node(delta.u, delta.u_label, delta.source_fid)
        else:
            raise ReproError(f"unknown mutation kind {delta.kind!r}")
        falsified, gone, back = len(self._journal), set(self._journal), set(self._revived)
        self._journal.clear()
        self._revived = []
        # A re-opened pair that was falsified again is no change at all.
        added, removed = tuple(back - gone), tuple(gone - back)
        if added or removed:
            self._answer = self._answer.patched(added, removed)
        return RepairCost(
            falsified, cost.n_messages, cost.ds_bytes, cost.n_rounds,
            cost.strategy, cost.n_reopened, added, removed,
        )

    # ------------------------------------------------------------------
    # deletion: native O(|AFF|) repair
    # ------------------------------------------------------------------
    def _delete(
        self, u: Node, v: Node, v_label: Label, fid: Optional[int] = None
    ) -> RepairCost:
        """Repair after edge ``(u, v)`` was removed from the (shared) graphs.

        Counter surgery at the owner site, then message rounds to
        quiescence.  ``fid`` overrides the owner lookup for cascade edges of
        a ``remove_node`` (the node has already left the owner map).
        """
        owner = self.fragmentation.owner(u) if fid is None else fid
        program = self.programs[owner]
        falsified = self._delete_surgery(program, u, v, v_label)
        # Ship the owner's newly falsified in-node variables and iterate.
        return self._drain(program._messages_for(falsified))

    def _delete_surgery(
        self, program: DgpmSiteProgram, u: Node, v: Node, v_label: Label
    ) -> List[VarKey]:
        """Counter surgery for one removed edge, then local propagation.

        The fragment graph no longer stores the edge (the fragmentation's
        mutation API removed it); only the evaluation state is patched here.
        """
        state = program.state
        query = self.query
        # Who counted the edge is settled before anything is falsified: on a
        # self-loop the discards below would hide it from a later counter.
        fed = [
            u_child
            for u_child in self._parented
            if query.label(u_child) == v_label
            and (u, u_child) in state.count
            and state.is_candidate(u_child, v)
        ]
        for u_child in fed:
            key = (u, u_child)
            state.count[key] -= 1
            if state.count[key] == 0:
                for u_parent in query.parents(u_child):
                    if state.is_candidate(u_parent, u):
                        state.sim[u_parent].discard(u)
                        state._worklist.append((u_parent, u))
                        if u in state.fragment.local_nodes:
                            state._newly_false.append((u_parent, u))
        state._propagate()
        return state.drain_newly_false()

    # ------------------------------------------------------------------
    # node addition
    # ------------------------------------------------------------------
    def _add_node(self, node: Node, label: Label, fid: int) -> RepairCost:
        """Register a freshly added isolated node; the answer changed iff it
        matches a childless query node."""
        state = self.programs[fid].state
        for q in self.query.nodes():
            if self.query.label(q) == label and not self.query.children(q):
                state.sim[q].add(node)
                self._revived.append((q, node))
            # A parented q cannot match an edge-less node; run_initial would
            # have falsified it immediately, so it is simply never added.
        for u_child in self._parented:
            state.count[(node, u_child)] = 0
        return RepairCost(0, 0, 0, 0)

    # ------------------------------------------------------------------
    # insertion: re-open the pairs the edge can revive
    # ------------------------------------------------------------------
    def _insert(self, delta: MutationDelta) -> RepairCost:
        """Repair after edge ``(delta.u, delta.v)`` was added to the graphs.

        The edge itself first: a brand-new virtual copy of ``v`` is *set to*
        its owner's current truth (a stale entry from an earlier watch may be
        there), then the counters the edge feeds are bumped.  With nothing
        to revive that is the whole repair (``strategy == ""``).  Otherwise
        the revivable pairs (:meth:`_revivable`) are re-opened in every copy
        and checked again at their owners, exactly as ``run_initial`` checks
        every candidate, and the falsifications ship as after a deletion.
        True pairs stay true under an insertion and are never looked at.
        """
        query = self.query
        u, v = delta.u, delta.v
        source = self.programs[delta.source_fid]
        state = source.state
        if delta.virtual_added:
            owner_state = self.programs[delta.target_fid].state
            for b in query.nodes():
                if query.label(b) != delta.v_label:
                    continue
                if owner_state.is_candidate(b, v):
                    state.sim[b].add(v)
                    source.known_false_virtual.discard((b, v))
                else:
                    state.sim[b].discard(v)
                    source.known_false_virtual.add((b, v))
        for b in self._parented:
            if query.label(b) == delta.v_label and v in state.sim[b]:
                state.count[(u, b)] += 1

        region = self._revivable(delta)
        if region is None:
            before, cost = self._answer, self.bootstrap()
            self._revived = [  # an insert only adds
                (q, x) for q in before.query_nodes()
                for x in self._answer.raw_matches_of(q) - before.raw_matches_of(q)
            ]
            return cost
        for pair in region:
            self._reopen(*pair)
        self._revived = region  # the ones falsified again net out in apply()
        touched: Dict[int, DgpmSiteProgram] = {}
        for q, x in region:
            program = self.programs[self.fragmentation.owner(x)]
            state = program.state
            if any(state.count[(x, child)] == 0 for child in query.children(q)):
                state.sim[q].discard(x)
                state._worklist.append((q, x))
                state._newly_false.append((q, x))
                touched[program.fid] = program
        seeded: List[Message] = []
        for program in touched.values():
            program.state._propagate()
            seeded.extend(program._messages_for(program.state.drain_newly_false()))
        return self._drain(seeded, "targeted" if region else "", len(region))

    def _revivable(self, delta: MutationDelta) -> Optional[List[VarKey]]:
        """The false pairs the new edge might make true, seeds first.

        Seeds are the false ``X(a, u)`` with a query edge ``(a, b)`` the new
        data edge can witness; the rest is their backward closure over
        ``(p, x)``, ``p`` a query parent and ``x`` a same-labeled data
        predecessor, through *false* pairs only.  ``None`` once the closure
        passes a quarter of the label-compatible pairs: re-opening most of
        the product costs more than :meth:`bootstrap`.
        """
        query = self.query
        graph = self.fragmentation.graph
        owner = self.fragmentation.owner
        programs = self.programs

        def is_false(q: Node, x: Node) -> bool:
            return x not in programs[owner(x)].state.sim[q]

        region: Dict[VarKey, None] = {
            (a, delta.u): None
            for b in self._parented
            if query.label(b) == delta.v_label
            for a in query.parents(b)
            if query.label(a) == delta.u_label and is_false(a, delta.u)
        }
        if not region:
            return []
        limit = sum(
            len(graph.nodes_with_label(query.label(q))) for q in query.nodes()
        )
        stack = list(region)
        while stack:
            a, w = stack.pop()
            for p in query.parents(a):
                label = query.label(p)
                for x in graph.predecessors(w):
                    pair = (p, x)
                    if pair not in region and graph.label(x) == label and is_false(p, x):
                        region[pair] = None
                        stack.append(pair)
            if 4 * len(region) > limit:
                return None
        return list(region)

    def _reopen(self, q: Node, x: Node) -> None:
        """Set ``X(q, x)`` optimistically true in its owner's state and in
        every watcher's copy, and forget that it was ever shipped, so a
        re-derived falsification travels -- and is accepted -- again."""
        fid = self.fragmentation.owner(x)
        self.programs[fid].shipped.discard((q, x))
        counted = bool(self.query.parents(q))
        for site in (fid, *self.deps.watcher_sites(fid, x)):
            program = self.programs[site]
            program.known_false_virtual.discard((q, x))
            state = program.state
            if x not in state.sim[q]:
                state.sim[q].add(x)
                if counted:
                    for y in state.fragment.graph.predecessors(x):
                        state.count[(y, q)] += 1

    # ------------------------------------------------------------------
    # node removal: scrub after the cascade
    # ------------------------------------------------------------------
    def _remove_node(self, delta: MutationDelta) -> RepairCost:
        """Full repair for a node removal: the cascade, then the scrub.

        The cascade does not journal the node's own pairs (it has already
        left its owner's local set), so its owner's pre-cascade candidacy is
        reported: what the answer held (a virtual copy never was in it).
        """
        owner_sim = self.programs[delta.source_fid].state.sim
        self._journal.extend(
            (q, delta.u) for q in self.query.nodes() if delta.u in owner_sim[q]
        )
        costs = [
            self._delete(d.u, d.v, d.v_label, fid=d.source_fid) for d in delta.cascade
        ]
        self._scrub_node(delta.u)
        return RepairCost(
            0,
            sum(cost.n_messages for cost in costs),
            sum(cost.ds_bytes for cost in costs),
            sum(cost.n_rounds for cost in costs),
        )

    def _scrub_node(self, node: Node) -> None:
        """Scrub a removed (already isolated) node from the warm state.

        The cascade of edge deletions has been repaired via
        :meth:`_delete`; what remains is the node's own candidacy.  It
        is dropped from every candidate set still holding it (the owner's,
        plus any stale virtual copies -- those were already invisible to
        :meth:`relation`, which filters by local nodes) and from the counter
        table.  No propagation is needed: the cascade removed every incident
        edge, so no counter counts the node as a successor anymore.  (A
        candidacy found here was one before the cascade too -- deletions only
        shrink candidate sets -- so :meth:`_remove_node` already reported it.)
        """
        for program in self.programs.values():
            state = program.state
            for u_child in self._parented:
                state.count.pop((node, u_child), None)
            for q in self.query.nodes():
                state.sim.get(q, set()).discard(node)
                program.shipped.discard((q, node))
                program.known_false_virtual.discard((q, node))
