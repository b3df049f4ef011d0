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
  protocol cannot express; affected queries are repaired with a *targeted
  re-seed*: only the reverse-reachable region of the insertion source can
  change truth value (witness chains run forward, so a node that cannot
  reach the new edge keeps its value), so those nodes -- and only those --
  are reset to label-optimistic candidates, their counters recomputed
  against the surrounding fixed values, and the falsification fixpoint
  rerun inside the region (:meth:`IncrementalMatchState.apply_insert`).
  Insertions that *cannot* change the answer -- no query edge carries the
  inserted edge's label pair -- are absorbed by patching the one successor
  counter they feed.
* **node removal** is a cascade of edge deletions (each repaired natively)
  followed by scrubbing the now-isolated node from the candidate sets and
  counter tables (:meth:`IncrementalMatchState.absorb_remove_node`).

Two layers:

* :class:`IncrementalMatchState` is the warm per-query state over *shared*
  structures -- the fragmentation and
  :class:`~repro.core.depgraph.DependencyGraphs` belong to the caller
  (typically a :class:`~repro.session.SimulationSession`), which patches
  them via the fragmentation's in-place mutation API before asking the
  state to repair itself.  One session keeps one of these per hot query.
* :class:`IncrementalDgpmSession` is the standalone single-query front end:
  it owns a private copy of the graph and fragmentation and drives the
  mutation pipeline itself.

Usage::

    session = IncrementalDgpmSession(query, fragmentation)
    session.relation()                  # == simulation(query, G)
    update = session.delete_edge("f2", "sp1")
    update.ds_bytes, update.n_messages  # cost of maintaining the answer
    session.relation()                  # == simulation(query, G')
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.config import DgpmConfig
from repro.core.depgraph import DependencyGraphs
from repro.core.dgpm import DgpmSiteProgram
from repro.core.state import VarKey
from repro.errors import ReproError
from repro.graph.digraph import Label, Node
from repro.graph.pattern import Pattern
from repro.partition.fragmentation import Fragmentation, MutationDelta, fragment_graph
from repro.runtime.engine import LocalHost, SyncEngine
from repro.runtime.messages import Message
from repro.runtime.network import Network
from repro.simulation.matchrel import MatchRelation


@dataclass(frozen=True)
class UpdateMetrics:
    """Cost of one incremental update.

    Frozen: update reports cross thread boundaries in the concurrent serving
    layer, and an immutable snapshot can never be observed half-updated.
    """

    kind: str                 # "delete", "insert(targeted)", "insert(recompute)",
                              # "insert(absorbed)", or "remove_node"
    n_messages: int           # protocol data messages shipped
    ds_bytes: int             # protocol data bytes shipped
    n_rounds: int             # message rounds to re-quiescence
    wall_seconds: float
    falsified_local: int      # falsified local variables across all sites
                              # (the |AFF| proxy)


@dataclass(frozen=True)
class RepairCost:
    """What one in-place repair (or re-evaluation) of a warm state cost.

    Frozen for the same reason as :class:`UpdateMetrics`: repair reports are
    read across threads and must be immutable snapshots.
    """

    n_falsified: int
    n_messages: int
    ds_bytes: int
    n_rounds: int
    #: which repair path ran: "" (surgery), "bootstrap", or "targeted"
    strategy: str = ""


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


def node_update_may_change_answer(query: Pattern, label: Label) -> bool:
    """Can adding an isolated node with ``label`` change ``Q(G)``?

    An edge-less node can only match a *childless* query node of the same
    label (any query child would need a witnessing successor).
    """
    return any(
        query.label(q) == label and not query.children(q) for q in query.nodes()
    )


class IncrementalMatchState:
    """Warm evaluation of one query over caller-owned shared structures.

    The caller mutates the fragmentation (and patches ``deps``) through the
    in-place mutation API *first*, then calls the matching ``apply_*`` /
    ``absorb_*`` repair below.  Every site's
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
        config = config or DgpmConfig(enable_push=False)
        if not config.incremental:
            raise ReproError("incremental maintenance requires config.incremental")
        if config.enable_push:
            # Push rewires watcher sets dynamically; warm states keep the
            # protocol in its plain falsification-shipping form.
            config = DgpmConfig(
                incremental=True, enable_push=False,
                boolean_only=config.boolean_only, cost=config.cost,
            )
        self.query = query
        self.fragmentation = fragmentation
        self.deps = deps
        self.config = config
        #: query nodes that have parents (the only ones counters track)
        self._parented = [u for u in query.nodes() if query.parents(u)]
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
        return self._drain(None, strategy="bootstrap")

    def _drain(
        self,
        seeded: Optional[List[Message]],
        n_falsified: int = 0,
        strategy: str = "",
    ) -> RepairCost:
        """Ship ``seeded`` between the sites and iterate message rounds to
        quiescence, every site on one host; ``None`` runs every site's first
        step instead (a fresh evaluation, which has no |AFF| to report)."""
        if seeded == []:  # the repair stayed inside one site: nothing ships
            return RepairCost(n_falsified, 0, 0, 0, strategy)
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
            n_falsified += engine.n_falsified
        mail.absorb(engine.network)
        return RepairCost(
            n_falsified=n_falsified,
            n_messages=mail.data_message_count,
            ds_bytes=mail.data_bytes,
            n_rounds=engine.n_rounds,
            strategy=strategy,
        )

    def relation(self) -> MatchRelation:
        """The current maximum match ``Q(G)``."""
        merged: Dict[Node, Set[Node]] = {u: set() for u in self.query.nodes()}
        for program in self.programs.values():
            for u, vs in program.state.local_matches().items():
                merged[u] |= vs
        return MatchRelation(self.query.nodes(), merged)

    # ------------------------------------------------------------------
    # deletion: native O(|AFF|) repair
    # ------------------------------------------------------------------
    def apply_delete(
        self, u: Node, v: Node, v_label: Label, fid: Optional[int] = None
    ) -> RepairCost:
        """Repair after edge ``(u, v)`` was removed from the (shared) graphs.

        Counter surgery at the owner site, then message rounds to
        quiescence.  ``n_falsified`` sums the locally falsified variables of
        *every* site touched by the cascade -- zero means the answer is
        untouched.  ``fid`` overrides the owner lookup for cascade edges of
        a ``remove_node`` (the node has already left the owner map).
        """
        owner = self.fragmentation.owner(u) if fid is None else fid
        program = self.programs[owner]
        falsified = self._delete_surgery(program, u, v, v_label)
        # Ship the owner's newly falsified in-node variables and iterate.
        return self._drain(program._messages_for(falsified), len(falsified))

    def _delete_surgery(
        self, program: DgpmSiteProgram, u: Node, v: Node, v_label: Label
    ) -> List[VarKey]:
        """Counter surgery for one removed edge, then local propagation.

        The fragment graph no longer stores the edge (the fragmentation's
        mutation API removed it); only the evaluation state is patched here.
        """
        state = program.state
        query = self.query
        for u_child in query.nodes():
            if query.label(u_child) != v_label or not query.parents(u_child):
                continue
            key = (u, u_child)
            if key not in state.count or not state.is_candidate(u_child, v):
                continue
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
    # insertion / node addition: targeted absorption
    # ------------------------------------------------------------------
    def absorb_irrelevant_insert(self, u: Node, v: Node, v_label: Label) -> None:
        """Patch counters for an insert that cannot change the answer.

        Precondition: :func:`edge_update_may_change_answer` returned False
        for the edge's label pair.  The one successor counter the edge feeds
        is incremented (iff ``v`` is still a candidate) so later deletions
        keep decrementing against truthful counts; no falsification or
        revival is possible.
        """
        owner = self.fragmentation.owner(u)
        state = self.programs[owner].state
        for u_child in self._parented:
            if self.query.label(u_child) != v_label:
                continue
            key = (u, u_child)
            if key in state.count and state.is_candidate(u_child, v):
                state.count[key] += 1

    def absorb_add_node(self, node: Node, label: Label, fid: int) -> bool:
        """Register a freshly added isolated node; returns True iff the
        answer changed (the node matches a childless query node)."""
        state = self.programs[fid].state
        changed = False
        for q in self.query.nodes():
            if self.query.label(q) != label:
                continue
            if not self.query.children(q):
                state.sim[q].add(node)
                changed = True
            # A parented q cannot match an edge-less node; run_initial would
            # have falsified it immediately, so it is simply never added.
        for u_child in self._parented:
            state.count[(node, u_child)] = 0
        return changed

    # ------------------------------------------------------------------
    # insertion: targeted region repair
    # ------------------------------------------------------------------
    def apply_insert(self, delta: MutationDelta) -> RepairCost:
        """Repair after a *relevant* edge insertion, re-seeding only the
        affected region.

        An insertion can only revive nodes that reach its source: a witness
        chain for ``X(u, v)`` runs forward from ``v``, so the truth value of
        any node that cannot reach ``delta.u`` is untouched by the new edge.
        The reverse-reachable closure of ``delta.u`` is therefore reset to
        label-optimistic candidates (clearing the shipped/known-false
        bookkeeping so re-falsifications travel again), its counters are
        recomputed against the surrounding fixed values, and the
        falsification fixpoint reruns -- it cannot escape the region because
        every predecessor of a region node is itself in the region.  Regions
        a quarter of the graph or larger fall back to :meth:`bootstrap`
        (the re-seed would approach a full re-evaluation anyway).
        """
        graph = self.fragmentation.graph
        region: Set[Node] = {delta.u}
        stack = [delta.u]
        while stack:
            w = stack.pop()
            for p in graph.predecessors(w):
                if p not in region:
                    region.add(p)
                    stack.append(p)
        if 4 * len(region) >= graph.n_nodes:
            return self.bootstrap()

        query = self.query
        # A brand-new virtual copy of the target starts optimistically true,
        # exactly as a bootstrap would have seeded it.
        if delta.virtual_added:
            state = self.programs[delta.source_fid].state
            for q in query.nodes():
                if query.label(q) == delta.v_label:
                    state.sim[q].add(delta.v)
        # Reset every copy (owner and watchers) of every region node to a
        # label-optimistic candidate.  Shipped falsifications are un-marked
        # on the sender and forgotten on the receivers, so a re-derived
        # falsification ships -- and is accepted -- again.
        for program in self.programs.values():
            state = program.state
            frag_graph = state.fragment.graph
            for q in query.nodes():
                label = query.label(q)
                bucket = state.sim[q]
                for w in region:
                    if w in frag_graph and frag_graph.label(w) == label:
                        bucket.add(w)
                        program.shipped.discard((q, w))
                        program.known_false_virtual.discard((q, w))
        # Recompute the counters of region-local nodes against the current
        # candidate sets (predecessors of region nodes are region nodes, so
        # no counter outside this sweep references a reset candidate).
        for program in self.programs.values():
            state = program.state
            frag_graph = state.fragment.graph
            local = state.fragment.local_nodes
            for w in region:
                if w not in local:
                    continue
                succs = list(frag_graph.successors(w))
                for u_child in self._parented:
                    targets = state.sim[u_child]
                    state.count[(w, u_child)] = sum(
                        1 for x in succs if x in targets
                    )

        seeded: List = []
        n_falsified = 0
        # Reconcile a brand-new virtual copy with its owner's current truth:
        # the target may lie outside the region, so the region fixpoint
        # would never correct the copy's optimism on its own.
        if delta.virtual_added:
            owner_state = self.programs[delta.target_fid].state
            source = self.programs[delta.source_fid]
            dead = [
                (q, delta.v)
                for q in query.nodes()
                if query.label(q) == delta.v_label
                and not owner_state.is_candidate(q, delta.v)
            ]
            if dead:
                falsified = source.state.falsify_virtual(dead)
                n_falsified += len(falsified)
                seeded.extend(source._messages_for(falsified))
        # Restricted run_initial: falsify region-local violations and let the
        # worklist run to the local fixpoint.
        for program in self.programs.values():
            state = program.state
            local = state.fragment.local_nodes
            for q in query.nodes():
                children = query.children(q)
                if not children:
                    continue
                bucket = state.sim[q]
                for w in region:
                    if (
                        w in local
                        and w in bucket
                        and any(state.count[(w, qc)] == 0 for qc in children)
                    ):
                        bucket.discard(w)
                        state._worklist.append((q, w))
                        state._newly_false.append((q, w))
            state._propagate()
            falsified = state.drain_newly_false()
            n_falsified += len(falsified)
            seeded.extend(program._messages_for(falsified))
        # Ship across sites and iterate to quiescence, as after a deletion.
        return self._drain(seeded, n_falsified, strategy="targeted")

    # ------------------------------------------------------------------
    # node removal: scrub after the cascade
    # ------------------------------------------------------------------
    def apply_remove_node(self, delta) -> Tuple[bool, RepairCost]:
        """Full repair for a node removal: the cascade, then the scrub.

        Returns ``(answer may have changed, aggregated cost)``.  The flag
        cannot be derived from the cascade's falsification counts alone: the
        fragmentation has already dropped the node from its owner's local
        set, so a candidacy the cascade kills is no longer counted as a
        *local* falsification -- the node's pre-cascade candidacy is the
        truth.  (Conservative: a candidacy held only by virtual copies was
        never answer-visible, but callers diff relations before rewriting.)
        """
        was_candidate = any(
            delta.u in program.state.sim.get(q, ())
            for program in self.programs.values()
            for q in self.query.nodes()
        )
        n_messages = ds_bytes = n_rounds = n_falsified = 0
        for edge_delta in delta.cascade:
            cost = self.apply_delete(
                edge_delta.u,
                edge_delta.v,
                edge_delta.v_label,
                fid=edge_delta.source_fid,
            )
            n_messages += cost.n_messages
            ds_bytes += cost.ds_bytes
            n_rounds += cost.n_rounds
            n_falsified += cost.n_falsified
        scrubbed = self.absorb_remove_node(
            delta.u, delta.u_label, delta.source_fid
        )
        changed = was_candidate or scrubbed or n_falsified > 0
        return changed, RepairCost(
            n_falsified=n_falsified,
            n_messages=n_messages,
            ds_bytes=ds_bytes,
            n_rounds=n_rounds,
        )

    def absorb_remove_node(self, node: Node, label: Label, fid: int) -> bool:
        """Scrub a removed (already isolated) node from the warm state.

        The cascade of edge deletions has been repaired via
        :meth:`apply_delete`; what remains is the node's own candidacy.  It
        is dropped from every candidate set still holding it (the owner's,
        plus any stale virtual copies -- those were already invisible to
        :meth:`relation`, which filters by local nodes) and from the counter
        table.  No propagation is needed: the cascade removed every incident
        edge, so no counter counts the node as a successor anymore.  Returns
        True iff the node was still a candidate somewhere, i.e. the answer
        may have changed.
        """
        changed = False
        for program in self.programs.values():
            state = program.state
            for q in self.query.nodes():
                bucket = state.sim.get(q)
                if bucket is not None and node in bucket:
                    bucket.discard(node)
                    changed = True
            for u_child in self._parented:
                state.count.pop((node, u_child), None)
            for q in self.query.nodes():
                program.shipped.discard((q, node))
                program.known_false_virtual.discard((q, node))
        return changed


class IncrementalDgpmSession:
    """A long-lived single-query dGPM evaluation that absorbs graph updates.

    The session owns a private copy of the graph and fragmentation (callers'
    objects are never mutated) and keeps every site's
    :class:`~repro.core.state.LocalEvalState` alive between updates.  Each
    update is applied through the fragmentation's in-place mutation API, so
    fragment metadata (``Fi.O``/``Fi.I``) and the dependency graphs stay
    consistent -- ``session.fragmentation.validate()`` holds after any
    update sequence.
    """

    def __init__(
        self,
        query: Pattern,
        fragmentation: Fragmentation,
        config: Optional[DgpmConfig] = None,
    ) -> None:
        config = config or DgpmConfig(enable_push=False)
        if not config.incremental:
            raise ReproError("the incremental session requires config.incremental")
        self.query = query
        self._graph = fragmentation.graph.copy()
        assignment = {v: fragmentation.owner(v) for v in self._graph.nodes()}
        self.fragmentation = fragment_graph(self._graph, assignment)
        self._deps = DependencyGraphs(self.fragmentation)
        self._state = IncrementalMatchState(query, self.fragmentation, self._deps, config)
        self.config = self._state.config

    # ------------------------------------------------------------------
    @property
    def programs(self) -> Dict[int, DgpmSiteProgram]:
        """The live per-site programs (owned by the warm match state)."""
        return self._state.programs

    def relation(self) -> MatchRelation:
        """The current maximum match ``Q(G)``."""
        return self._state.relation()

    @property
    def graph(self):
        """The session's current graph (do not mutate directly)."""
        return self._graph

    # ------------------------------------------------------------------
    def delete_edge(self, u: Node, v: Node) -> UpdateMetrics:
        """Remove edge ``(u, v)`` and incrementally repair the match."""
        start = time.perf_counter()
        delta = self.fragmentation.delete_edge(u, v)
        self._deps.apply_delta(delta)
        repair = self._state.apply_delete(u, v, delta.v_label)
        return UpdateMetrics(
            kind="delete",
            n_messages=repair.n_messages,
            ds_bytes=repair.ds_bytes,
            n_rounds=repair.n_rounds,
            wall_seconds=time.perf_counter() - start,
            falsified_local=repair.n_falsified,
        )

    def insert_edge(self, u: Node, v: Node) -> UpdateMetrics:
        """Add edge ``(u, v)`` and repair the match in place.

        Insertions can revive previously falsified matches, which the
        monotone falsification protocol cannot undo on its own; the session
        re-seeds the reverse-reachable region of ``u`` and reruns the
        fixpoint inside it (:meth:`IncrementalMatchState.apply_insert`),
        falling back to a full re-evaluation when the region covers most of
        the graph.  Label-irrelevant insertions are absorbed by patching the
        one counter they feed.
        """
        start = time.perf_counter()
        delta = self.fragmentation.insert_edge(u, v)
        self._deps.apply_delta(delta)
        if edge_update_may_change_answer(self.query, delta.u_label, delta.v_label):
            cost = self._state.apply_insert(delta)
            targeted = cost.strategy == "targeted"
            kind = "insert(targeted)" if targeted else "insert(recompute)"
        else:
            self._state.absorb_irrelevant_insert(u, v, delta.v_label)
            cost = RepairCost(0, 0, 0, 0)
            kind = "insert(absorbed)"
        return UpdateMetrics(
            kind=kind,
            n_messages=cost.n_messages,
            ds_bytes=cost.ds_bytes,
            n_rounds=cost.n_rounds,
            wall_seconds=time.perf_counter() - start,
            falsified_local=cost.n_falsified,
        )

    def remove_node(self, node: Node) -> UpdateMetrics:
        """Remove ``node`` with all incident edges; repair incrementally.

        The fragmentation turns the removal into a cascade of edge
        deletions (each repaired natively, in cascade order) followed by
        dropping the then-isolated node, which only needs its candidate and
        counter entries scrubbed.
        """
        start = time.perf_counter()
        delta = self.fragmentation.remove_node(node)
        self._deps.apply_delta(delta)
        _changed, cost = self._state.apply_remove_node(delta)
        return UpdateMetrics(
            kind="remove_node",
            n_messages=cost.n_messages,
            ds_bytes=cost.ds_bytes,
            n_rounds=cost.n_rounds,
            wall_seconds=time.perf_counter() - start,
            falsified_local=cost.n_falsified,
        )
