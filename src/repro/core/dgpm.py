"""Algorithm dGPM: partition-bounded distributed graph simulation (Section 4).

Protocol, exactly as the paper's three phases:

1. **Partial evaluation** -- the coordinator broadcasts ``Q``; every site runs
   lEval (:class:`~repro.core.state.LocalEvalState`) in parallel, assuming
   virtual nodes match optimistically, and ships the falsifications of its
   in-node variables, one ``X(u, v) := false`` message per watcher site
   (the paper's Example 9 counts individual variables as messages).
2. **Message passing** -- on receiving falsifications of its virtual
   variables, a site re-evaluates (incrementally by default; from scratch in
   the dGPMNOpt ablation) and ships newly falsified in-node variables, guided
   by its local dependency graph.  A changed-flag goes to the coordinator.
   The *push* optimization (Section 4.2) may ship Boolean equations instead,
   re-wiring the dependency graph to bypass slow chains; see
   :class:`_PushState`.
3. **Assembly** -- sites ship local matches; the coordinator unions them and
   collapses to the empty relation when some query node has no match.

Falsification-only shipping bounds DS by ``O(|Ef| |Vq|)`` and the round count
by ``O(|Vf| |Vq|)`` (each round falsifies at least one boundary variable) --
Theorem 2.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.boolean.expr import BoolExpr, FALSE
from repro.boolean.system import EquationBlowupError
from repro.core.config import DgpmConfig
from repro.core.depgraph import DependencyGraphs
from repro.core.protocol import AlgorithmSpec, run_protocol
from repro.core.state import LocalEvalState, VarKey
from repro.graph.pattern import Pattern
from repro.partition.fragmentation import Fragmentation
from repro.runtime.engine import TickResult
from repro.runtime.messages import COORDINATOR, Message, MessageKind
from repro.runtime.metrics import RunResult


class _PushState:
    """Per-site bookkeeping for pushed (inlined) Boolean equations.

    When a child site pushes the equation of a virtual variable, this site
    becomes responsible for evaluating it from grandchild falsifications.
    ``equations[(u, v)]`` is the pending expression; leaves are variables
    owned by other sites.  ``leaf_index`` maps each leaf to the pushed
    variables mentioning it.
    """

    def __init__(self) -> None:
        self.equations: Dict[VarKey, BoolExpr] = {}
        self.leaf_index: Dict[VarKey, Set[VarKey]] = {}
        self.known_false_leaves: Set[VarKey] = set()

    def add(self, var: VarKey, expr: BoolExpr) -> Optional[VarKey]:
        """Register a pushed equation; returns ``var`` if already false."""
        expr = expr.substitute({leaf: FALSE for leaf in self.known_false_leaves})
        if expr == FALSE:
            return var
        self.equations[var] = expr
        for leaf in expr.variables():
            self.leaf_index.setdefault(leaf, set()).add(var)
        return None

    def on_leaf_false(self, leaf: VarKey) -> List[VarKey]:
        """A grandchild falsified ``leaf``; returns pushed vars now false."""
        self.known_false_leaves.add(leaf)
        out: List[VarKey] = []
        for var in list(self.leaf_index.get(leaf, ())):
            expr = self.equations.get(var)
            if expr is None:
                continue
            expr = expr.substitute({leaf: FALSE})
            if expr == FALSE:
                del self.equations[var]
                out.append(var)
            else:
                self.equations[var] = expr
        return out


class DgpmSiteProgram:
    """The per-site half of dGPM (procedures lEval + lMsg).

    ``compiled`` selects the engine: None evaluates over the dict engine's
    :class:`~repro.core.state.LocalEvalState`; a compiled-CSR cache
    (:class:`~repro.core.arraycompile.CompiledFragmentation`) over the array
    engine's :class:`~repro.core.arraystate.ArrayEvalState`.

    The array engine also ``batch_updates``: it ships the falsifications of
    one tick as **one** VAR_UPDATE per watcher site (the dGPMd Example-10
    merge) instead of one message per variable.  The same variables travel
    in the same round, so the fixpoint and the final relation are identical;
    only the envelope count differs.  The dict engine keeps the paper-exact
    per-variable accounting (Example 9 counts individual variables);
    batching is where vectorized falsification processing pays -- each
    delivered batch is one set of counter decrements.
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
        self.config = config
        self.cost = config.cost
        self._compiled = compiled
        self.state = self._new_state()
        #: array-engine fast path: besides batching, the state buffers
        #: falsifications as id arrays and we drain only the shippable
        #: (in-node) pairs, so interior falsifications never become Python
        #: tuples.
        self.batch_updates = compiled is not None
        if self.batch_updates:
            self.state.defer_drain = True
        #: full vectorized shipping: falsifications travel between sites as
        #: global-id arrays, routed through precomputed watcher groups.
        #: Requires the incremental protocol without push -- the push paths
        #: (rewires, equation leaves) are keyed by VarKey tuples.
        self._gid_ship = (
            self.batch_updates
            and config.incremental
            and not config.enable_push
            and self.state.compiled.gids is not None
        )
        #: falsified virtual vars accumulated so far (for from-scratch mode
        #: and for de-duplicating deliveries after a push rewire)
        self.known_false_virtual: Set[VarKey] = set()
        #: in-node vars whose falsity we already shipped
        self.shipped: Set[VarKey] = set()
        #: extra watchers added by rewire messages: var -> site ids
        self.extra_watchers: Dict[VarKey, Set[int]] = {}
        #: vars delegated away by our own push (no VAR_UPDATE needed anymore,
        #: but we keep shipping for safety -- receivers de-duplicate)
        self.pushed_vars: Set[VarKey] = set()
        self.push_done = False
        self.pushes_triggered = 0
        self.push_state = _PushState()

    def _new_state(self, known_false_virtual=()):
        """A fresh local evaluation state on this site's engine."""
        if self._compiled is None:
            return LocalEvalState(
                self.fragment, self.query, known_false_virtual=known_false_virtual
            )
        from repro.core.arraystate import ArrayEvalState  # lazy: dict runs never load it

        return ArrayEvalState(
            self._compiled.get(self.fid),
            self.fragment,
            self.query,
            self._compiled.interner,
            known_false_virtual,
        )

    # ------------------------------------------------------------------
    # lMsg: route falsifications along the dependency graph
    # ------------------------------------------------------------------
    def _messages_for(self, falsified: Iterable[VarKey]) -> List[Message]:
        per_site: Dict[int, List[VarKey]] = {}
        in_nodes = self.fragment.in_nodes
        shipped = self.shipped
        parents = self.query.parents
        watcher_sites = self.deps.watcher_sites
        extra = self.extra_watchers
        fid = self.fid
        for key in falsified:
            u, v = key
            if v not in in_nodes or key in shipped:
                continue
            if not parents(u) and key not in extra:
                # No query edge targets u, so no site's equation can mention
                # X(u, v); shipping it would be pure waste (Example 9 counts
                # confirm the paper skips these).
                continue
            shipped.add(key)
            targets = watcher_sites(fid, v)
            if extra:
                targets = targets | extra.get(key, set())
            for peer in targets:
                per_site.setdefault(peer, []).append(key)
        if self.batch_updates:
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
        return [
            Message(
                src=self.fid,
                dst=peer,
                kind=MessageKind.VAR_UPDATE,
                payload=[key],
                size_bytes=self.cost.var_batch_bytes(1),
            )
            for peer, entries in sorted(per_site.items())
            for key in entries
        ]

    def _ship_gid_batches(self) -> Tuple[List[Message], int]:
        """Drain the array state and ship falsifications as global-id arrays.

        One VAR_UPDATE per watcher site per tick, payload
        ``("gids", [(query node, id array), ...])``; byte accounting matches
        the VarKey batches (same variable count per peer).  Pairs ship at
        most once by construction -- a local pair falsifies at most once --
        so no ``shipped`` bookkeeping is needed.
        """
        from repro.core.arraycompile import require_numpy

        np = require_numpy()
        chunks, total = self.state.drain_shippable_ids()
        if not chunks:
            return [], total
        compiled = self.state.compiled
        group_of, groups = compiled.shipping_routes(self.deps)
        gids = compiled.gids
        per_peer: Dict[int, List] = {}
        sizes: Dict[int, int] = {}
        for u, ids in chunks:
            gsel = group_of[ids]
            uniq = np.unique(gsel)
            for gi in uniq.tolist():
                if gi < 0:
                    continue
                peers = groups[gi]
                if not peers:
                    continue
                batch = gids[ids] if uniq.size == 1 else gids[ids[gsel == gi]]
                for peer in peers:
                    per_peer.setdefault(peer, []).append((u, batch))
                    sizes[peer] = sizes.get(peer, 0) + int(batch.size)
        return [
            Message(
                src=self.fid,
                dst=peer,
                kind=MessageKind.VAR_UPDATE,
                payload=("gids", entries),
                size_bytes=self.cost.var_batch_bytes(sizes[peer]),
            )
            for peer, entries in sorted(per_peer.items())
        ], total

    def _ship_falsified(self, falsified: List[VarKey]) -> Tuple[List[Message], int]:
        """``(messages, n_falsified)`` for this tick's falsifications.

        On the deferred-drain fast path ``falsified`` is empty and the pairs
        still sit in the state's buffer; drain only the shippable ones unless
        a rewire added extra watchers (then every pair matters again).
        """
        if self.batch_updates:
            if self.extra_watchers:
                falsified = self.state.drain_newly_false()
            else:
                shippable, total = self.state.drain_for_shipping()
                return self._messages_for(shippable), total
        return self._messages_for(falsified), len(falsified)

    def _control_flag(self, changed: bool) -> Message:
        return Message(
            src=self.fid,
            dst=COORDINATOR,
            kind=MessageKind.CONTROL,
            payload=changed,
            size_bytes=self.cost.control_flag_bytes,
        )

    # ------------------------------------------------------------------
    # push operation (Section 4.2)
    # ------------------------------------------------------------------
    def _benefit(self, equations: Dict[VarKey, BoolExpr]) -> float:
        n_unresolved_virtual = len(self.state.virtual_candidates())
        unresolved_in = [k for k, e in equations.items() if not e.is_const()]
        m = sum(e.n_terms for k, e in equations.items() if k in set(unresolved_in))
        if not unresolved_in or m == 0:
            return 0.0
        return n_unresolved_virtual / (m * len(unresolved_in))

    def _try_push(self) -> List[Message]:
        """Ship in-node equations to watcher sites when B(Si) >= θ."""
        if self.push_done or not self.config.enable_push:
            return []
        try:
            equations = self.state.in_node_equations(self.config.push_max_terms)
        except EquationBlowupError:
            self.push_done = True
            return []
        pending = {k: e for k, e in equations.items() if not e.is_const()}
        if not pending:
            return []
        if self._benefit(equations) < self.config.push_threshold:
            return []
        self.push_done = True
        self.pushes_triggered += 1
        out: List[Message] = []
        rewires: Dict[int, List[Tuple[VarKey, int]]] = {}
        for (u, v), expr in sorted(pending.items(), key=repr):
            watchers = sorted(self.deps.watcher_sites(self.fid, v))
            for peer in watchers:
                out.append(
                    Message(
                        src=self.fid,
                        dst=peer,
                        kind=MessageKind.EQUATION,
                        payload=((u, v), expr),
                        size_bytes=self.cost.message_header_bytes
                        + self.cost.equation_bytes(expr.n_terms),
                    )
                )
                # Every leaf variable's owner must now also notify `peer`.
                for leaf_u, leaf_v in expr.variables():
                    owner = self.deps.owner_site(self.fid, leaf_v)
                    rewires.setdefault(owner, []).append(((leaf_u, leaf_v), peer))
            self.pushed_vars.add((u, v))
        for owner, entries in sorted(rewires.items()):
            out.append(
                Message(
                    src=self.fid,
                    dst=owner,
                    kind=MessageKind.REWIRE,
                    payload=entries,
                    size_bytes=self.cost.var_batch_bytes(len(entries)),
                )
            )
        return out

    # ------------------------------------------------------------------
    # engine hooks
    # ------------------------------------------------------------------
    def on_start(self) -> TickResult:
        falsified = self.state.run_initial()
        if self._gid_ship:
            messages, n_falsified = self._ship_gid_batches()
        else:
            messages, n_falsified = self._ship_falsified(falsified)
        messages.extend(self._try_push())
        if messages:
            messages.append(self._control_flag(True))
        return TickResult(messages=messages, halted=True, n_falsified=n_falsified)

    def on_tick(self, round_no: int, inbox: List[Message]) -> TickResult:
        incoming: List[VarKey] = []
        gid_chunks: List = []
        late_rewire_forwards: List[Message] = []
        for message in inbox:
            if message.kind == MessageKind.VAR_UPDATE:
                if self._gid_ship:
                    # payload = ("gids", [(query node, global-id array), ...])
                    gid_chunks.extend(message.payload[1])
                elif self.batch_updates:
                    # The array state drops already-false pairs vectorized, so
                    # skip the per-key dedup; bulk-update the seen set below.
                    incoming.extend(message.payload)
                else:
                    for key in message.payload:
                        if key not in self.known_false_virtual:
                            self.known_false_virtual.add(key)
                            incoming.append(key)
            elif message.kind == MessageKind.EQUATION:
                var, expr = message.payload
                immediately_false = self.push_state.add(var, expr)
                if immediately_false is not None:
                    incoming.append(immediately_false)
            elif message.kind == MessageKind.REWIRE:
                for var, new_watcher in message.payload:
                    self.extra_watchers.setdefault(var, set()).add(new_watcher)
                    # If we already falsified it, forward to the new watcher
                    # so nothing is lost in flight.
                    if var in self.shipped:
                        late_rewire_forwards.append(
                            Message(
                                src=self.fid,
                                dst=new_watcher,
                                kind=MessageKind.VAR_UPDATE,
                                payload=[var],
                                size_bytes=self.cost.var_batch_bytes(1),
                            )
                        )

        if self.batch_updates and incoming:
            self.known_false_virtual.update(incoming)

        # Pushed equations react to leaf falsifications as well.  (Skip the
        # bookkeeping entirely while no equation has ever been pushed here --
        # the common case, and a per-variable cost otherwise.)
        if self.push_state.leaf_index:
            for key in list(incoming):
                for var in self.push_state.on_leaf_false(key):
                    incoming.append(var)
        elif incoming:
            self.push_state.known_false_leaves.update(incoming)

        if not incoming and not gid_chunks:
            return TickResult(messages=late_rewire_forwards, halted=True)

        if self._gid_ship:
            self.state.falsify_virtual_gids(gid_chunks)
            if incoming:  # push machinery is off here; belt and braces
                self.state.falsify_virtual(incoming)
            messages, n_falsified = self._ship_gid_batches()
        elif self.config.incremental:
            falsified = self.state.falsify_virtual(incoming)
            messages, n_falsified = self._ship_falsified(falsified)
        else:
            falsified = self._recompute_from_scratch(incoming)
            messages = self._messages_for(falsified)
            n_falsified = len(falsified)
        messages.extend(late_rewire_forwards)
        if messages:
            messages.append(self._control_flag(True))
        return TickResult(messages=messages, halted=True, n_falsified=n_falsified)

    def _recompute_from_scratch(self, incoming: List[VarKey]) -> List[VarKey]:
        """dGPMNOpt: rebuild the whole local evaluation on every message."""
        self.state = self._new_state(self.known_false_virtual)
        self.state.run_initial()
        # Newly falsified = current false in-node candidates not yet shipped.
        out: List[VarKey] = []
        for u in self.query.nodes():
            want = self.query.label(u)
            for v in self.fragment.in_nodes:
                if self.fragment.graph.label(v) != want:
                    continue
                if not self.state.is_candidate(u, v) and (u, v) not in self.shipped:
                    out.append((u, v))
        return out

    def collect(self) -> Message:
        matches = self.state.local_matches()
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


#: dGPM's entry in the algorithm registry (:mod:`repro.session.drivers`).
DGPM = AlgorithmSpec(
    name="dgpm",
    display_name="dGPM",
    engines=("dict", "array"),
    build_program=DgpmSiteProgram,
    extras={"pushes": (attrgetter("pushes_triggered"), sum)},
    unoptimized_name="dGPMNOpt",
    schedule_independent=True,
)


def execute_dgpm(
    query: Pattern,
    fragmentation: Fragmentation,
    config: Optional[DgpmConfig] = None,
    engine: str = "dict",
) -> RunResult:
    """One dGPM evaluation over throwaway structures (the full one-shot
    protocol); ``engine`` selects the local evaluation backend."""
    return run_protocol(DGPM, query, fragmentation, config, engine)


def run_dgpm(
    query: Pattern,
    fragmentation: Fragmentation,
    config: Optional[DgpmConfig] = None,
) -> RunResult:
    """Evaluate ``query`` over ``fragmentation`` with dGPM (Theorem 2).

    Returns the match relation plus metered PT/DS (see
    :class:`~repro.runtime.metrics.RunMetrics`).  With
    ``config.without_optimizations()`` this is the paper's dGPMNOpt.

    One-shot convenience: equivalent to
    ``SimulationSession(fragmentation, config=config).run(query,
    algorithm="dgpm")``; for repeated querying of a resident fragmentation,
    hold a :class:`~repro.session.SimulationSession` instead.
    """
    from repro.session import SimulationSession

    return SimulationSession(fragmentation, config=config).run(query, algorithm="dgpm")
