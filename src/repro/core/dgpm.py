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

Two programs implement the site side.  The protocol is defined by what sites
ship, not by how a machine holding several fragments computes their local
fixpoints: :class:`DgpmSiteProgram` (dict engine) is one program per site,
:class:`DgpmHostProgram` (array engine) one program for *all* sites of a
host that still emits every site's messages through the host's metered
network -- relation, rounds, messages, DS and pushes are the same.
"""

from __future__ import annotations

from functools import partial
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.boolean.expr import BoolExpr, FALSE
from repro.boolean.system import EquationBlowupError
from repro.core.arraycompile import gather_csr, require_numpy
from repro.core.config import DgpmConfig
from repro.core.depgraph import DependencyGraphs
from repro.core.protocol import AlgorithmSpec, per_site
from repro.core.state import LocalEvalState, VarKey
from repro.graph.digraph import Node
from repro.graph.pattern import Pattern
from repro.partition.fragmentation import Fragmentation
from repro.runtime.costmodel import CostModel
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
        known = self.known_false_leaves & expr.variables()
        if known:
            expr = expr.substitute(dict.fromkeys(known, FALSE))
        if expr == FALSE:
            return var
        self.equations[var] = expr
        for leaf in expr.variables():
            self.leaf_index.setdefault(leaf, set()).add(var)
        return None

    def on_leaf_false(self, leaf: VarKey) -> List[VarKey]:
        """A grandchild falsified ``leaf``; returns pushed vars now false."""
        return self.on_leaves_false([leaf])

    def on_leaves_false(self, leaves: List[VarKey], memo=None) -> List[VarKey]:
        """Grandchildren falsified ``leaves``; returns pushed vars now false.

        Each equation is substituted once, however many of its leaves fell.
        ``memo`` maps ``(equation, fallen leaves)`` to the result and may be
        shared by the sites of a host for a round: one pushed equation
        reaches every watcher of its variable, and the same leaves then
        fall on it at each of them."""
        memo = {} if memo is None else memo
        self.known_false_leaves.update(leaves)
        fell: Dict[VarKey, List[VarKey]] = {}
        if self.leaf_index:
            for leaf in leaves:
                for var in self.leaf_index.get(leaf, ()):
                    fell.setdefault(var, []).append(leaf)
        out: List[VarKey] = []
        for var, falsified in fell.items():
            expr = self.equations.get(var)
            if expr is None:
                continue
            key = (expr, frozenset(falsified))
            expr = memo.get(key)
            if expr is None:
                expr = memo[key] = key[0].substitute(dict.fromkeys(falsified, FALSE))
            if expr == FALSE:
                del self.equations[var]
                out.append(var)
            else:
                self.equations[var] = expr
        return out


def _control_flag(fid: int, cost: CostModel) -> Message:
    """Site ``fid`` tells the coordinator that it changed something."""
    return Message(fid, COORDINATOR, MessageKind.CONTROL, True, cost.control_flag_bytes)


def _var_update(cost: CostModel, src: int, dst: int, payload, n_vars: int) -> Message:
    """``n_vars`` falsified variables on their way from ``src`` to ``dst``."""
    return Message(src, dst, MessageKind.VAR_UPDATE, payload, cost.var_batch_bytes(n_vars))


def _result_message(fid: int, matches: Dict[Node, Set[Node]], config: DgpmConfig) -> Message:
    """Site ``fid``'s local matches (or only whether it has any) for ``Sc``."""
    if config.boolean_only:
        payload = {u: bool(vs) for u, vs in matches.items()}
        size = len(payload)
    else:
        payload = matches
        size = sum(len(vs) for vs in matches.values())
    return Message(
        fid, COORDINATOR, MessageKind.RESULT, payload, config.cost.var_batch_bytes(size)
    )


def _benefit(n_unresolved_virtual: int, pending: Iterable[BoolExpr]) -> float:
    """B(Si) = |Fi.O'| / (m * |Fi.I'|) over the unresolved in-node equations."""
    sizes = [expr.n_terms for expr in pending]
    m = sum(sizes)
    if m == 0:
        return 0.0
    return n_unresolved_virtual / (m * len(sizes))


def _push_messages(
    fid: int,
    pending: Dict[VarKey, BoolExpr],
    deps: DependencyGraphs,
    cost: CostModel,
    code_of: Optional[Dict[VarKey, int]] = None,
    here=(),
) -> List[Message]:
    """Site ``fid``'s push: every pending in-node equation to its watcher
    sites, and a REWIRE to the owner of every leaf.

    With ``code_of`` (the array engine: the sender's pair code of every
    variable it names), a payload becomes ``(payload, codes)``: for a
    receiver in ``here`` the sender's codes of the variables it names --
    EQUATION ``[var, *expr.variables()]``, REWIRE one per entry -- for the
    host to translate into the receiver's, None for a receiver elsewhere.
    """
    out: List[Message] = []
    rewires: Dict[int, List[Tuple[VarKey, int]]] = {}
    for var, expr in sorted(pending.items(), key=lambda item: repr(item[0])):
        size = cost.message_header_bytes + cost.equation_bytes(expr.n_terms)
        leaves = list(expr.variables())
        # Every leaf variable's owner must now also notify the watchers.
        owners = [deps.owner_site(fid, leaf[1]) for leaf in leaves]
        named = None if code_of is None else [code_of[var], *map(code_of.__getitem__, leaves)]
        for peer in sorted(deps.watcher_sites(fid, var[1])):
            payload = (var, expr) if code_of is None else (
                (var, expr), named if peer in here else None
            )
            out.append(Message(fid, peer, MessageKind.EQUATION, payload, size))
            for leaf, owner in zip(leaves, owners):
                rewires.setdefault(owner, []).append((leaf, peer))
    for owner, entries in sorted(rewires.items()):
        payload = entries if code_of is None else (
            entries, [code_of[leaf] for leaf, _ in entries] if owner in here else None
        )
        out.append(
            Message(fid, owner, MessageKind.REWIRE, payload, cost.var_batch_bytes(len(entries)))
        )
    return out


class DgpmSiteProgram:
    """The per-site half of dGPM (procedures lEval + lMsg), dict engine.

    Evaluates over :class:`~repro.core.state.LocalEvalState` and keeps the
    paper-exact accounting: one VAR_UPDATE per falsified variable per watcher
    site (Example 9 counts individual variables).
    """

    def __init__(
        self,
        fid: int,
        fragmentation: Fragmentation,
        query: Pattern,
        deps: DependencyGraphs,
        config: DgpmConfig,
    ) -> None:
        self.fid = fid
        self.fragment = fragmentation[fid]
        self.query = query
        self.deps = deps
        self.config = config
        self.cost = config.cost
        self.state = LocalEvalState(self.fragment, query)
        #: falsified virtual vars accumulated so far (for from-scratch mode
        #: and for de-duplicating deliveries after a push rewire)
        self.known_false_virtual: Set[VarKey] = set()
        #: in-node vars whose falsity we already shipped
        self.shipped: Set[VarKey] = set()
        #: extra watchers added by rewire messages: var -> site ids
        self.extra_watchers: Dict[VarKey, Set[int]] = {}
        self.push_done = False
        self.pushes_triggered = 0
        self.push_state = _PushState()

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
        return [
            _var_update(self.cost, self.fid, peer, [key], 1)
            for peer, entries in sorted(per_site.items())
            for key in entries
        ]

    # ------------------------------------------------------------------
    # push operation (Section 4.2)
    # ------------------------------------------------------------------
    def _benefit(self, equations: Dict[VarKey, BoolExpr]) -> float:
        return _benefit(
            len(self.state.virtual_candidates()),
            [expr for expr in equations.values() if not expr.is_const()],
        )

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
        # (the pushed variables keep shipping as values too: receivers
        # de-duplicate, and nothing depends on the equation arriving first)
        return _push_messages(self.fid, pending, self.deps, self.cost)

    # ------------------------------------------------------------------
    # engine hooks
    # ------------------------------------------------------------------
    def on_start(self) -> TickResult:
        falsified = self.state.run_initial()
        messages = self._messages_for(falsified)
        messages.extend(self._try_push())
        if messages:
            messages.append(_control_flag(self.fid, self.cost))
        return TickResult(messages=messages, halted=True, n_falsified=len(falsified))

    def on_tick(self, round_no: int, inbox: List[Message]) -> TickResult:
        incoming: List[VarKey] = []
        late_rewire_forwards: List[Message] = []
        for message in inbox:
            if message.kind == MessageKind.VAR_UPDATE:
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
                            _var_update(self.cost, self.fid, new_watcher, [var], 1)
                        )

        # Pushed equations react to leaf falsifications as well.  (Skip the
        # bookkeeping entirely while no equation has ever been pushed here --
        # the common case, and a per-variable cost otherwise.)
        if self.push_state.leaf_index:
            for key in list(incoming):
                for var in self.push_state.on_leaf_false(key):
                    incoming.append(var)
        elif incoming:
            self.push_state.known_false_leaves.update(incoming)

        if not incoming:
            return TickResult(messages=late_rewire_forwards, halted=True)

        if self.config.incremental:
            falsified = self.state.falsify_virtual(incoming)
        else:
            falsified = self._recompute_from_scratch()
        messages = self._messages_for(falsified)
        messages.extend(late_rewire_forwards)
        if messages:
            messages.append(_control_flag(self.fid, self.cost))
        return TickResult(messages=messages, halted=True, n_falsified=len(falsified))

    def _recompute_from_scratch(self) -> List[VarKey]:
        """dGPMNOpt: rebuild the whole local evaluation on every message."""
        self.state = LocalEvalState(
            self.fragment, self.query, known_false_virtual=self.known_false_virtual
        )
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
        return _result_message(self.fid, self.state.local_matches(), self.config)


class DgpmHostProgram:
    """dGPM for *every* site of one host as one array program (``engine="array"``).

    The sites' fragments form one block-diagonal
    :class:`~repro.core.arraycompile.HostSnapshot`, and one
    :class:`~repro.core.arraystate.ArrayEvalState` over it holds all their
    local fixpoints: a step is one set of counter waves for the host, not
    one per site.  What the sites *say* is untouched.  Per round the program
    emits the messages its sites would: one VAR_UPDATE per (site, watcher
    site) with that round's falsified in-node variables (batched, the dGPMd
    Example-10 merge, where the dict engine sends one message per variable:
    same variables, same round, fewer envelopes), the same EQUATION / REWIRE
    / CONTROL envelopes, one RESULT per site.  Mail between two of its own
    sites leaves through the host's network like any other and is in next
    round's inbox: metered, scramble-able, a round late.

    A variable is a *pair code* ``query index * N + row`` in here; the row
    names the site, so the tables below are per-site records.  A VAR_UPDATE
    payload is ``(keys, codes)``: ``(u, v)`` keys -- all that a site on
    another host, or one watching by rewire only, can read -- and, for
    co-located watchers, the codes of their virtual copies (the snapshot's
    delivery table), applied without a Python loop.  Every site has its own
    :class:`_PushState`, and B(Si) >= θ is decided per site from per-block
    counts of the one pessimistic bracket.

    The push is paid once per host, not per site: one pessimistic bracket
    and one pass that builds every site's dependent equation subsystem
    (:meth:`~repro.core.arraystate.ArrayEvalState.in_node_equations`), then
    one reduction per site (the blow-up budget is per site).  Its EQUATION
    / REWIRE payloads are ``(payload, codes)``: for a co-located receiver
    the receiver's codes of the variables named (EQUATION ``[var,
    *expr.variables()]``, ``-1`` for a leaf it holds no virtual copy of;
    REWIRE the owner's code per entry), translated in one lookup per push
    (:meth:`~repro.core.arraycompile.HostSnapshot.copy_rows`); None for a
    receiver on another host, which locates the keys.  Adoption then reads
    the candidate bits at those codes, and a site's fallen leaves are
    applied to its pushed equations in one batch a round.
    """

    def __init__(self, fids, query, deps, config, compiled) -> None:
        from repro.core.arraystate import ArrayEvalState  # lazy: dict runs never load it

        np = require_numpy()
        self.fids: Tuple[int, ...] = tuple(fids)
        self.deps = deps
        self.config = config
        self.cost = config.cost
        self.snapshot = compiled.host(self.fids, deps)
        self._new_state = partial(ArrayEvalState, self.snapshot, query, compiled.interner)
        self.state = self._new_state()
        #: query nodes some query edge targets: no equation anywhere mentions
        #: the variables of the others, so only these ship (Example 9)
        self._parented = np.asarray([bool(ps) for ps in self.state.view.parents])
        #: (Q, N): in-node variables whose falsity has been shipped
        self.shipped = np.zeros_like(self.state.sim)
        #: (Q, N): variables received false -- what dGPMNOpt re-seeds from
        self.received = np.zeros_like(self.state.sim)
        #: watchers that read keys, pair code -> site ids: sites on other
        #: hosts, and sites that watch by rewire only (they may hold no copy
        #: of the node); co-located regular watchers are the delivery table's
        self.key_watchers: Dict[int, Set[int]] = {
            qi * self.snapshot.n_nodes + row: set(peers)
            for row, peers in self.snapshot.external.items()
            for qi in range(len(self._parented))
        }
        self.push_states: Dict[int, _PushState] = {fid: _PushState() for fid in self.fids}
        #: a pushed equation's leaf that is a virtual variable of the site
        #: holding the equation: pair code -> (that site, the leaf)
        self._leaf_at: Dict[int, Tuple[int, VarKey]] = {}
        #: per site, its adopted pushed variables' own codes
        self._pushed: Dict[int, Dict[VarKey, int]] = {fid: {} for fid in self.fids}
        self._block: Dict[int, int] = {fid: k for k, fid in enumerate(self.fids)}
        self.pushes_triggered = 0

    def _locate(self, fid: int, key: VarKey) -> Optional[int]:
        """The pair code of variable ``key`` in site ``fid``'s block; None if
        that fragment has no copy of the node."""
        qi = self.state.view.qindex.get(key[0])
        row = self.snapshot.row_of(fid, key[1])
        return None if qi is None or row is None else qi * self.snapshot.n_nodes + row

    # ------------------------------------------------------------------
    # lMsg: route falsifications along the dependency graph
    # ------------------------------------------------------------------
    def _ship(self, codes) -> List[Message]:
        """The VAR_UPDATEs for the newly false variables ``codes``."""
        np = require_numpy()
        snap, fids, cost, n = self.snapshot, self.fids, self.cost, self.snapshot.n_nodes
        qis, rows = np.divmod(codes, n)
        keep = self._parented[qis] & snap.in_mask[rows]
        codes, qis, rows = codes[keep], qis[keep], rows[keep]
        if not codes.size:
            return []
        self.shipped.flat[codes] = True

        keyed: Dict[Tuple[int, int], List[VarKey]] = {}  # (site, watcher site) -> keys
        if self.key_watchers:
            for code in self.key_watchers.keys() & set(codes.tolist()):
                qi, row = divmod(code, n)
                key = (self.state.view.qnodes[qi], snap.nodes[row])
                for peer in self.key_watchers[code]:
                    keyed.setdefault((fids[snap.site_of[row]], peer), []).append(key)

        # Co-located watchers: the codes of their virtual copies, grouped by
        # (site, watcher site).
        messages: List[Message] = []
        targets, copies = gather_csr(snap.deliver_indptr, snap.deliver_rows, rows)
        if targets.size:
            k = len(fids)
            pair = np.repeat(snap.site_of[rows], copies) * k + snap.site_of[targets]
            order = np.argsort(pair, kind="stable")
            pair, codes = pair[order], (np.repeat(qis, copies) * n + targets)[order]
            cuts = [0, *(np.flatnonzero(pair[1:] != pair[:-1]) + 1).tolist(), pair.size]
            for p, lo, hi in zip(pair[cuts[:-1]].tolist(), cuts, cuts[1:]):
                src, dst = fids[p // k], fids[p % k]
                keys = keyed.pop((src, dst), ()) if keyed else ()
                messages.append(
                    _var_update(cost, src, dst, (keys, codes[lo:hi]), hi - lo + len(keys))
                )
        for (src, dst), keys in keyed.items():
            messages.append(_var_update(cost, src, dst, (keys, None), len(keys)))
        return messages

    # ------------------------------------------------------------------
    # push operation (Section 4.2)
    # ------------------------------------------------------------------
    def _try_push(self) -> List[Message]:
        """Every site with B(Si) >= θ ships its in-node equations: one
        pessimistic bracket and one equation build for the host, one symbolic
        reduction per site that has an unresolved in-node variable."""
        if not self.config.enable_push:
            return []
        np = require_numpy()
        state, snap = self.state, self.snapshot
        pess = state.pessimistic()
        per_row = (state.sim & snap.virtual_mask).sum(axis=0)  # |Fi.O'|, by block
        n_virtual = np.bincount(snap.site_of, weights=per_row, minlength=len(self.fids))
        out: List[Message] = []
        by_block = state.in_node_equations(pess, self.config.push_max_terms)
        for k, (equations, code_of) in by_block.items():
            pending = {key: e for key, e in equations.items() if not e.is_const()}
            if pending and (
                _benefit(n_virtual[k], pending.values()) >= self.config.push_threshold
            ):
                self.pushes_triggered += 1
                out.extend(_push_messages(
                    self.fids[k], pending, self.deps, self.cost, code_of, self._block
                ))
        self._translate_codes(out)
        return out

    def _translate_codes(self, messages: List[Message]) -> None:
        """Turn the sender's codes in the push ``messages`` for co-located
        sites into the receivers' codes, one lookup per message kind: an
        EQUATION names virtual variables of its receiver (a leaf the
        receiver holds no virtual copy of becomes ``-1``: only its key
        reaches it), a REWIRE variables of the owner itself."""
        np = require_numpy()
        snap, n = self.snapshot, self.snapshot.n_nodes
        for kind in (MessageKind.EQUATION, MessageKind.REWIRE):
            coded = [m for m in messages if m.kind == kind and m.payload[1] is not None]
            if not coded:
                continue
            sizes = [len(m.payload[1]) for m in coded]
            qis, rows = np.divmod(
                np.fromiter((c for m in coded for c in m.payload[1]), np.int64, sum(sizes)), n
            )
            blocks = np.repeat(
                np.fromiter((self._block[m.dst] for m in coded), np.int64, len(coded)), sizes
            )
            there = snap.copy_rows(rows, blocks)
            ok = there >= 0
            if kind == MessageKind.EQUATION:
                ok[ok] = snap.virtual_mask[there[ok]]
            codes = np.where(ok, qis * n + there, -1).tolist()
            at = 0
            for message, size in zip(coded, sizes):
                message.payload = (message.payload[0], codes[at:at + size])
                at += size

    def _adopt_equation(self, fid: int, var: VarKey, expr: BoolExpr, codes, sim) -> Optional[int]:
        """Site ``fid`` takes over the pushed equation of its virtual
        variable ``var``; ``codes`` are fid's codes of ``[var, *leaves]``
        (None: the sender is on another host, so they are located here) and
        ``sim`` the host's candidate bits.  Returns ``var``'s code if the
        equation is false on arrival."""
        if codes is None:
            virtual, n = self.snapshot.virtual_mask, self.snapshot.n_nodes
            codes = []
            for key in (var, *expr.variables()):
                code = self._locate(fid, key)
                codes.append(-1 if code is None or not virtual[code % n] else code)
        known: List[VarKey] = []  # leaves this site was already told are false
        waiting: Dict[int, Tuple[int, VarKey]] = {}
        for leaf, code in zip(expr.variables(), codes[1:]):
            if code >= 0:
                if sim[code]:
                    waiting[code] = (fid, leaf)
                else:
                    known.append(leaf)
        if known:
            expr = expr.substitute(dict.fromkeys(known, FALSE))
        if self.push_states[fid].add(var, expr) is not None:
            return codes[0]
        self._pushed[fid][var] = codes[0]
        self._leaf_at.update(waiting)
        return None

    def _rewire(self, fid: int, entries, codes) -> List[Message]:
        """Site ``fid``'s variables gain watchers; the ones already shipped
        are forwarded now, so nothing is lost in flight.  ``codes`` are
        fid's codes of the entries' variables (None: located here)."""
        if codes is None:
            codes = [self._locate(fid, var) for var, _ in entries]
        forwards: List[Message] = []
        shipped = self.shipped.ravel()
        for (var, new_watcher), code in zip(entries, codes):
            if code is None or code < 0:
                continue
            if shipped[code]:
                forwards.append(_var_update(self.cost, fid, new_watcher, ([var], None), 1))
            elif new_watcher not in self.deps.watcher_sites(fid, var[1]):
                self.key_watchers.setdefault(code, set()).add(new_watcher)
        return forwards

    # ------------------------------------------------------------------
    # engine hooks
    # ------------------------------------------------------------------
    def _finish(self, messages: List[Message], changed, n_falsified: int) -> TickResult:
        """Close a step: a changed-flag from every site of ``changed`` that
        sent something, and the busiest site's share of the step's counter
        decrements (an even split when there were none)."""
        np = require_numpy()
        senders = {message.src for message in messages}
        messages.extend(_control_flag(fid, self.cost) for fid in changed if fid in senders)
        work = np.bincount(
            self.snapshot.site_of, weights=self.state.row_work, minlength=len(self.fids)
        )
        self.state.row_work[:] = 0
        total = work.sum()
        share = work.max() / total if total else 1.0 / max(len(changed), 1)
        return TickResult(
            messages=messages, halted=True, n_falsified=n_falsified, slowest_share=float(share)
        )

    def on_start(self) -> TickResult:
        self.state.run_initial()
        falsified = self.state.take_newly_false()
        messages = self._ship(falsified)
        messages.extend(self._try_push())
        return self._finish(messages, self.fids, falsified.size)

    def on_tick(self, round_no: int, inbox: List[Message]) -> TickResult:
        np = require_numpy()
        parts: List = []  # received falsifications: pair codes ...
        told: List[int] = []  # ... those that arrived as keys, or false on arrival
        keys_of: Dict[int, List[VarKey]] = {}  # per site, what its pushed equations see
        changed: Set[int] = set()  # sites that received a falsification
        forwards: List[Message] = []
        sim = None  # the candidate bits as bytes, while a push is being adopted
        for message in inbox:
            if message.kind == MessageKind.VAR_UPDATE:
                keys, codes = message.payload
                changed.add(message.dst)
                if keys:
                    keys_of.setdefault(message.dst, []).extend(keys)
                    for key in keys:
                        code = self._locate(message.dst, key)
                        if code is not None:
                            told.append(code)
                if codes is not None:
                    parts.append(codes)
            elif message.kind == MessageKind.EQUATION:
                if sim is None:
                    sim = self.state.sim.tobytes()
                (var, expr), codes = message.payload
                code = self._adopt_equation(message.dst, var, expr, codes, sim)
                if code is not None:
                    changed.add(message.dst)
                    keys_of.setdefault(message.dst, []).append(var)
                    told.append(code)
            elif message.kind == MessageKind.REWIRE:
                forwards.extend(self._rewire(message.dst, *message.payload))
        if not changed:
            return self._finish(forwards, (), 0)

        # Pushed equations react to leaf falsifications as well: the keys a
        # site was sent and the leaves that arrived as codes, one batch a site.
        parts.append(np.asarray(told, dtype=np.int64))
        codes = np.concatenate(parts)
        if self._leaf_at:
            for code in self._leaf_at.keys() & set(codes.tolist()):
                fid, leaf = self._leaf_at.pop(code)
                keys_of.setdefault(fid, []).append(leaf)
        derived: List[int] = []  # pushed variables now false
        memo: Dict = {}
        for fid, keys in keys_of.items():
            pushed = self._pushed[fid]
            derived.extend(
                [pushed[v] for v in self.push_states[fid].on_leaves_false(keys, memo)]
            )

        if self.config.incremental:
            self.state.falsify(np.concatenate((codes, np.asarray(derived, dtype=np.int64))))
            falsified = self.state.take_newly_false()
        else:
            # dGPMNOpt: rebuild the whole evaluation from what was received
            # (not from what the pushed equations derived: their owners ship
            # those anyway); every false in-node candidate not yet shipped
            # is then offered for shipping.
            self.received.flat[codes] = True
            self.state = self._new_state(self.received)
            self.state.run_initial()
            falsified = np.flatnonzero(
                self.state.view.label_match
                & ~self.state.sim
                & self.snapshot.in_mask
                & ~self.shipped
            )
        messages = self._ship(falsified)
        messages.extend(forwards)
        return self._finish(messages, changed, falsified.size)

    def collect(self) -> List[Message]:
        np = require_numpy()
        snap, view = self.snapshot, self.state.view
        matches: List[Dict[Node, Set[Node]]] = [{} for _ in self.fids]
        for i, u in enumerate(view.qnodes):
            rows = np.nonzero(self.state.sim[i] & snap.local_mask)[0]
            cuts = np.searchsorted(rows, snap.starts).tolist()
            nodes = [snap.nodes[row] for row in rows.tolist()]
            for k, found in enumerate(matches):
                found[u] = set(nodes[cuts[k]:cuts[k + 1]])
        return [
            _result_message(fid, found, self.config)
            for fid, found in zip(self.fids, matches)
        ]


def _build_programs(fids, fragmentation, query, deps, config, compiled):
    """dGPM's programs for one host: a dict-engine program per site, or
    (under ``engine="array"``) one array program standing for all of them."""
    if compiled is None or not fids:
        return per_site(DgpmSiteProgram)(fids, fragmentation, query, deps, config)
    return dict.fromkeys(fids, DgpmHostProgram(fids, query, deps, config, compiled))


#: dGPM's entry in the served registry, :data:`repro.core.dispatch.ALGORITHMS`.
DGPM = AlgorithmSpec(
    name="dgpm",
    display_name="dGPM",
    build_programs=_build_programs,
    extras={"pushes": (attrgetter("pushes_triggered"), sum)},
    unoptimized_name="dGPMNOpt",
    schedule_independent=True,
)


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
