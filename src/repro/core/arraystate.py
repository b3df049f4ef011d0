"""Array-native evaluation states (``engine="array"``).

:class:`ArrayEvalState` is dGPM's counterpart of
:class:`~repro.core.state.LocalEvalState`, over a
:class:`~repro.core.arraycompile.HostSnapshot` -- all fragments of a host as
one block-diagonal snapshot, so one state evaluates every co-located site:
candidate sets ``sim(u)`` are one bool row per query node over the host's
rows, and the HHK successor counters are a ``|V| x |Q|`` int matrix.
Processing a falsification batch is vectorized counter decrements plus
``nonzero(count == 0)`` worklist extraction -- one numpy wave per
(query-node, removal-batch) pair, whatever the number of sites, instead of
a Python loop per (node, node) pair -- with exactly the dict engine's
semantics per block (same fixpoint, same newly-falsified local variables):
no edge leaves a block, so no wave does.

The symbolic side (:meth:`ArrayEvalState.in_node_equations`) exploits
monotonicity instead of brute-force reduction: every expression in play is a
conj/disj of variables, so evaluating the *pessimistic* fixpoint (all
virtual variables false -- one extra vectorized propagation for the whole
host) brackets every pair between ``sim`` (the optimistic fixpoint) and
``pess``.  Pairs true in ``pess`` are definitively TRUE; pairs outside
``sim`` are already falsified; only the (typically thin) boundary slice in
between genuinely depends on virtual variables and enters the symbolic
reduction, site by site.  The reduced equations are logically equal to the
dict engine's (same greatest fixpoint projected onto the same virtual
variables), just built from a system that is orders of magnitude smaller.

:class:`ArrayRankState` vectorizes dGPMd's per-rank exact evaluation, and
:class:`ArrayTreeState` vectorizes dGPMt's bottom-up subtree sweep with the
same optimistic/pessimistic bracketing (symbolic expressions only for pairs
whose value actually depends on child-fragment roots).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.boolean.expr import BoolExpr, FALSE, TRUE, Var, conj, disj
from repro.core.arraycompile import (
    CompiledFragment,
    HostSnapshot,
    gather_csr,
    require_numpy,
    segment_any,
    segment_sum_full,
)
from repro.core.state import VarKey
from repro.graph.digraph import Node
from repro.graph.pattern import Pattern


class _QueryView:
    """The query compiled against a snapshot's rows."""

    __slots__ = (
        "qnodes", "qindex", "qlab", "label_match", "children", "parents", "relevant",
    )

    def __init__(
        self, compiled: Union[CompiledFragment, HostSnapshot], query: Pattern, interner
    ) -> None:
        np = require_numpy()
        self.qnodes: Tuple[Node, ...] = tuple(query.nodes())
        self.qindex: Dict[Node, int] = {u: i for i, u in enumerate(self.qnodes)}
        self.qlab: List[int] = [
            interner.intern(query.label(u)) for u in self.qnodes
        ]
        #: (Q, N) bool -- label agreement, the optimistic seed of sim
        #: (rows copied from the snapshot's per-label cache)
        self.label_match = np.empty((len(self.qnodes), compiled.n_nodes), dtype=bool)
        for i, lab in enumerate(self.qlab):
            self.label_match[i] = compiled.label_row(lab)
        self.children: List[List[int]] = [
            [self.qindex[w] for w in query.children(u)] for u in self.qnodes
        ]
        self.parents: List[List[int]] = [
            [self.qindex[w] for w in query.parents(u)] for u in self.qnodes
        ]
        #: query nodes some edge targets (the only ones counters exist for)
        self.relevant: List[int] = [i for i, ps in enumerate(self.parents) if ps]


class ArrayEvalState:
    """Counter-based partial evaluation over a host snapshot.

    The array counterpart of :class:`~repro.core.state.LocalEvalState` for
    *every* site of a host at once (:class:`~repro.core.dgpm.DgpmHostProgram`
    drives it): ``run_initial`` / ``falsify`` move all blocks to their local
    fixpoints, ``take_newly_false`` hands out what they falsified, and
    ``pessimistic`` / ``in_node_equations`` are the symbolic side.  A variable
    crosses this interface as a *pair code*, ``query index * N + row``; the
    program translates to ``(u, v)`` keys at the host's edge.

    ``known_false`` is a ``(Q, N)`` bool mask of virtual variables already
    known false (dGPMNOpt rebuilds its state from it on every message).
    ``row_work`` accumulates counter decrements per row, from which the
    program apportions a step's time to the sites.
    """

    def __init__(
        self, compiled: HostSnapshot, query: Pattern, interner, known_false=None
    ) -> None:
        np = require_numpy()
        self.compiled = compiled
        self.view = _QueryView(compiled, query, interner)
        #: (Q, N) bool -- not-yet-falsified candidates (local and virtual)
        self.sim = self.view.label_match.copy()
        if known_false is not None:
            self.sim &= ~known_false

        # count[v, j] = |succ(v) ∩ sim(q_j)| -- with a pristine sim this is
        # the snapshot's cached per-label column; pre-removals (dGPMNOpt)
        # force the per-query segment-sum (removals change the seed).
        n = compiled.n_nodes
        self.count = np.zeros((n, len(self.view.qnodes)), dtype=np.int64)
        for j in self.view.relevant:
            if known_false is not None:
                self.count[:, j] = segment_sum_full(
                    self.sim[j, compiled.fwd_indices], compiled.fwd_indptr
                )
            else:
                self.count[:, j] = compiled.count_col(self.view.qlab[j])

        self._newly_false: List = []  # pair-code arrays
        self.row_work = np.zeros(n, dtype=np.int64)
        self._initialized = False

    # ------------------------------------------------------------------
    # fixpoint machinery
    # ------------------------------------------------------------------
    def run_initial(self) -> None:
        """Seed with all local violations; propagate to the local fixpoints."""
        np = require_numpy()
        if self._initialized:
            raise RuntimeError("run_initial may only be called once")
        self._initialized = True
        c, view = self.compiled, self.view
        frontier: List[Tuple[int, object]] = []
        for i, children in enumerate(view.children):
            if not children:
                continue
            bad = self.sim[i] & c.local_mask
            bad &= (self.count[:, children] == 0).any(axis=1)
            idx = np.nonzero(bad)[0]
            if idx.size:
                self.sim[i, idx] = False
                self._newly_false.append(i * c.n_nodes + idx)
                frontier.append((i, idx))
        self._propagate(self.sim, self.count, frontier, record=True)

    def falsify(self, codes) -> None:
        """Apply received falsifications, given as pair codes; duplicates and
        already-false pairs drop out."""
        np = require_numpy()
        flat = self.sim.ravel()  # a view: sim is C-contiguous
        codes = np.unique(codes)
        codes = codes[flat[codes]]
        flat[codes] = False
        qis, rows = np.divmod(codes, self.compiled.n_nodes)
        frontier = [(qi, rows[qis == qi]) for qi in np.unique(qis).tolist()]
        self._propagate(self.sim, self.count, frontier, record=True)

    def _propagate(self, sim, count, frontier, record: bool) -> None:
        """Vectorized counter waves: one wave = one query node's pending batch.

        Pending removal batches are coalesced per query node before each
        wave (decrements are additive, and a pair is removed at most once,
        so batching order never changes the fixpoint) -- big batches are
        exactly where one ``bincount`` beats per-pair loops.  Predecessors
        are always local and in the same block (fragments never store
        out-edges of virtual nodes), so every newly-zero counter row is a
        local node and every removal it causes is a local falsification.
        """
        np = require_numpy()
        c, view = self.compiled, self.view
        n = c.n_nodes
        pending: Dict[int, List] = {}
        for i, removed in frontier:
            pending.setdefault(i, []).append(removed)
        while pending:
            i, chunks = pending.popitem()
            removed = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
            preds, _ = gather_csr(c.rev_indptr, c.rev_indices, removed)
            if preds.size == 0:
                continue
            dec = np.bincount(preds, minlength=n)
            aff = np.nonzero(dec)[0]
            dec = dec[aff]
            self.row_work[aff] += dec
            col = count[:, i]
            before = col[aff]
            after = before - dec
            col[aff] = after
            newly_zero = aff[(before > 0) & (after == 0)]
            if newly_zero.size == 0:
                continue
            for p in view.parents[i]:
                rm = newly_zero[sim[p, newly_zero]]
                if rm.size:
                    sim[p, rm] = False
                    if record:
                        self._newly_false.append(p * n + rm)
                    pending.setdefault(p, []).append(rm)

    def take_newly_false(self):
        """Take (and clear) the buffer of newly falsified local variables, as
        one array of pair codes."""
        np = require_numpy()
        buffered, self._newly_false = self._newly_false, []
        return np.concatenate(buffered) if buffered else np.empty(0, dtype=np.int64)

    # ------------------------------------------------------------------
    # symbolic equations (Example 6, push)
    # ------------------------------------------------------------------
    def pessimistic(self):
        """The fixpoint with every virtual variable false (one extra sweep).

        Monotonicity makes this an exact lower bracket: a pair true here is
        true under *any* valuation of the virtual variables.
        """
        np = require_numpy()
        c = self.compiled
        pess = self.sim.copy()
        pess_count = self.count.copy()
        frontier = []
        for i in range(len(self.view.qnodes)):
            idx = np.nonzero(pess[i] & c.virtual_mask)[0]
            if idx.size:
                pess[i, idx] = False
                frontier.append((i, idx))
        self._propagate(pess, pess_count, frontier, record=False)
        return pess

    def in_node_equations(
        self, pess, lo: int, hi: int, max_terms: int = 4096
    ) -> Dict[VarKey, BoolExpr]:
        """The unresolved in-node variables of block rows ``lo`` to ``hi``,
        reduced to virtual variables only.

        ``pess`` is :meth:`pessimistic`'s bracket.  In-node pairs true in it
        are definitively TRUE and pairs outside ``sim`` already falsified;
        neither is returned.  The rest reduce to the same expressions over
        virtual-variable leaves as the dict engine's, built from the
        dependent subsystem only.  Raises
        :class:`~repro.boolean.system.EquationBlowupError` past
        ``max_terms``, exactly like the dict path.
        """
        np = require_numpy()
        from collections import deque

        from repro.boolean.system import EquationSystem

        c, view = self.compiled, self.view
        open_pairs = self.sim[:, lo:hi] & c.in_mask[lo:hi] & ~pess[:, lo:hi]
        qis, offsets = np.nonzero(open_pairs)
        queue: deque = deque(zip(qis.tolist(), (offsets + lo).tolist()))
        seen: Set[Tuple[int, int]] = set(queue)
        keep = [(view.qnodes[i], c.nodes[vi]) for i, vi in queue]
        if not keep:
            return {}

        # Build the dependent subsystem only: pairs in sim \ pess, reached
        # from the unresolved in-node variables.  Constants fold on sight.
        equations: Dict[VarKey, BoolExpr] = {}
        fwd_indptr, fwd_indices = c.fwd_indptr, c.fwd_indices
        while queue:
            i, vi = queue.popleft()
            terms: List[BoolExpr] = []
            for ci in view.children[i]:
                succs = fwd_indices[fwd_indptr[vi]:fwd_indptr[vi + 1]]
                alts: List[BoolExpr] = []
                term_true = False
                for w in succs.tolist():
                    if not self.sim[ci, w]:
                        continue
                    if pess[ci, w]:
                        term_true = True
                        break
                    alts.append(Var((view.qnodes[ci], c.nodes[w])))
                    if c.local_mask[w] and (ci, w) not in seen:
                        seen.add((ci, w))
                        queue.append((ci, w))
                if term_true:
                    continue
                terms.append(disj(alts) if alts else FALSE)
            equations[(view.qnodes[i], c.nodes[vi])] = conj(terms)
        system = EquationSystem(equations)
        return system.reduced_system(keep=keep, max_terms=max_terms).as_dict()


# ----------------------------------------------------------------------
# dGPMd: vectorized per-rank exact evaluation
# ----------------------------------------------------------------------

class ArrayRankState:
    """Array backend for dGPMd's rank schedule over one fragment.

    Final (exact) decisions accumulate rank by rank in a ``(Q, N)`` bool
    table; evaluating rank ``r`` is, per query node, one CSR gather plus
    segment-any per query child -- the per-(node, child) Python loop of the
    dict path collapses into O(children) numpy calls.
    """

    def __init__(self, compiled: CompiledFragment, query: Pattern, interner) -> None:
        np = require_numpy()
        self.compiled = compiled
        self.view = _QueryView(compiled, query, interner)
        n = compiled.n_nodes
        q = len(self.view.qnodes)
        #: exact matches, filled for a query node when its rank is evaluated
        self.sim = np.zeros((q, n), dtype=bool)
        #: virtual variables reported false by their owners
        self.virtual_false = np.zeros((q, n), dtype=bool)

    def mark_virtual_false(self, pairs: Iterable[VarKey]) -> None:
        for u, v in pairs:
            qi = self.view.qindex.get(u)
            vi = self.compiled.index.get(v)
            if qi is not None and vi is not None:
                self.virtual_false[qi, vi] = True

    def evaluate_nodes(self, query_nodes: Iterable[Node], in_nodes_shippable) -> List[VarKey]:
        """Decide every given query node exactly; return falsified in-node vars.

        ``in_nodes_shippable(u)`` tells whether falsifications of ``u`` are
        worth shipping (dict path: ``query.parents(u)`` non-empty).
        """
        np = require_numpy()
        c, view = self.compiled, self.view
        falsified: List[VarKey] = []
        for u in query_nodes:
            i = view.qindex[u]
            cand = np.nonzero(view.label_match[i] & c.local_mask)[0]
            if cand.size == 0:
                continue
            ok_all = np.ones(cand.size, dtype=bool)
            if view.children[i]:
                neigh, counts = gather_csr(c.fwd_indptr, c.fwd_indices, cand)
                for ci in view.children[i]:
                    # local witnesses: already-final sim; virtual witnesses:
                    # label agreement minus reported falsifications
                    ok_child = np.where(
                        c.local_mask,
                        self.sim[ci],
                        view.label_match[ci] & ~self.virtual_false[ci],
                    )
                    ok_all &= segment_any(ok_child[neigh], counts)
            matched = cand[ok_all]
            self.sim[i, matched] = True
            if in_nodes_shippable(u):
                failed = cand[~ok_all]
                ship = failed[c.in_mask[failed]]
                falsified.extend((u, c.nodes[v]) for v in ship.tolist())
        return falsified

    def matches(self) -> Dict[Node, Set[Node]]:
        """The final per-query-node match sets (local nodes)."""
        np = require_numpy()
        c = self.compiled
        return {
            u: set(map(c.nodes.__getitem__, np.nonzero(self.sim[i])[0].tolist()))
            for i, u in enumerate(self.view.qnodes)
        }


# ----------------------------------------------------------------------
# dGPMt: vectorized bottom-up subtree sweep
# ----------------------------------------------------------------------

class ArrayTreeState:
    """Array backend for dGPMt's per-site bottom-up symbolic evaluation.

    Two vectorized boolean sweeps (virtual roots all-true / all-false)
    bracket every local pair; the monotone expressions dGPMt builds make the
    bracket exact, so symbolic :class:`~repro.boolean.expr.BoolExpr` values
    are only materialized for the pairs that genuinely depend on child
    fragments' roots.
    """

    def __init__(self, compiled: CompiledFragment, query: Pattern, interner) -> None:
        np = require_numpy()
        self.compiled = compiled
        self.query = query
        self.view = _QueryView(compiled, query, interner)
        n = compiled.n_nodes
        q = len(self.view.qnodes)
        self.opt = np.zeros((q, n), dtype=bool)
        self.pess = np.zeros((q, n), dtype=bool)
        self._exprs: Optional[Dict[VarKey, BoolExpr]] = None

    def bottom_up(self) -> None:
        """Evaluate both brackets leaves-first, one vectorized level at a time."""
        np = require_numpy()
        c, view = self.compiled, self.view
        for level in c.tree_levels():
            neigh, counts = gather_csr(c.fwd_indptr, c.fwd_indices, level)
            for i in range(len(view.qnodes)):
                cand = view.label_match[i][level]
                if not cand.any():
                    continue
                hit_opt = cand.copy()
                hit_pess = cand.copy()
                for ci in view.children[i]:
                    ok_opt = np.where(
                        c.local_mask, self.opt[ci], view.label_match[ci]
                    )
                    ok_pess = c.local_mask & self.pess[ci]
                    hit_opt &= segment_any(ok_opt[neigh], counts)
                    hit_pess &= segment_any(ok_pess[neigh], counts)
                self.opt[i, level[hit_opt]] = True
                self.pess[i, level[hit_pess]] = True

    def exprs(self) -> Dict[VarKey, BoolExpr]:
        """Symbolic values for the dependent pairs only (lazily built).

        Dependent pairs (``opt`` true, ``pess`` false) are processed in the
        same leaves-first order, so child expressions exist before parents
        reference them; constant children fold to TRUE/FALSE on sight.
        """
        if self._exprs is not None:
            return self._exprs
        np = require_numpy()
        c, view = self.compiled, self.view
        dependent = self.opt & ~self.pess
        exprs: Dict[VarKey, BoolExpr] = {}
        by_pair: Dict[Tuple[int, int], BoolExpr] = {}
        for level in c.tree_levels():
            for i in range(len(view.qnodes)):
                for vi in level[dependent[i][level]].tolist():
                    terms: List[BoolExpr] = []
                    succs = c.fwd_indices[
                        c.fwd_indptr[vi]:c.fwd_indptr[vi + 1]
                    ].tolist()
                    for ci in view.children[i]:
                        alts: List[BoolExpr] = []
                        term_true = False
                        for w in succs:
                            if not view.label_match[ci, w]:
                                continue
                            if c.local_mask[w]:
                                if self.pess[ci, w]:
                                    term_true = True
                                    break
                                if self.opt[ci, w]:
                                    alts.append(by_pair[(ci, w)])
                            else:
                                alts.append(Var((view.qnodes[ci], c.nodes[w])))
                        if term_true:
                            continue
                        terms.append(disj(alts) if alts else FALSE)
                    expr = conj(terms)
                    by_pair[(i, vi)] = expr
                    exprs[(view.qnodes[i], c.nodes[vi])] = expr
        self._exprs = exprs
        return exprs

    def root_vector(self, root: Node) -> Dict[VarKey, BoolExpr]:
        """The Boolean vector of the fragment's subtree root."""
        c, view = self.compiled, self.view
        ri = c.index[root]
        vector: Dict[VarKey, BoolExpr] = {}
        exprs = self.exprs()
        for i, u in enumerate(view.qnodes):
            if not view.label_match[i, ri]:
                continue
            if self.pess[i, ri]:
                vector[(u, root)] = TRUE
            elif not self.opt[i, ri]:
                vector[(u, root)] = FALSE
            else:
                vector[(u, root)] = exprs[(u, root)]
        return vector

    def finalize(self, values: Dict[VarKey, bool]) -> Dict[Node, Set[Node]]:
        """Local matches once the coordinator's virtual-root verdicts arrive."""
        np = require_numpy()
        c, view = self.compiled, self.view
        out: Dict[Node, Set[Node]] = {u: set() for u in view.qnodes}
        exprs = self.exprs()
        for i, u in enumerate(view.qnodes):
            sure = np.nonzero(self.pess[i] & c.local_mask)[0]
            out[u].update(map(c.nodes.__getitem__, sure.tolist()))
            maybe = np.nonzero(self.opt[i] & ~self.pess[i] & c.local_mask)[0]
            for vi in maybe.tolist():
                expr = exprs[(u, c.nodes[vi])]
                if expr.evaluate_partial(values) == TRUE or (
                    expr.is_const() and expr.evaluate({})
                ):
                    out[u].add(c.nodes[vi])
        return out
