"""Columnar fragment snapshots for the array-native engine (``engine="array"``).

The dict engine evaluates a query over Python dict-of-sets state
(:class:`~repro.core.state.LocalEvalState`); the array engine instead
compiles every fragment once into a :class:`CompiledFragment` -- dense node
ids, labels interned to dense ints via the session's
:class:`~repro.session.cache.LabelInterner`, CSR adjacency in both
directions, and boundary index arrays -- so per-query evaluation
(:mod:`repro.core.arraystate`) is numpy kernels over flat arrays instead of
per-pair Python loops.

Compilation is *per graph*, not per query, which is why it lives behind
:class:`CompiledFragmentation`: a cache keyed by each fragment graph's
mutation stamp (:attr:`~repro.graph.digraph.DiGraph.version`) plus the
identity of the fragment's boundary frozensets (``Vi``/``Fi.O``/``Fi.I`` are
*replaced*, never mutated, by the fragmentation maintenance layer, so an
identity check is exact even when the graph itself did not change -- e.g. a
crossing-edge delete that only drops an in-node marker on the target
fragment).  A :class:`~repro.session.SimulationSession` holds one such cache
for its resident fragmentation; mutations invalidate exactly the fragments
they touched, and the next array-engine query recompiles only those.

numpy is imported lazily: the dict engine (and everything else in the
package) stays importable without it, and requesting ``engine="array"``
without numpy raises a single clear :class:`RuntimeError`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.partition.fragment import Fragment
from repro.partition.fragmentation import Fragmentation

if TYPE_CHECKING:  # pragma: no cover - the session package imports core
    from repro.session.cache import LabelInterner

_np = None


def require_numpy():
    """Return the numpy module, or raise a clear error if it is missing.

    Every array-engine entry point funnels through this, so the failure mode
    of a numpy-less install is one actionable message instead of an
    ImportError deep inside a kernel.
    """
    global _np
    if _np is None:
        try:
            import numpy
        except ImportError:
            raise RuntimeError(
                "engine='array' requires numpy, which is not installed; "
                "install numpy (pip install numpy) or use engine='dict'"
            ) from None
        _np = numpy
    return _np


def have_numpy() -> bool:
    """True iff the array engine can run in this interpreter."""
    try:
        require_numpy()
    except RuntimeError:
        return False
    return True


# ----------------------------------------------------------------------
# CSR kernels shared by the array evaluators
# ----------------------------------------------------------------------

def gather_csr(indptr, indices, rows):
    """Concatenated adjacency of ``rows``: ``indices[indptr[r]:indptr[r+1]]``.

    Returns ``(neighbors, counts)`` where ``counts[k]`` is the degree of
    ``rows[k]`` -- the segment boundaries that :func:`segment_any` /
    :func:`segment_sum` consume.  Pure integer arithmetic, no Python loop.
    """
    np = require_numpy()
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=indices.dtype), counts
    # position j of the output belongs to segment k and offset j - seg_start;
    # np.repeat expands per-row starts, the arange supplies in-segment offsets
    seg_starts = np.repeat(np.cumsum(counts) - counts, counts)
    flat = np.arange(total, dtype=np.int64) - seg_starts + np.repeat(starts, counts)
    return indices[flat], counts


def segment_any(values, counts):
    """Per-segment ``any`` of a flat bool array split by ``counts``.

    ``values`` is the concatenation of variable-length segments (as produced
    by :func:`gather_csr`); empty segments yield False.
    """
    np = require_numpy()
    cs = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(values, dtype=np.int64)))
    ends = np.cumsum(counts)
    return (cs[ends] - cs[ends - counts]) > 0


def segment_sum_full(values, indptr):
    """Per-node sum of ``values`` (one entry per CSR slot) over all nodes."""
    np = require_numpy()
    cs = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(values, dtype=np.int64)))
    return cs[indptr[1:]] - cs[indptr[:-1]]


# ----------------------------------------------------------------------
# compiled fragments
# ----------------------------------------------------------------------

class CompiledFragment:
    """One fragment's columnar snapshot (see the module docstring).

    All arrays are indexed by the fragment graph's dense node ids
    (``nodes[i]`` is the node object behind id ``i``); ``local_mask`` /
    ``virtual_mask`` / ``in_mask`` encode the Section-2.2 boundary sets.
    """

    __slots__ = (
        "fid", "nodes", "index", "labels",
        "local_mask", "virtual_mask", "in_mask", "virtual_idx",
        "fwd_indptr", "fwd_indices", "rev_indptr", "rev_indices",
        "graph_version", "_local_ref", "_virtual_ref", "_in_ref",
        "_tree_levels", "gids", "_gid_map", "_g2l", "_routes",
        "_label_rows", "_count_cols",
    )

    def __init__(
        self,
        fragment: Fragment,
        interner: LabelInterner,
        gid_map: Optional[Dict] = None,
    ) -> None:
        np = require_numpy()
        graph = fragment.graph
        (self.nodes, self.index, self.fwd_indptr, self.fwd_indices,
         self.rev_indptr, self.rev_indices) = graph.dense_csr()
        self.fid = fragment.fid
        n = len(self.nodes)
        labels = graph.labels()
        self.labels = np.fromiter(
            (interner.intern(labels[v]) for v in self.nodes),
            dtype=np.int64,
            count=n,
        )
        self.local_mask = np.zeros(n, dtype=bool)
        self.virtual_mask = np.zeros(n, dtype=bool)
        self.in_mask = np.zeros(n, dtype=bool)
        for v in fragment.local_nodes:
            self.local_mask[self.index[v]] = True
        for v in fragment.virtual_nodes:
            self.virtual_mask[self.index[v]] = True
        for v in fragment.in_nodes:
            self.in_mask[self.index[v]] = True
        self.virtual_idx = np.nonzero(self.virtual_mask)[0]
        self.graph_version = graph.version
        # Identity-stable references for the freshness check: the maintenance
        # layer replaces these frozensets wholesale on any boundary change.
        self._local_ref = fragment.local_nodes
        self._virtual_ref = fragment.virtual_nodes
        self._in_ref = fragment.in_nodes
        self._tree_levels: Optional[List] = None
        # Cross-fragment dense ids: when built under a CompiledFragmentation,
        # every node gets one id shared by all fragments, so falsifications
        # travel between sites as flat int arrays (no per-pair tuples).
        self._gid_map = gid_map
        self.gids = None
        if gid_map is not None:
            ids = []
            for v in self.nodes:
                gi = gid_map.get(v)
                if gi is None:
                    gi = len(gid_map)
                    gid_map[v] = gi
                ids.append(gi)
            self.gids = np.asarray(ids, dtype=np.int64)
        self._g2l = None
        self._routes = None
        self._label_rows: Dict[int, object] = {}
        self._count_cols: Dict[int, object] = {}

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def is_fresh(self, fragment: Fragment) -> bool:
        """True iff this snapshot still describes ``fragment`` exactly."""
        return (
            fragment.graph.version == self.graph_version
            and fragment.local_nodes is self._local_ref
            and fragment.virtual_nodes is self._virtual_ref
            and fragment.in_nodes is self._in_ref
        )

    def label_row(self, lab: int):
        """Cached bool row: which nodes carry interned label ``lab``.

        Query-independent (labels are a property of the snapshot), so one
        row per distinct label serves every query.  Treat as read-only.
        """
        row = self._label_rows.get(lab)
        if row is None:
            row = self.labels == lab
            self._label_rows[lab] = row
        return row

    def count_col(self, lab: int):
        """Cached int column: per node, how many successors carry ``lab``.

        This is the HHK counter seed for any query node labelled ``lab``
        (before falsifications), again query-independent.  Treat as
        read-only -- evaluation states copy it into their counter matrix.
        """
        col = self._count_cols.get(lab)
        if col is None:
            col = segment_sum_full(
                self.label_row(lab)[self.fwd_indices], self.fwd_indptr
            )
            self._count_cols[lab] = col
        return col

    def g2l(self):
        """Global-id -> local dense id (or -1), for vectorized receives.

        Built lazily on first receive, so the table covers every global id
        assigned up to that point; ids a site must resolve are its own
        virtual nodes, all registered no later than its own compilation.
        """
        if self._g2l is None:
            np = require_numpy()
            arr = np.full(len(self._gid_map), -1, dtype=np.int64)
            arr[self.gids] = np.arange(self.n_nodes, dtype=np.int64)
            self._g2l = arr
        return self._g2l

    def shipping_routes(self, deps):
        """``(group_of, groups)``: per-in-node watcher routing, vectorizable.

        ``group_of[dense_id]`` is an index into ``groups`` (distinct watcher
        site tuples) for in-nodes, -1 elsewhere.  Cached per
        ``deps.version`` -- fragmentation patches that change watcher sets
        without touching this fragment's snapshot still invalidate it.
        """
        if self._routes is not None:
            cached_deps, cached_version, table = self._routes
            if cached_deps is deps and cached_version == deps.version:
                return table
        np = require_numpy()
        group_of = np.full(self.n_nodes, -1, dtype=np.int64)
        groups: List[Tuple[int, ...]] = []
        sig: Dict[Tuple[int, ...], int] = {}
        for vid in np.nonzero(self.in_mask)[0].tolist():
            peers = tuple(sorted(deps.watcher_sites(self.fid, self.nodes[vid])))
            gi = sig.get(peers)
            if gi is None:
                gi = len(groups)
                sig[peers] = gi
                groups.append(peers)
            group_of[vid] = gi
        table = (group_of, groups)
        self._routes = (deps, deps.version, table)
        return table

    def tree_levels(self) -> List:
        """Local nodes grouped by height in the local subtree, leaves first.

        Level ``k`` holds every local node all of whose local successors sit
        in levels ``< k`` -- the bottom-up schedule dGPMt's array evaluator
        vectorizes over.  Built lazily (only tree workloads need it) and
        cached on the snapshot (pure structure, same lifetime).
        """
        if self._tree_levels is not None:
            return self._tree_levels
        np = require_numpy()
        n = self.n_nodes
        # remaining local out-degree of each local node
        local_succ = self.local_mask[self.fwd_indices]
        remaining = segment_sum_full(local_succ, self.fwd_indptr)
        placed = ~self.local_mask  # virtual nodes are never scheduled
        frontier = np.nonzero(self.local_mask & (remaining == 0))[0]
        levels: List = []
        while frontier.size:
            levels.append(frontier)
            placed[frontier] = True
            preds, _ = gather_csr(self.rev_indptr, self.rev_indices, frontier)
            if preds.size == 0:
                frontier = np.empty(0, dtype=np.int64)
                continue
            dec = np.bincount(preds, minlength=n)
            remaining = remaining - dec
            frontier = np.nonzero(~placed & (remaining == 0) & self.local_mask)[0]
        self._tree_levels = levels
        return levels

    def __repr__(self) -> str:
        return (
            f"CompiledFragment(fid={self.fid}, n_nodes={self.n_nodes}, "
            f"n_edges={len(self.fwd_indices)})"
        )


class CompiledFragmentation:
    """Per-graph compiled-CSR cache over one resident fragmentation.

    ``get(fid)`` returns a fresh :class:`CompiledFragment`, recompiling only
    when the fragment's mutation stamp moved (graph version or replaced
    boundary sets) -- a query stream over a mutating graph recompiles
    exactly the fragments each update touched.
    """

    def __init__(
        self,
        fragmentation: Fragmentation,
        interner: Optional[LabelInterner] = None,
    ) -> None:
        from repro.session.cache import LabelInterner

        require_numpy()
        self.fragmentation = fragmentation
        self.interner = interner if interner is not None else LabelInterner()
        #: node -> global dense id, shared by every compiled fragment (grows
        #: monotonically; recompiles reuse existing ids)
        self.gid_map: Dict = {}
        self._compiled: Dict[int, CompiledFragment] = {}
        #: compilations performed (observability: tests assert the cache
        #: recompiles exactly the mutated fragments, benchmarks report it)
        self.compilations = 0

    def get(self, fid: int) -> CompiledFragment:
        fragment = self.fragmentation[fid]
        entry = self._compiled.get(fid)
        if entry is None or not entry.is_fresh(fragment):
            entry = CompiledFragment(fragment, self.interner, gid_map=self.gid_map)
            self._compiled[fid] = entry
            self.compilations += 1
        return entry

    def warm(self) -> "CompiledFragmentation":
        """Compile every fragment now (otherwise each compiles on first use)."""
        for frag in self.fragmentation:
            self.get(frag.fid)
        return self

    def __len__(self) -> int:
        return len(self._compiled)


#: engines the execution layer understands; session and execute_* validate
#: against this so the error message has one source of truth
ENGINES: Tuple[str, ...] = ("dict", "array")


def validate_engine(engine: str) -> str:
    """Normalize and validate an engine name; raises ``ValueError`` if unknown."""
    name = engine.lower()
    if name not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r} (known: {', '.join(ENGINES)})"
        )
    return name
