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

dGPM does not evaluate those snapshots one by one: the fragments of one
host (:class:`~repro.runtime.engine.LocalHost`) are concatenated into a
:class:`HostSnapshot`, one block per fragment, and a single evaluation state
runs over it.  A virtual node is a per-fragment copy without out-edges, so
no counter wave crosses a block and one fixpoint over the host is exactly
the union of its sites' local fixpoints.  What does cross blocks is the
protocol's mail, and the host snapshot carries its routing (the *delivery
table*).  It is rebuilt, by concatenation only, whenever a member snapshot
is replaced.

numpy is imported lazily: the dict engine (and everything else in the
package) stays importable without it, and requesting ``engine="array"``
without numpy raises a single clear :class:`RuntimeError`.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ReproError
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

class _Columnar:
    """What every snapshot holds, and the per-label caches derived from it.

    All arrays are indexed by dense row ids (``nodes[i]`` is the node object
    behind row ``i``); ``local_mask`` / ``virtual_mask`` / ``in_mask`` encode
    the Section-2.2 boundary sets; ``gids`` are the cross-fragment node ids
    (None for a fragment compiled outside a :class:`CompiledFragmentation`).
    """

    __slots__ = (
        "nodes", "labels", "local_mask", "virtual_mask", "in_mask",
        "fwd_indptr", "fwd_indices", "rev_indptr", "rev_indices", "gids",
        "_label_rows", "_count_cols",
    )

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

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


class CompiledFragment(_Columnar):
    """One fragment's columnar snapshot (see the module docstring).

    Rows are the fragment graph's dense node ids; ``index`` inverts
    ``nodes``.
    """

    __slots__ = (
        "fid", "index", "graph_version", "_local_ref", "_virtual_ref", "_in_ref",
        "_tree_levels",
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
        self.graph_version = graph.version
        # Identity-stable references for the freshness check: the maintenance
        # layer replaces these frozensets wholesale on any boundary change.
        self._local_ref = fragment.local_nodes
        self._virtual_ref = fragment.virtual_nodes
        self._in_ref = fragment.in_nodes
        self._tree_levels: Optional[List] = None
        # Cross-fragment dense ids: when built under a CompiledFragmentation,
        # every node gets one id shared by all fragments, which is what a
        # host snapshot joins an in-node with its virtual copies on.
        self.gids = None
        if gid_map is not None:
            self.gids = np.fromiter(
                (gid_map.setdefault(v, len(gid_map)) for v in self.nodes),
                dtype=np.int64,
                count=n,
            )
        self._label_rows: Dict[int, object] = {}
        self._count_cols: Dict[int, object] = {}

    def is_fresh(self, fragment: Fragment) -> bool:
        """True iff this snapshot still describes ``fragment`` exactly."""
        return (
            fragment.graph.version == self.graph_version
            and fragment.local_nodes is self._local_ref
            and fragment.virtual_nodes is self._virtual_ref
            and fragment.in_nodes is self._in_ref
        )

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


class HostSnapshot(_Columnar):
    """The snapshots of one host's fragments as one block-diagonal snapshot.

    Block ``k`` (rows ``starts[k]`` up to ``starts[k + 1]``) is member ``k``
    with its row ids shifted; ``site_of[row]`` is the block of a row.

    **Delivery table.**  ``deliver_indptr`` / ``deliver_rows`` is a CSR over
    rows: for an in-node row, the rows of the same node's virtual copies in
    the host's other blocks -- where its falsification lands in co-located
    watcher sites.  ``external[row]`` names an in-node row's watcher sites
    on other hosts (empty when the host holds every fragment).  Immutable
    once built, apart from the per-label caches.
    """

    __slots__ = (
        "members", "fids", "starts", "site_of",
        "deliver_indptr", "deliver_rows", "external", "_position", "stamp",
        "_views", "_copies",
    )

    def __init__(self, members: Tuple[CompiledFragment, ...], deps) -> None:
        np = require_numpy()
        self.members = members
        self.fids = tuple(m.fid for m in members)
        self._position = {fid: k for k, fid in enumerate(self.fids)}
        sizes = np.asarray([m.n_nodes for m in members], dtype=np.int64)
        offsets = np.cumsum(sizes) - sizes
        self.starts: List[int] = [*offsets.tolist(), int(sizes.sum())]
        self.site_of = np.repeat(np.arange(len(members), dtype=np.int64), sizes)
        self.nodes = [v for m in members for v in m.nodes]
        for name in ("labels", "local_mask", "virtual_mask", "in_mask", "gids"):
            setattr(self, name, np.concatenate([getattr(m, name) for m in members]))
        for side in ("fwd", "rev"):
            indptrs = [getattr(m, side + "_indptr") for m in members]
            edges = np.cumsum([0] + [int(indptr[-1]) for indptr in indptrs])
            setattr(self, side + "_indptr", np.concatenate(
                [indptr[:-1] + e for indptr, e in zip(indptrs, edges)] + [edges[-1:]]
            ))
            setattr(self, side + "_indices", np.concatenate(
                [getattr(m, side + "_indices") + o for m, o in zip(members, offsets)]
            ))
        self._label_rows: Dict[int, object] = {}
        self._count_cols: Dict[int, object] = {}

        # Join in-node rows with virtual rows on the global id: the virtual
        # rows sorted by gid are a CSR over gid space.
        n = self.n_nodes
        virtual = np.nonzero(self.virtual_mask)[0]
        virtual = virtual[np.argsort(self.gids[virtual], kind="stable")]
        by_gid = np.searchsorted(
            self.gids[virtual], np.arange(int(self.gids.max()) + 2 if n else 1)
        )
        in_rows = np.nonzero(self.in_mask)[0]
        self.deliver_rows, copies = gather_csr(by_gid, virtual, self.gids[in_rows])
        per_row = np.zeros(n, dtype=np.int64)
        per_row[in_rows] = copies
        self.deliver_indptr = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(per_row))
        )
        self.external: Dict[int, Set[int]] = {}
        here = set(self.fids)
        if len(here) < len(deps.watchers):
            for row, k in zip(in_rows.tolist(), self.site_of[in_rows].tolist()):
                away = deps.watcher_sites(self.fids[k], self.nodes[row]) - here
                if away:
                    self.external[row] = away
        #: what it was built from; compares by identity (and deps' version)
        self.stamp = (deps, deps.version, self.members)
        self._views: Optional[Tuple[memoryview, memoryview, bytes]] = None
        self._copies: Optional[Tuple[object, object]] = None

    def python_views(self) -> Tuple[memoryview, memoryview, bytes]:
        """``(indptr, indices, local)``: the forward CSR as memoryviews and
        ``local_mask`` as bytes -- what the push's per-pair equation build
        reads, where a numpy scalar per successor costs ~0.1 us and a list
        copy of the CSR ~40 bytes per edge.  Built on first use and cached
        like :meth:`CompiledFragment.tree_levels` (pure structure; a racing
        builder stores an equal value)."""
        views = self._views
        if views is None:
            views = (
                memoryview(self.fwd_indptr), memoryview(self.fwd_indices),
                self.local_mask.tobytes(),
            )
            self._views = views
        return views

    def copy_rows(self, rows, blocks):
        """Per pair, the row of the node behind ``rows[i]`` in block
        ``blocks[i]``, or -1 where that block holds no copy of it: one
        search over the rows sorted by (global id, block), that order built
        on first use and cached like :meth:`python_views`."""
        np = require_numpy()
        copies = self._copies
        if copies is None:
            key = self.gids * len(self.fids) + self.site_of
            order = np.argsort(key)
            copies = self._copies = (key[order], order)
        keys, order = copies
        want = self.gids[rows] * len(self.fids) + blocks
        at = np.minimum(np.searchsorted(keys, want), keys.size - 1)
        return np.where(keys[at] == want, order[at], -1)

    def row_of(self, fid: int, node) -> Optional[int]:
        """The row of ``node``'s copy in member ``fid`` (None: it holds none)."""
        k = self._position[fid]
        local = self.members[k].index.get(node)
        return None if local is None else self.starts[k] + local


class CompiledFragmentation:
    """Per-graph compiled-CSR cache over one resident fragmentation.

    ``get(fid)`` returns a fresh :class:`CompiledFragment`, recompiling only
    when the fragment's mutation stamp moved (graph version or replaced
    boundary sets) -- a query stream over a mutating graph recompiles
    exactly the fragments each update touched.  ``host(fids, deps)`` returns
    the :class:`HostSnapshot` over those fragments, rebuilt when a member was
    recompiled or the watcher tables were patched.  Reader threads share the
    cache: both builds (and the global-id assignment) happen under ``_lock``.
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
        self._hosts: Dict[Tuple[int, ...], HostSnapshot] = {}
        self._lock = threading.Lock()
        #: compilations performed (observability: tests assert the cache
        #: recompiles exactly the mutated fragments, benchmarks report it)
        self.compilations = 0
        #: host snapshots built (a rebuild concatenates, it never compiles)
        self.host_builds = 0

    def get(self, fid: int) -> CompiledFragment:
        fragment = self.fragmentation[fid]
        entry = self._compiled.get(fid)
        if entry is None or not entry.is_fresh(fragment):
            with self._lock:
                entry = self._compiled.get(fid)
                if entry is None or not entry.is_fresh(fragment):
                    entry = CompiledFragment(fragment, self.interner, gid_map=self.gid_map)
                    self._compiled[fid] = entry
                    self.compilations += 1
        return entry

    def host(self, fids: Sequence[int], deps) -> HostSnapshot:
        """The block-diagonal snapshot of ``fids`` (in that order), routed by
        ``deps``' watcher tables."""
        key = tuple(fids)
        members = tuple(self.get(fid) for fid in key)
        stamp = (deps, deps.version, members)
        entry = self._hosts.get(key)
        if entry is None or entry.stamp != stamp:
            with self._lock:
                entry = self._hosts.get(key)
                if entry is None or entry.stamp != stamp:
                    entry = self._hosts[key] = HostSnapshot(members, deps)
                    self.host_builds += 1
        return entry

    def warm(self, deps=None) -> "CompiledFragmentation":
        """Compile every fragment now (otherwise on first use) and, given the
        watcher tables, the host snapshot an in-process dGPM run uses."""
        fids = [frag.fid for frag in self.fragmentation]
        for fid in fids:
            self.get(fid)
        if deps is not None:
            self.host(fids, deps)
        return self


#: engines the execution layer understands; the session and run_protocol
#: validate against this so the error message has one source of truth
ENGINES: Tuple[str, ...] = ("dict", "array")


def validate_engine(engine: str) -> str:
    """Normalize and validate an engine name; raises ``ReproError`` if unknown."""
    name = engine.lower()
    if name not in ENGINES:
        raise ReproError(
            f"unknown engine {engine!r} (known: {', '.join(ENGINES)})"
        )
    return name
