"""Result caching for :class:`~repro.session.SimulationSession`.

Three pieces:

* :func:`canonical_form` / :func:`canonical_query_key` -- a canonical digest
  of a :class:`Pattern` that is invariant under node/edge enumeration order
  *and* under renaming of the query nodes: two isomorphic patterns (same
  labeled shape, different node identifiers) produce the same digest, so the
  "same" query sent twice (re-parsed from a client request, or written by a
  different client with its own variable names) hits the cache.  The form
  also carries the canonical node order, which lets the session translate a
  cached relation onto the hitting pattern's node names.  Labels go through
  the session's interning table, which keeps the serialized form compact and
  insulates the key from expensive label ``repr``\\ s.
* :class:`LruResultCache` -- a small LRU keyed by
  ``(algorithm, query digest)`` whose values are
  :class:`CacheEntry` objects: the result *and* everything else the session
  remembers about that query (pattern, canonical order, hit count, warm
  repair state).  One object per key in one table, so an entry's
  bookkeeping can neither outlive nor precede its result -- LRU overflow,
  :meth:`LruResultCache.pop` and :meth:`LruResultCache.clear` drop all of it
  together (a *pinned* entry, a standing query's, is never the overflow's
  victim).  Graph simulation is a pure function of (query, fragmentation),
  so cached results stay valid until the fragmentation mutates; the session
  keeps them fresh across mutations (see :mod:`repro.session.session`).

  The cache is **thread-safe**: every operation holds one internal lock
  (nothing re-enters it and no other lock is taken while it is held),
  :meth:`LruResultCache.get` is the non-blocking lookup, and
  :meth:`LruResultCache.get_or_compute` gives concurrent readers an atomic
  get-or-compute: when several threads miss on the same key at once, exactly
  one runs the expensive compute while the rest wait for its result instead
  of duplicating the protocol run.  Who writes which :class:`CacheEntry`
  field: the cache, under its lock, ``hits``; the session, under the write
  exclusion mutations already require, ``result`` and ``warm``; the
  session's pin lock ``pins`` (a pin also builds ``warm`` under the read
  exclusion); the rest never change after construction.
* :class:`LabelInterner` -- dense integer ids for the label alphabet; interns
  under a lock so concurrent queries mentioning a brand-new label can never
  allocate the same id for two different labels.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
from collections import OrderedDict
from dataclasses import dataclass
from math import factorial
from typing import TYPE_CHECKING, Callable, Dict, Hashable, List, Optional, Tuple

from repro.graph.pattern import Pattern
from repro.runtime.metrics import RunResult

if TYPE_CHECKING:  # annotations only: the cache never imports ``repro.core``
    from repro.core.incremental import IncrementalMatchState
    from repro.session.session import Pin


class LabelInterner:
    """Dense integer ids for an arbitrary (hashable) label alphabet.

    Built once per session from the fragmentation's alphabet; unseen labels
    (a query may mention labels absent from the data) are interned on demand.
    Interning is atomic: a lock serializes id allocation, so two threads
    interning two new labels concurrently always receive distinct ids.
    """

    def __init__(self) -> None:
        self._ids: Dict[Hashable, int] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._ids)

    def intern(self, label: Hashable) -> int:
        """Return the dense id of ``label``, allocating one if new."""
        ident = self._ids.get(label)
        if ident is None:
            with self._lock:
                ident = self._ids.get(label)
                if ident is None:
                    ident = len(self._ids)
                    self._ids[label] = ident
        return ident

    def intern_all(self, labels) -> None:
        """Intern every label of an iterable (deterministic insertion order)."""
        for label in labels:
            self.intern(label)


# ----------------------------------------------------------------------
# canonical query form
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CanonicalQuery:
    """The canonical form of a pattern: a digest plus the node order behind it.

    ``order[i]`` is the query node occupying canonical position ``i``; two
    patterns with equal ``digest`` are isomorphic via
    ``a.order[i] <-> b.order[i]`` (labels and edges agree position-wise by
    construction), which is exactly the translation the session's cache
    needs to serve a hit across renamed query variables.

    ``exact`` is False when the pattern was too symmetric to canonicalize
    within the permutation budget; the digest is then still deterministic
    (stable under every renaming that keeps the node order) but not
    invariant under reordering the nodes.
    """

    digest: str
    order: Tuple
    exact: bool


def canonical_form(
    query: Pattern,
    interner: Optional[LabelInterner] = None,
    max_candidates: int = 5040,
) -> CanonicalQuery:
    """Canonicalize ``query`` up to isomorphism (for the sizes patterns have).

    Color refinement (1-WL over label + in/out color multisets) splits the
    query nodes into ordered equivalence classes; within the surviving
    classes every permutation is tried and the lexicographically smallest
    edge encoding wins.  Pattern queries are tiny (the paper's experiments
    top out around |Vq| = 7), so the residual search is a handful of
    candidates; pathologically symmetric inputs whose candidate count
    exceeds ``max_candidates`` keep the pattern's own node order inside
    each class (``exact=False``) -- the digest then loses invariance under
    reordering the nodes but never correctness, because equal digests
    still imply equal position-wise structure.

    The result depends on the node names only through their positions in
    ``query.nodes()``: two patterns with the same labels and edges by
    position get the same digest and the same order by position (the
    session memoizes forms on exactly that).
    """
    nodes = list(query.nodes())
    if interner is None:
        key_of = {u: repr(query.label(u)) for u in nodes}
    else:
        key_of = {u: interner.intern(query.label(u)) for u in nodes}
    succ = {u: list(query.children(u)) for u in nodes}
    pred = {u: list(query.parents(u)) for u in nodes}

    # 1-WL refinement: colors start as label ranks and are re-ranked each
    # round by (color, sorted successor colors, sorted predecessor colors).
    rank_of = {key: i for i, key in enumerate(sorted(set(key_of.values())))}
    color = {u: rank_of[key_of[u]] for u in nodes}
    for _ in range(len(nodes)):
        sig = {
            u: (
                color[u],
                tuple(sorted(color[v] for v in succ[u])),
                tuple(sorted(color[v] for v in pred[u])),
            )
            for u in nodes
        }
        ranks = {s: i for i, s in enumerate(sorted(set(sig.values())))}
        new_color = {u: ranks[sig[u]] for u in nodes}
        if new_color == color:
            break
        color = new_color

    classes: Dict[int, List] = {}
    for u in nodes:
        classes.setdefault(color[u], []).append(u)
    ordered_classes = [classes[c] for c in sorted(classes)]

    edges = list(query.edges())

    def edge_encoding(order: Tuple) -> Tuple[Tuple[int, int], ...]:
        index = {u: i for i, u in enumerate(order)}
        return tuple(sorted((index[a], index[b]) for a, b in edges))

    n_candidates = 1
    for cls in ordered_classes:
        n_candidates *= factorial(len(cls))
        if n_candidates > max_candidates:
            break
    if n_candidates > max_candidates:
        exact = False
        order = tuple(itertools.chain.from_iterable(ordered_classes))
        best_edges = edge_encoding(order)
    else:
        exact = True
        order = None
        best_edges = None
        for perm in itertools.product(
            *(itertools.permutations(cls) for cls in ordered_classes)
        ):
            candidate = tuple(itertools.chain.from_iterable(perm))
            enc = edge_encoding(candidate)
            if best_edges is None or enc < best_edges:
                best_edges, order = enc, candidate

    # Labels are constant across candidates (classes refine labels), so the
    # encoding is (per-position labels, minimized edge list).
    labels_part = tuple(key_of[u] for u in order)
    blob = repr((len(nodes), labels_part, best_edges)).encode("utf-8")
    return CanonicalQuery(
        digest=hashlib.sha256(blob).hexdigest(), order=order, exact=exact
    )


def canonical_query_key(query: Pattern, interner: Optional[LabelInterner] = None) -> str:
    """A digest of ``query`` stable under enumeration order and -- for every
    pattern the permutation budget canonicalizes exactly -- under renaming of
    the query nodes (isomorphic patterns collide on purpose)."""
    return canonical_form(query, interner).digest


# ----------------------------------------------------------------------
# the LRU
# ----------------------------------------------------------------------

@dataclass
class CacheStats:
    """Counters the cache maintains (mirrored into ``SessionStats``).

    Mutated only while the cache's lock is held, so concurrent serving never
    loses an increment.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0


@dataclass(eq=False)
class CacheEntry:
    """Everything the session remembers about one cached query."""

    #: the stored answer; a warm repair swaps in a new one, never edits it
    result: RunResult
    query: Pattern
    algorithm: str
    #: the stored pattern's canonical node order -- a hit whose (isomorphic)
    #: pattern uses different node names translates the cached relation
    #: through position-wise correspondence of the two orders
    order: Tuple = ()
    #: fragments owning the entry's matched nodes, computed once on the
    #: miss -- hits attribute per-fragment traffic from this tuple instead
    #: of re-walking the (possibly huge) relation
    fids: Tuple[int, ...] = ()
    #: times served from cache; a hot (``hits > 0``) entry may turn warm
    hits: int = 0
    #: the incremental repair state of a warm entry (built and retired by
    #: the session's write path only, or by a pin)
    warm: Optional[IncrementalMatchState] = None
    #: the standing queries holding the entry warm (outside the warm budget)
    pins: Tuple[Pin, ...] = ()


class LruResultCache:
    """Least-recently-used table of :class:`CacheEntry` objects.

    All operations are thread-safe; :meth:`get_or_compute` additionally
    coalesces concurrent misses on one key into a single compute.
    """

    def __init__(self, max_entries: int = 128) -> None:
        if max_entries < 0:
            raise ValueError("max_entries must be >= 0")
        self.max_entries = max_entries
        self._entries: "OrderedDict[Tuple, CacheEntry]" = OrderedDict()
        self.stats = CacheStats()
        self._lock = threading.Lock()
        #: key -> Event for in-flight computes (get_or_compute coalescing)
        self._inflight: Dict[Tuple, threading.Event] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def items(self) -> List[Tuple[Tuple, CacheEntry]]:
        """Snapshot of the ``(key, entry)`` pairs, least recently served first."""
        with self._lock:
            return list(self._entries.items())

    def get(self, key: Tuple) -> Optional[CacheEntry]:
        """The entry under ``key`` or None; never computes, never waits.

        A found entry counts as a hit.  A miss counts nothing here because it
        is not final: the :meth:`get_or_compute` that serves it counts it
        once -- as a miss, or as a hit when another caller's compute stored
        the entry in between.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            entry.hits += 1
            return entry

    def get_or_compute(
        self, key: Tuple, compute: Callable[[], CacheEntry]
    ) -> Tuple[CacheEntry, bool]:
        """Atomic get-or-compute; returns ``(entry, was_hit)``.

        A hit (present entry, or the entry of another thread's in-flight
        compute for the same key) returns ``was_hit=True`` without running
        ``compute``.  On a miss the calling thread computes *outside* the
        lock (other keys keep serving), stores the entry, and wakes any
        coalesced waiters.  If the compute raises, waiters retry -- one of
        them becomes the next computer -- so an error never wedges a key.

        With caching disabled (``max_entries == 0``) there is nothing for a
        waiter to read afterwards, so no in-flight gate is registered:
        concurrent identical queries simply compute in parallel, exactly as
        they would have without this cache.
        """
        if self.max_entries == 0:
            with self._lock:
                self.stats.misses += 1
            return compute(), False
        while True:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    self.stats.hits += 1
                    entry.hits += 1
                    return entry, True
                gate = self._inflight.get(key)
                if gate is None:
                    gate = self._inflight[key] = threading.Event()
                    self.stats.misses += 1
                    break
            # Another thread is computing this key: wait for it, then go
            # back through the fast path (the entry appears on success; on
            # failure one waiter re-registers and computes itself).
            gate.wait()
        try:
            entry = compute()
            self.put(key, entry)
        finally:
            # Store before waking waiters, so they find the entry; pop our
            # own gate only (a failed compute lets the next waiter take over).
            with self._lock:
                self._inflight.pop(key, None)
            gate.set()
        return entry, False

    def put(self, key: Tuple, entry: CacheEntry) -> None:
        if self.max_entries == 0:
            return
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            excess = len(self._entries) - self.max_entries
            if excess > 0:
                # from the LRU end, stopping at the ``excess``-th unpinned key
                unpinned = (k for k, e in self._entries.items() if not e.pins)
                for victim in list(itertools.islice(unpinned, excess)):
                    del self._entries[victim]
                    self.stats.evictions += 1

    def holds(self, key: Tuple, entry: CacheEntry) -> bool:
        """True iff ``entry`` is (still) the one cached under ``key``."""
        with self._lock:
            return self._entries.get(key) is entry

    def pop(self, key: Tuple) -> Optional[CacheEntry]:
        """Drop one entry and return it (None if absent)."""
        with self._lock:
            return self._entries.pop(key, None)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
