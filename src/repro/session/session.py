"""Resident multi-query serving over a persistent, *mutable* fragmentation.

The paper's setting is a resident distributed graph queried repeatedly --
sites hold their fragments, the boundary tables are known, and queries
arrive as a stream.  :class:`SimulationSession` is that architecture in one
object: it loads a :class:`~repro.partition.fragmentation.Fragmentation`
once, precomputes every structure that depends only on the graph, and then
serves queries by the paper's three algorithms
(:data:`repro.core.dispatch.ALGORITHMS`), so the per-query cost excludes the
per-graph cost.  The baselines are never served: they are the one-shot
:mod:`repro.baselines` ``run_*`` functions.

Amortized across queries:

* the boundary/watcher tables (:class:`~repro.core.depgraph.DependencyGraphs`,
  the paper's local dependency graphs ``G_d^i``), built lazily on the first
  algorithm that needs them;
* the per-fragment label indexes and successor-label counters, which live on
  each :class:`~repro.graph.digraph.DiGraph` (built on first use, reused by
  every subsequent ``LocalEvalState``);
* an interned label-id table over the fragmentation's alphabet;
* an LRU cache of final results keyed by ``(algorithm, canonical query
  hash)`` -- repeated queries are answered without touching a site,
  on either serving backend (a sharded server only moves where a miss runs).

Mutation API and its invariant contract
---------------------------------------

The session is the write path for a graph that changes while being served,
and it has one write call: :meth:`apply`, a batch of typed
:class:`~repro.graph.mutations.MutationOp` values, patches the resident
fragmentation **in place**, one op at a time, through
:meth:`Fragmentation.delete_edge` and friends (the data layer), which
maintain the Section-2.2 invariants (``Fi.O``/``Fi.I`` membership, induced
fragment subgraphs) per update -- ``fragmentation.validate()`` holds after any
sequence of session-applied mutations.  The watcher/boundary tables are
patched incrementally (:meth:`DependencyGraphs.apply_delta`), never rebuilt,
and the result cache is *maintained*, not dropped:

* entries whose answers provably cannot change (no query edge carries the
  mutated edge's label pair; Section 2.1's simulation conditions only
  inspect an edge as a witness for a same-labeled query edge) are kept;
* hot entries (served from cache at least once) hold a warm
  :class:`~repro.core.incremental.IncrementalMatchState` (the paper's
  incremental lEval, Section 4.2 / [13]), built by the first mutation that
  may change their answer, from the post-mutation graph -- reads never
  build one: an edge deletion repairs their answers through the affected
  area only (``O(|AFF|)``), and the repair's change set (the local pairs
  that turned false or true) patches the cached relation -- no site is
  re-merged, and an entry is only rewritten when that set is non-empty;
* insertions, which can revive matches, re-open in the affected warm
  entries only the false pairs that can reach the new edge (again
  ``O(|AFF|)``; an insert nothing can use bumps one counter, and a revival
  of over a quarter of the label-compatible pairs rebuilds the state);
* remaining affected entries are evicted individually;
* a standing query *pins* its entry (:meth:`SimulationSession.pin`): warm
  outside the ``max_warm_states`` budget and never the LRU's victim, its
  repairs' net change set *is* the subscriber's next delta -- no re-run, no
  relation diff and no site re-merge (:meth:`SimulationSession.take_push`).

All of it is bookkeeping about *one cached query*, so it lives in one
:class:`~repro.session.cache.CacheEntry` per key in the cache's one table:
a hit bumps ``entry.hits`` under the cache's lock; this module, under the
write exclusion mutations require, swaps ``entry.result`` on a repair and
sets / retires ``entry.warm``; eviction drops the whole entry.

Mutations applied *around* the session (directly to the stored graphs) are
still detected: the session snapshots the fragmentation's mutation stamp
(:attr:`Fragmentation.version`), and a stale stamp on the next ``run``
re-validates the fragmentation and drops every cache -- external mutations
that break the Section-2.2 invariants raise
:class:`~repro.errors.FragmentationError` instead of being answered from
stale boundary tables.

>>> session = SimulationSession(fragmentation)
>>> first = session.run(query)                      # pays setup once
>>> again = session.run(query)                      # served from cache
>>> [outcome] = session.apply([DeleteEdge(u, v)])  # patches, not drops
>>> outcome.cache_repaired, outcome.cache_kept
...
>>> session.run(query).relation                     # still oracle-exact
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.arraycompile import validate_engine
from repro.core.config import DgpmConfig
from repro.core.depgraph import DependencyGraphs
from repro.core.dgpmd import dgpmd_applies
from repro.core.dgpmt import dgpmt_applies
from repro.core.dispatch import (
    ALGORITHMS,
    choose_algorithm,
    choose_algorithm_if_decided,
)
from repro.core.incremental import IncrementalMatchState, delta_may_change_answer
from repro.core.protocol import AlgorithmSpec, run_protocol
from repro.errors import ReproError
from repro.graph.mutations import (
    AddNode,
    DeleteEdge,
    InsertEdge,
    MutationOp,
    RemoveNode,
    normalize_op,
)
from repro.graph.pattern import Pattern
from repro.partition.fragmentation import Fragmentation, MutationDelta
from repro.runtime.metrics import RunMetrics, RunResult
from repro.session.cache import (
    CacheEntry,
    CanonicalQuery,
    LabelInterner,
    LruResultCache,
    canonical_form,
)
from repro.simulation.matchrel import MatchRelation

#: positional shapes whose canonical form one session remembers
#: (:meth:`SimulationSession.canonical_form_of`); a full memo starts over
FORM_MEMO_SIZE = 1024


@dataclass
class SessionStats:
    """Serving counters of one session (cumulative since construction).

    Increments go through :meth:`bump` and friends, which hold an internal
    lock -- concurrent readers (the thread backend of
    :class:`~repro.session.concurrent.ConcurrentSessionServer`) never lose
    an update to an interleaved read-modify-write.  Plain attribute reads
    stay lock-free (single loads are atomic under the GIL); several
    counters read together come from :meth:`snapshot`.
    """

    #: queries answered (cache hits included)
    queries_served: int = 0
    #: queries answered straight from the result cache
    cache_hits: int = 0
    #: queries that ran the distributed protocol
    cache_misses: int = 0
    #: results dropped because the LRU overflowed
    cache_evictions: int = 0
    #: times every derived structure was dropped at once (external mutation
    #: detected, or an explicit ``invalidate()``)
    invalidations: int = 0
    #: mutations applied through the session's mutation API
    mutations: int = 0
    #: cache entries kept across a mutation (answer provably unchanged)
    entries_kept: int = 0
    #: cache entries whose answers were repaired in place by a warm state
    entries_repaired: int = 0
    #: cache entries evicted because a mutation may have changed them
    entries_evicted: int = 0
    #: hot entries a mutation gave a warm state (also counted kept/repaired)
    entries_promoted: int = 0
    #: per-fragment query traffic: fid -> queries whose answer touched the
    #: fragment (matched nodes owned by it); feeds traffic-weighted
    #: repartitioning.  Bounded to :data:`MAX_FRAGMENT_KEYS` keys -- spill
    #: folds into the overflow key ``-1`` so totals stay exact.
    fragment_queries: Dict[int, int] = field(default_factory=dict)
    #: per-fragment mutation traffic: fid -> mutations whose delta touched
    #: the fragment (source/target owners, cascade included); same bound.
    fragment_mutations: Dict[int, int] = field(default_factory=dict)

    #: cap on distinct fids tracked per traffic counter (a rebalancing
    #: stream of add_node/remove_node cycles must not grow the dicts
    #: forever); far above any realistic |F|
    MAX_FRAGMENT_KEYS = 4096

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def bump(self, counter: str, n: int = 1) -> None:
        """Atomically add ``n`` to ``counter`` (one of the fields above)."""
        with self._lock:
            setattr(self, counter, getattr(self, counter) + n)

    def sync_evictions(self, value: int) -> None:
        """Mirror the cache's (monotonic) eviction counter without regressing.

        Concurrent misses race to copy the cache's counter; taking the max
        under the lock keeps a stale snapshot from overwriting a newer one.
        """
        with self._lock:
            if value > self.cache_evictions:
                self.cache_evictions = value

    def bump_fragment(self, counter: str, fids: Iterable[int], n: int = 1) -> None:
        """Atomically add ``n`` to a traffic counter for every fid in ``fids``.

        ``counter`` is ``"fragment_queries"`` or ``"fragment_mutations"``.
        Bounded: once a dict holds :data:`MAX_FRAGMENT_KEYS` distinct fids,
        further *new* fids fold into the overflow key ``-1`` -- totals stay
        exact while attribution degrades gracefully instead of the counters
        growing without bound under node-churn workloads.
        """
        with self._lock:
            self._add_traffic(getattr(self, counter), fids, n)

    def _add_traffic(self, table: Dict[int, int], fids: Iterable[int], n: int) -> None:
        for fid in fids:
            if fid not in table and len(table) >= self.MAX_FRAGMENT_KEYS:
                fid = -1
            table[fid] = table.get(fid, 0) + n

    def count_query(self, hit: bool, fids: Iterable[int]) -> None:
        """Count one answered query -- served, hit or miss, and the traffic
        of the fragments it touched -- in one lock hold, so no
        :meth:`snapshot` sees it half counted."""
        with self._lock:
            self.queries_served += 1
            if hit:
                self.cache_hits += 1
            else:
                self.cache_misses += 1
            self._add_traffic(self.fragment_queries, fids, 1)

    def snapshot(self) -> "SessionStats":
        """A consistent copy of every counter, traffic dicts included.

        What a reader that outlives one call must hold (the wire ``stats()``
        reply encodes it): the live object keeps changing under concurrent
        queries, so iterating its dicts can fail mid-way and two counters
        read apart can disagree.
        """
        with self._lock:
            return replace(
                self,
                fragment_queries=dict(self.fragment_queries),
                fragment_mutations=dict(self.fragment_mutations),
            )

    def traffic_snapshot(self) -> Dict[int, int]:
        """One consistent ``fid -> load`` copy merging queries + mutations.

        This is the input :func:`~repro.partition.partitioners.\
traffic_node_weights` consumes when the rebalancer re-partitions by
        observed load.
        """
        with self._lock:
            merged = dict(self.fragment_queries)
            for fid, count in self.fragment_mutations.items():
                merged[fid] = merged.get(fid, 0) + count
        return merged

    def reset_fragment_traffic(self) -> None:
        """Open a fresh traffic window (after a rebalance the old fids are
        meaningless -- they name fragments that no longer exist)."""
        with self._lock:
            self.fragment_queries.clear()
            self.fragment_mutations.clear()

    @property
    def hit_rate(self) -> float:
        """Fraction of served queries answered from cache."""
        return self.cache_hits / self.queries_served if self.queries_served else 0.0


@dataclass(frozen=True, eq=False)
class QueryKey:
    """One request resolved to its cache identity, derived once.

    :meth:`SimulationSession.lookup` derives it; on a miss the same key
    feeds :meth:`SimulationSession.run_key`, so the compute repeats no
    validation, dispatch or canonical form.  It is valid
    while ``fragmentation`` is still served at ``version``
    (:meth:`SimulationSession.is_current`): ``algorithm="auto"`` dispatch
    reads the graph's shape, which a mutation can change.
    """

    query: Pattern
    spec: AlgorithmSpec
    form: CanonicalQuery
    #: the result cache's key: ``(spec name, digest)``
    key: Tuple
    fragmentation: Fragmentation
    version: int


def _ordered(pairs: Iterable[Tuple]) -> Tuple:
    """Pairs in PUSH order: by query node, then by data node, each by repr."""
    return tuple(sorted(pairs, key=lambda pair: (repr(pair[0]), repr(pair[1]))))


@dataclass(eq=False)
class Pin:
    """A standing query's hold on its cache entry: the answer ``seen`` last
    (in the query's node names) and the entry's pairs every repair since
    flipped to True (in) or False (out); a pair flipped back cancels out."""

    key: QueryKey
    entry: CacheEntry
    seen: MatchRelation
    changes: Dict[Tuple, bool] = field(default_factory=dict)


@dataclass(frozen=True)
class MutationOutcome:
    """What one session-applied mutation did to the serving state.

    Frozen: outcomes are handed across threads by the concurrent front-end.
    """

    kind: str            # "delete" | "insert" | "add_node" | "remove_node"
    wall_seconds: float
    #: cached results untouched (answer provably or verifiably unchanged)
    cache_kept: int
    #: cached results whose relation was repaired in place
    cache_repaired: int
    #: cached results dropped (answer may have changed, no warm state)
    cache_evicted: int
    #: falsified variables across warm-state repairs (the |AFF| proxy; for
    #: an insert, the re-opened pairs that did not revive)
    falsified: int
    #: the fragmentation delta this mutation produced -- the sharded
    #: backend routes it to owning/watching workers
    delta: Optional[MutationDelta] = None


class SimulationSession:
    """A resident fragmentation plus everything amortizable across queries.

    Parameters
    ----------
    fragmentation:
        The distributed graph to serve; held by reference (not copied).
    config:
        The :class:`DgpmConfig` every query, warm state and pin runs under;
        a request names only the query and the algorithm (to compare
        configs, build one session per config).
    cache_size:
        Maximum number of cached results (0 disables result caching; the
        structural caches are unaffected).
    max_warm_states:
        Cap on warm per-query incremental states (each keeps every site's
        evaluation state alive for one hot query); the most recently served
        hot entries get them.  A cached query is hot once it has been served
        from cache; the first mutation that may change a hot entry's answer
        promotes it to a warm state (one fixpoint, on the write path).
        0: never build one, evict affected entries.  Pinned entries
        (:meth:`pin`) are warm outside this budget.
    engine:
        Execution engine for every query (``"dict"`` or ``"array"``).  The
        array engine compiles fragments to columnar CSR snapshots
        (:mod:`repro.core.arraycompile`) cached on the session and
        invalidated per fragment by mutation stamp; it requires numpy at
        query time (a clear ``RuntimeError`` otherwise).
    """

    def __init__(
        self,
        fragmentation: Fragmentation,
        config: Optional[DgpmConfig] = None,
        cache_size: int = 128,
        max_warm_states: int = 8,
        engine: str = "dict",
    ) -> None:
        self.fragmentation = fragmentation
        self.config = config or DgpmConfig()
        self.max_warm_states = max_warm_states
        self.stats = SessionStats()
        self.engine = validate_engine(engine)
        #: computes a miss: in process, unless a sharded server points it
        #: at its worker pool for as long as that server is open
        self._evaluate: Callable[[QueryKey], RunResult] = self._evaluate_here
        self.labels = LabelInterner()
        self._cache = LruResultCache(cache_size)
        self._deps: Optional[DependencyGraphs] = None
        #: compiled-CSR fragment cache for the array engine (lazy; entries
        #: are revalidated per fragment on every access, so mutations only
        #: force recompilation of the fragments they touched)
        self._compiled = None
        #: guards the lazy deps build (never held while computing a query)
        self._deps_lock = threading.Lock()
        #: guards the lazy compiled-CSR build the same way: concurrent first
        #: array-engine queries must share one CompiledFragmentation
        self._compiled_lock = threading.Lock()
        #: guards every cache entry's ``pins``
        self._pin_lock = threading.Lock()
        #: positional shape -> (digest, canonical order as positions, exact)
        self._form_memo: Dict[Tuple, Tuple[str, Tuple[int, ...], bool]] = {}
        self._version = fragmentation.version
        self.labels.intern_all(
            sorted(fragmentation.graph.label_alphabet(), key=repr)
        )

    # ------------------------------------------------------------------
    # cached immutable structures
    # ------------------------------------------------------------------
    @property
    def deps(self) -> DependencyGraphs:
        """The boundary/watcher tables, built once and shared by all queries.

        The lazy build is double-checked under a lock so concurrent first
        queries build the tables exactly once.
        """
        if self._deps is None:
            with self._deps_lock:
                if self._deps is None:
                    self._deps = DependencyGraphs(self.fragmentation)
        return self._deps

    def compiled_fragments(self):
        """The array engine's compiled-CSR cache, shared across queries.

        Built lazily on the first array-engine query (so dict-only sessions
        never import numpy).  Fragment snapshots self-invalidate: every
        access revalidates against the fragment's mutation stamp, so this
        cache survives mutations and recompiles exactly the touched
        fragments, then rebuilds the host snapshot over them -- under the
        cache's own lock; a built snapshot is never written again, so the
        compute threads share it under the read lock.
        """
        if self._compiled is None:
            from repro.core.arraycompile import CompiledFragmentation

            with self._compiled_lock:
                if self._compiled is None:
                    self._compiled = CompiledFragmentation(
                        self.fragmentation, self.labels
                    )
        return self._compiled

    def canonical_form_of(self, query: Pattern) -> CanonicalQuery:
        """The query's canonical form, memoized by its positional shape.

        The shape is the interned label of each node in ``query.nodes()``
        order plus the edges as sorted ``(index, index)`` pairs; the memo
        keeps the digest, the canonical order as positions and ``exact``.
        :func:`~repro.session.cache.canonical_form` reads the node names
        only through those positions, so a memo hit is exact, and a request
        that renames a pattern seen before -- every request off the wire is
        a freshly decoded ``Pattern``, usually under names of its own --
        skips the WL refinement and the permutation search.  At most
        :data:`FORM_MEMO_SIZE` shapes are kept once no store is in flight:
        a store that overfills the memo clears it.  No lock: a dict's get,
        set and clear are atomic, and threads racing on one shape store
        equal values.
        """
        nodes = tuple(query.nodes())
        index = {u: i for i, u in enumerate(nodes)}
        intern = self.labels.intern
        shape = (
            tuple(intern(query.label(u)) for u in nodes),
            tuple(sorted((index[a], index[b]) for a, b in query.edges())),
        )
        memo = self._form_memo.get(shape)
        if memo is None:
            form = canonical_form(query, self.labels)
            memo = (form.digest, tuple(index[u] for u in form.order), form.exact)
            self._form_memo[shape] = memo
            if len(self._form_memo) > FORM_MEMO_SIZE:
                self._form_memo.clear()
        digest, positions, exact = memo
        return CanonicalQuery(digest, tuple(nodes[i] for i in positions), exact)

    def warm(self) -> "SimulationSession":
        """Eagerly build every amortizable structure (optional; they are lazy).

        Useful before benchmarking or before the first latency-sensitive
        query: forces the dependency graphs plus the lazy indexes of the base
        graph *and* of every fragment (the base graph serves dispatch), and
        the two shape facts ``algorithm="auto"`` reads, so the first request
        scans nothing.  An ``array`` session also compiles every fragment
        snapshot and dGPM's host snapshot, so the first query compiles
        nothing (a ``dict`` one never imports numpy).
        """
        deps = self.deps
        self.fragmentation.graph.warm_indexes()
        for frag in self.fragmentation:
            frag.graph.warm_indexes()
        dgpmt_applies(self.fragmentation)  # fills the connected-fragments memo
        if self.engine == "array":
            self.compiled_fragments().warm(deps)
        return self

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Drop every derived structure; the next query rebuilds them."""
        self._deps = None
        self._compiled = None
        self._cache.clear()
        self._version = self.fragmentation.version
        self.stats.bump("invalidations")

    def swap_fragmentation(
        self,
        fragmentation: Fragmentation,
        deps: Optional[DependencyGraphs] = None,
    ) -> None:
        """Atomically adopt a re-partitioning of the same graph.

        The online-rebalance hand-off: answers are partition-independent
        (the protocols compute the unique maximum simulation on *any*
        fragmentation of ``G``), so only partition-*derived* state goes --
        the boundary/watcher tables (replaced by ``deps``, or rebuilt lazily
        when omitted), the compiled CSR snapshots, the result cache and warm
        states (their repair states embed fragment structure), and the
        per-fragment traffic window (the old fids name fragments that no
        longer exist).  Callers must hold write exclusion; the concurrent
        front-end's ``rebalance()`` runs this at a quiescent point.
        """
        old = self.fragmentation
        if (
            fragmentation.graph.n_nodes != old.graph.n_nodes
            or fragmentation.graph.n_edges != old.graph.n_edges
        ):
            raise ReproError(
                "swap_fragmentation requires a re-partition of the same graph "
                f"(got |V|={fragmentation.graph.n_nodes} "
                f"|E|={fragmentation.graph.n_edges}; serving "
                f"|V|={old.graph.n_nodes} |E|={old.graph.n_edges})"
            )
        self.fragmentation = fragmentation
        self.invalidate()
        with self._deps_lock:
            self._deps = deps
        self.labels.intern_all(
            sorted(fragmentation.graph.label_alphabet(), key=repr)
        )
        self.stats.reset_fragment_traffic()

    def _refresh_if_stale(self) -> None:
        if self.fragmentation.version != self._version:
            # A mutation applied around the session's API (e.g. a new
            # crossing edge with no virtual-node bookkeeping) must fail here,
            # loudly, not be answered from stale boundary tables.
            self.fragmentation.validate()
            self.invalidate()

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def run(self, query: Pattern, algorithm: str = "auto") -> RunResult:
        """Serve one query; identical in answer and metrics to the one-shot
        ``run_*`` function of the same algorithm.

        ``algorithm`` is ``"auto"``, ``"dgpm"``, ``"dgpmd"`` or ``"dgpmt"``
        (dGPMNOpt: ``"dgpm"`` on a session built with
        ``config=DgpmConfig().without_optimizations()``).

        Cache hits return a result whose ``metrics.extras`` carries
        ``cache_hit: 1.0``; the relation object is shared (safe:
        :class:`~repro.simulation.matchrel.MatchRelation` is frozen) and the
        metrics are copied, so callers can never poison the cache.  A hit
        whose pattern is an isomorphic *renaming* of the stored one gets the
        relation translated onto its own node names (the canonical orders of
        the two patterns give the bijection).  An entry repaired across
        mutations additionally carries ``maintained: <n>`` (updates absorbed
        since it was computed) -- its metrics describe the original run, its
        relation the current graph.

        Safe to call from many threads at once **between** mutations:
        concurrent identical queries coalesce into one protocol run
        (:meth:`LruResultCache.get_or_compute`); mutations require the write
        exclusion that :class:`~repro.session.concurrent.\
ConcurrentSessionServer` provides.
        """
        self._refresh_if_stale()
        return self.run_key(self._query_key(query, algorithm))

    def lookup(
        self, query: Pattern, algorithm: str = "auto"
    ) -> Tuple[Optional[RunResult], Optional[QueryKey]]:
        """The cached answer to a request, or None; plus the request's key.

        Never computes, never scans the graph and never waits on another
        caller's compute: a hit is served and counted exactly as :meth:`run`
        serves it, a miss counts nothing and hands back the
        :class:`QueryKey` for :meth:`run_key`.  ``(None, None)`` when even
        the key would cost ``O(|G|)``: a stale fragmentation (:meth:`run`
        re-validates it) or an ``"auto"`` dispatch that must first settle a
        shape fact (:func:`~repro.core.dispatch.choose_algorithm_if_decided`)
        -- :meth:`run` does that work.  The caller holds the exclusion reads
        need against mutations.  Invalid arguments raise here, as they would
        from :meth:`run`.
        """
        if self.fragmentation.version != self._version:
            return None, None
        if algorithm.lower() == "auto":
            # The key names the spec, so the decided name keys it the same.
            algorithm = choose_algorithm_if_decided(query, self.fragmentation)
            if algorithm is None:
                return None, None
        key = self._query_key(query, algorithm)
        entry = self._cache.get(key.key)
        return (None if entry is None else self._served(key, entry, True)), key

    def is_current(self, key: QueryKey) -> bool:
        """True while ``key`` still describes the served graph (same
        fragmentation, no mutation since it was derived, not stale)."""
        return (
            key.fragmentation is self.fragmentation
            and key.version == self.fragmentation.version == self._version
        )

    def run_key(self, key: QueryKey) -> RunResult:
        """Serve a derived request through the cache; ``key`` must be current.

        Concurrent identical misses coalesce into one protocol run
        (:meth:`LruResultCache.get_or_compute`).
        """
        return self._run_entry(key)[0]

    def _run_entry(self, key: QueryKey) -> Tuple[RunResult, CacheEntry]:

        def compute() -> CacheEntry:
            result = self._evaluate(key)
            return CacheEntry(
                result=result, query=key.query, algorithm=key.spec.name,
                order=key.form.order,
                fids=self._touched_fids(result.relation),
            )

        try:
            entry, hit = self._cache.get_or_compute(key.key, compute)
        except BaseException:
            # A query whose compute raised was still served (and is neither
            # a hit nor a miss).
            self.stats.bump("queries_served")
            raise
        if not hit:
            self.stats.sync_evictions(self._cache.stats.evictions)
        return self._served(key, entry, hit), entry

    def _evaluate_here(self, key: QueryKey) -> RunResult:
        # Providers, not values: a query the precheck refuses must not
        # build the watcher tables, nor a dict-engine one the CSR cache.
        return run_protocol(
            key.spec, key.query, self.fragmentation, self.config, self.engine,
            deps=lambda: self.deps, compiled=self.compiled_fragments,
        )

    # ------------------------------------------------------------------
    # standing queries
    # ------------------------------------------------------------------
    def pin(self, query: Pattern, algorithm: str = "auto") -> Tuple[RunResult, Pin]:
        """Serve ``query`` as :meth:`run` does and pin the entry that served
        it: warm (unless boolean-only) outside ``max_warm_states``, never the
        LRU's victim.  The caller holds the read exclusion."""
        self._refresh_if_stale()
        key = self._query_key(query, algorithm)
        result, entry = self._run_entry(key)
        pin = Pin(key, entry, result.relation)
        with self._pin_lock:
            entry.pins += (pin,)
        warmable = entry.warm is None and not self.config.boolean_only
        if warmable and self._cache.holds(key.key, entry):
            entry.warm = self._warm_state(entry)  # racing pins: either is exact
        return result, pin

    def unpin(self, pin: Pin) -> None:
        """Release a pin; its entry, once unpinned, rejoins the warm budget."""
        with self._pin_lock:
            pin.entry.pins = tuple(p for p in pin.entry.pins if p is not pin)

    def take_push(self, pin: Pin) -> Tuple[Pin, Tuple, Tuple]:
        """``(pin, added, removed)`` since the last call, in PUSH order: the
        folded repairs, or a diff of ``seen`` when the whole match appeared
        or vanished -- or when the entry left the cache (a lapsed
        precondition, a rebalance) and the query is pinned afresh through
        ``auto``, so the pin is new.  The caller holds the write exclusion."""
        before, key, entry = pin.seen, pin.key, pin.entry
        if self._cache.holds(key.key, entry):
            changes, pin.changes = pin.changes, {}
            pin.seen = after = entry.result.relation.renamed(entry.order, key.form.order)
            if before.is_match and after.is_match:
                rename = dict(zip(entry.order, key.form.order))
                flips = [((rename[q], v), now) for (q, v), now in changes.items()]
                added = _ordered(pair for pair, now in flips if now)
                return pin, added, _ordered(pair for pair, now in flips if not now)
        else:
            result, pin = self.pin(key.query, "auto")
            after = result.relation
        old, new = before.as_relation(), after.as_relation()
        return pin, _ordered(new - old), _ordered(old - new)

    def _query_key(self, query: Pattern, algorithm: str) -> QueryKey:
        """The request's key; the caller has just checked (or made) the
        session current, so ``_version`` is the graph's version."""
        spec = self._resolve_for_query(algorithm, query)
        form = self.canonical_form_of(query)
        return QueryKey(
            query, spec, form, (spec.name, form.digest),
            self.fragmentation, self._version,
        )

    def _served(self, key: QueryKey, entry: CacheEntry, hit: bool) -> RunResult:
        """Count one answered request and hand back the caller's copy."""
        stored = entry.result
        extras = dict(stored.metrics.extras)
        if hit:
            extras["cache_hit"] = 1.0
        self.stats.count_query(hit, entry.fids)
        # The metrics are copied either way: the caller owns what it gets,
        # and mutating its extras must not leak into later hits.
        m = stored.metrics
        return RunResult(
            relation=stored.relation.renamed(entry.order, key.form.order),
            metrics=RunMetrics(
                algorithm=m.algorithm, pt_seconds=m.pt_seconds,
                wall_seconds=m.wall_seconds, ds_bytes=m.ds_bytes,
                n_messages=m.n_messages, n_rounds=m.n_rounds,
                ds_breakdown=m.ds_breakdown,
                per_round_compute=m.per_round_compute, extras=extras,
            ),
        )

    def run_many(
        self, queries: Iterable[Pattern], algorithm: str = "auto"
    ) -> List[RunResult]:
        """Serve a stream of queries in order; one result per query."""
        return [self.run(query, algorithm) for query in queries]

    def _touched_fids(self, relation: MatchRelation) -> Tuple[int, ...]:
        """Fragments owning the relation's matched data nodes (sorted).

        Feeds the per-fragment traffic window.  Empty answers attribute no
        traffic: the window drives load *balance*, and an empty relation
        names no fragment.  Boolean-only answers carry sentinel witness
        tokens instead of graph nodes -- they carry no placement signal
        either, so the first unowned node short-circuits to no attribution.
        """
        owner = self.fragmentation.owner
        fids = set()
        for q in relation.query_nodes():
            for v in relation.raw_matches_of(q):
                try:
                    fids.add(owner(v))
                except ReproError:
                    return ()
        return tuple(sorted(fids))

    # ------------------------------------------------------------------
    # mutations (the write path; see the module docstring for the contract)
    # ------------------------------------------------------------------
    def apply(self, updates: Sequence[MutationOp]) -> List[MutationOutcome]:
        """Apply a batch of typed updates in order; one outcome per update.

        Each update is a :class:`~repro.graph.mutations.MutationOp`, patched
        into the fragmentation by its own :class:`Fragmentation` method:

        * :class:`~repro.graph.mutations.DeleteEdge` -- warm entries are
          repaired through the affected area only (``O(|AFF|)``);
          label-irrelevant entries are kept; affected hot entries are
          promoted to warm ones; the rest are evicted.
        * :class:`~repro.graph.mutations.InsertEdge` -- insertions can revive
          matches, which falsification-only repair cannot express: every
          warm entry re-opens the false pairs that reach the new edge and
          reruns the fixpoint from those
          (:meth:`IncrementalMatchState.apply`); with none, the insert only
          bumps the successor counter it feeds.
        * :class:`~repro.graph.mutations.AddNode` -- an isolated labeled node
          in fragment ``fid`` (default: the smallest).
        * :class:`~repro.graph.mutations.RemoveNode` -- the fragmentation
          turns the removal into a cascade of ordinary edge deletions (warm
          entries repair each one natively, in cascade order), then scrubs
          the isolated node from candidate sets and counters.

        An update that fails raises its own error; the updates before it
        stay applied.
        """
        return [self._absorb(normalize_op(update)) for update in updates]

    # ------------------------------------------------------------------
    # maintenance internals
    # ------------------------------------------------------------------
    def _absorb(self, op: MutationOp) -> MutationOutcome:
        """Patch the fragmentation with ``op`` and propagate the delta into
        every derived structure.

        Mutations are *not* safe against concurrent ``run`` calls on their
        own -- the concurrent front-end applies them at quiescent points
        behind its writer lock; direct multi-threaded use must provide the
        same exclusion.
        """
        start = time.perf_counter()
        self._refresh_if_stale()
        fragmentation = self.fragmentation
        match op:
            case DeleteEdge(u, v):
                delta = fragmentation.delete_edge(u, v)
            case InsertEdge(u, v):
                delta = fragmentation.insert_edge(u, v)
            case AddNode(node, label, fid):
                delta = fragmentation.add_node(node, label, fid)
            case RemoveNode(node):
                delta = fragmentation.remove_node(node)
            case _:
                raise ReproError(
                    f"unknown update kind {op.kind!r} "
                    "(known: delete, insert, add_node, remove_node)"
                )
        self.stats.bump("mutations")
        touched = {delta.source_fid, delta.target_fid}
        for edge_delta in delta.cascade:
            touched.add(edge_delta.source_fid)
            touched.add(edge_delta.target_fid)
        self.stats.bump_fragment("fragment_mutations", sorted(touched))
        if self._deps is not None:
            self._deps.apply_delta(delta)
        kept = repaired = evicted = promoted = falsified = 0
        live: List[Tuple[Tuple, CacheEntry]] = []
        for key, entry in self._cache.items():  # least recently served first
            if self._precondition_lapsed(entry):
                self._cache.pop(key)
                evicted += 1
            else:
                live.append((key, entry))
        # Warm slots belong to the most recently served hot entries; one that
        # has no state yet gets it from the first delta that may change it.
        # Pinned entries are warm outside the budget.
        unpinned = [e for _, e in live if not e.pins]
        hot = [e for e in unpinned if e.hits]
        warmable = self.max_warm_states > 0 and not self.config.boolean_only
        slots = set(hot[-self.max_warm_states:]) if warmable else ()
        for key, entry in live:
            changed = False
            if entry.warm is not None:
                cost = entry.warm.apply(delta)
                falsified += cost.n_falsified
                changed = cost.changed
                for pin in entry.pins:  # fold: a pair seen flipping back cancels
                    for now, pairs in ((False, cost.removed), (True, cost.added)):
                        for pair in pairs:
                            if pin.changes.pop(pair, now) is now:
                                pin.changes[pair] = now
            elif entry in slots and delta_may_change_answer(entry.query, delta):
                # Promotion (one fixpoint), built on the patched fragmentation:
                # the bootstrap already is the entry's answer after this delta.
                # With every slot taken, the least recently served warm entry
                # retires -- it precedes this one in the cache's order, so this
                # delta already repaired it; it stays cached, not warm.
                state = self._warm_state(entry)
                warm = [e for e in unpinned if e.warm is not None]
                while len(warm) >= self.max_warm_states:
                    warm.pop(0).warm = None
                entry.warm = state
                promoted += 1
                changed = state.relation() != entry.result.relation
            elif delta_may_change_answer(entry.query, delta):
                self._cache.pop(key)
                evicted += 1
                continue
            if changed:
                self._store(entry, entry.warm.relation())
                repaired += 1
            else:
                kept += 1
        self._version = self.fragmentation.version
        self.stats.bump("entries_kept", kept)
        self.stats.bump("entries_repaired", repaired)
        self.stats.bump("entries_evicted", evicted)
        self.stats.bump("entries_promoted", promoted)
        return MutationOutcome(
            kind=delta.kind,
            wall_seconds=time.perf_counter() - start,
            cache_kept=kept, cache_repaired=repaired, cache_evicted=evicted,
            falsified=falsified, delta=delta,
        )

    def _precondition_lapsed(self, entry: CacheEntry) -> bool:
        """True iff the mutation just applied took away the graph shape the
        entry's algorithm requires: a fresh ``run`` would now raise (or, under
        ``auto``, pick another algorithm), so the entry must not be served."""
        if entry.algorithm == "dgpmd":
            return not dgpmd_applies(entry.query, self.fragmentation)
        return entry.algorithm == "dgpmt" and not dgpmt_applies(self.fragmentation)

    @staticmethod
    def _store(entry: CacheEntry, relation: MatchRelation) -> None:
        """Swap a repaired answer into ``entry``; its metrics stay those of
        the original run, with a ``maintained`` marker counting repairs."""
        cached = entry.result
        extras = dict(cached.metrics.extras)
        extras["maintained"] = extras.get("maintained", 0.0) + 1.0
        entry.result = RunResult(
            relation=relation, metrics=replace(cached.metrics, extras=extras)
        )

    def _warm_state(self, entry: CacheEntry) -> IncrementalMatchState:
        """A fresh incremental state for ``entry``'s query (one fixpoint)."""
        return IncrementalMatchState(
            entry.query, self.fragmentation, self.deps, self.config
        )

    # ------------------------------------------------------------------
    def _resolve_for_query(self, algorithm: str, query: Pattern) -> AlgorithmSpec:
        """The spec ``algorithm`` names (``"auto"``: dispatched on the
        graph's shape); an unknown name raises before any protocol work,
        listing the served names."""
        name = algorithm.lower()
        if name == "auto":
            name = choose_algorithm(query, self.fragmentation).lower()
        elif name not in ALGORITHMS:
            known = ", ".join(sorted({"auto", *ALGORITHMS}))
            raise ReproError(f"unknown algorithm {algorithm!r} (known: {known})")
        return ALGORITHMS[name]

    def __repr__(self) -> str:
        return (
            f"SimulationSession({self.fragmentation!r}, served={self.stats.queries_served}, "
            f"hit_rate={self.stats.hit_rate:.2f})"
        )
