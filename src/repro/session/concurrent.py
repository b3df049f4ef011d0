"""Concurrent serving of one resident :class:`SimulationSession`.

The paper's possibility results assume a resident fragmentation answering
*many independent* queries (Sections 4-5); each query is a pure read and the
engine is single-threaded per query, so serving them in parallel changes
throughput, never answers.  :class:`ConcurrentSessionServer` is that serving
tier: a front-end over exactly one session, with an admission protocol
that keeps the paper's correctness guarantees intact while the graph
mutates underneath the traffic.

The snapshot/stamp contract
---------------------------

* **Readers run concurrently.**  Any number of in-flight :meth:`run` /
  :meth:`submit` calls proceed at once under a shared hold of the gate.
* **Writers run at quiescent points.**  :meth:`apply`, the one write call,
  applies its batch under its own exclusive hold of the gate, taken only
  while *no* query is in flight (writer priority: an arriving writer stops
  new readers from starting, in-flight readers drain, the batch applies,
  readers resume); concurrent batches take the hold one after another.  A
  batch that needs no wait at all may be applied on the calling thread
  instead (:meth:`apply_if_free`, which the TCP ingress tries first).  A
  batch submitted through one :meth:`apply` call is atomic: readers can
  never observe a graph between two updates of the same batch.
* **Every result is stamped.**  The server counts applied mutations; the
  *mutation stamp* of a query result is that counter at the moment the query
  ran.  Because writers only run at quiescent points, a result stamped ``s``
  is exactly the relation a from-scratch simulation would produce on the
  graph after the first ``s`` mutations -- snapshot semantics, checked
  end-to-end by ``tests/session/test_concurrent_stress.py``.  :meth:`apply`
  blocks until its batch is applied and returns one :class:`StampedOutcome`
  per update (outcome plus the stamp the graph reached); a one-update batch
  that fails raises that update's own error.

The gate
--------

All of this is one condition variable over one immutable four-field record
(:class:`_GateState`), whose transitions are pure and admit, refuse or
wait.  ``tests/session/test_gate_explorer.py`` runs each server method's
sequence of transitions for up to five callers over every reachable state
and checks mutual exclusion, writer priority, every admitted batch applied
exactly once before its caller returns, :meth:`close` completing only after
every admitted batch, and that no state deadlocks.  A blocked writer is a
thread parked on the gate; the gate itself caps neither their number nor
the readers'.

One read path, two places a miss computes
-----------------------------------------

Every read goes through the fronted session's result cache, on either
backend: a cache hit that needs no wait is answered on the calling thread
(:meth:`submit` says when); the rest -- misses, and hits that meet a
writer, a stale fragmentation or an undecided shape fact -- run on a
thread pool.  A slow query never blocks an unrelated one, concurrent
identical queries coalesce into a single computation
(:meth:`LruResultCache.get_or_compute`), and cached entries are repaired
across mutations by the session.  The pool's width buys no throughput
(measured: misses run at the same ops/s at width 1, 2 and 4); what it sets
is how many misses, and hits that fell through to the pool, run at once
(the README has the numbers).  The backend only decides where a miss
computes:

* ``backend="thread"`` -- in process, over the session's fragmentation.
* ``backend="sharded"`` -- the paper's site model as a deployment: each of
  a pool of :func:`~repro.runtime.mp._shard_worker` OS processes owns only
  the fragments a :class:`~repro.session.sharding.HashRing` assigns it
  (never the base graph), and this class plays coordinator.  A miss is
  the same :func:`~repro.core.protocol.run_protocol` call as in-process
  evaluation, with the worker handles as the engine's hosts: one superstep
  loop, one metering path, so rounds, messages, DS and PT mean the same on
  both backends and do not depend on ``n_workers``
  (``extras["colocated_ds_bytes"]`` is the part of DS that stayed inside a
  worker).  Mutation batches ship, inside the same write hold that
  patches the parent session, only to the workers owning the touched
  fragments; a dead worker is respawned (or evicted) from the parent's
  authoritative fragmentation, so no batch is ever lost.  After
  :meth:`close` the session computes in process again.

>>> server = ConcurrentSessionServer(fragmentation, backend="thread")
>>> futures = [server.submit(q) for q in queries]     # concurrent reads
>>> [outcome] = server.apply([DeleteEdge(u, v)])      # quiescent-point write
>>> outcome.stamp                                     # graph version reached
1
>>> server.run(queries[0]).stamp                      # observed by this read
1
>>> server.close()
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.config import DgpmConfig
from repro.core.depgraph import DependencyGraphs
from repro.core.protocol import run_protocol
from repro.errors import (
    MutationBatchError,
    Overloaded,
    ProtocolError,
    ReproError,
    TransportError,
)
from repro.graph.mutations import MutationOp, normalize_ops
from repro.graph.pattern import Pattern
from repro.partition.fragmentation import Fragmentation, MutationDelta
from repro.partition.metrics import PartitionStats, partition_stats
from repro.partition.partitioners import min_cut_partition, traffic_node_weights
from repro.runtime.metrics import RunMetrics, RunResult
from repro.runtime.transport import FaultPlan, RetryPolicy
from repro.session.session import MutationOutcome, Pin, QueryKey, SimulationSession
from repro.session.sharding import HashRing
from repro.simulation.matchrel import MatchRelation

#: standing queries one server holds at most; each pins a warm cache entry
#: outside the session's ``max_warm_states``, so this bounds those states
MAX_SUBSCRIPTIONS = 1024

#: the longest batch :meth:`ConcurrentSessionServer.apply_if_free` applies on
#: the calling thread (over TCP, the ingress loop): one update spends ~0.3 ms
#: in the session, so an inline batch holds that thread ~5 ms at most
INLINE_MAX_OPS = 16


@dataclass(frozen=True)
class StampedResult:
    """One served query: the answer plus the mutation stamp it observed.

    ``relation`` equals a from-scratch simulation of the query on the graph
    after the first ``stamp`` server-applied mutations.
    """

    relation: MatchRelation
    metrics: RunMetrics
    stamp: int

    @property
    def is_match(self) -> bool:
        """Boolean-query view of the answer."""
        return self.relation.is_match


@dataclass(frozen=True)
class StampedOutcome:
    """One applied mutation: the session's outcome plus the stamp it set.

    After this mutation the graph is at version ``stamp``; any query result
    carrying the same stamp observed exactly this graph.
    """

    outcome: MutationOutcome
    stamp: int


@dataclass(frozen=True)
class RebalanceOutcome:
    """What one online :meth:`ConcurrentSessionServer.rebalance` did.

    The stamp does *not* advance: a rebalance changes placement, never the
    graph, so answers before and after are identical (the per-stamp replay
    oracle of ``tests/session/test_rebalance.py`` checks exactly this across
    a live migration).
    """

    #: ``"repartition"`` (new fragmentation) or ``"place"`` (ring moves only)
    mode: str
    #: graph version the rebalance happened at (unchanged by it)
    stamp: int
    #: ``repartition``: nodes that changed fragment; ``place``: fragments
    #: that changed worker
    moved: int
    #: crossing-edge count before/after (identical for ``place``)
    cut_before: int
    cut_after: int
    #: ``Σ |Fi.O| + |Fi.I|`` before/after (identical for ``place``)
    boundary_before: int
    boundary_after: int
    wall_seconds: float


#: a gate transition's decision: commit and proceed, commit and give up, or
#: park the caller until the state changes (committing nothing)
_ADMIT, _REFUSE, _WAIT = "admit", "refuse", "wait"


class _GateState(NamedTuple):
    """A server's whole admission state.  Each method is a pure
    transition ``(state, *args) -> (decision, new state)``, run by
    :class:`_Gate` and by ``tests/session/test_gate_explorer.py``."""

    readers: int = 0
    writer: bool = False
    #: announced blocking writers; they bar new readers (writer priority)
    writers_waiting: int = 0
    closed: bool = False

    def read(self):
        if self.writer or self.writers_waiting:
            return _WAIT, self
        return _ADMIT, self._replace(readers=self.readers + 1)

    def read_done(self):
        return _ADMIT, self._replace(readers=self.readers - 1)

    def announce(self):
        """Admit a blocking writer, which then waits for its hold."""
        if self.closed:
            return _REFUSE, self
        return _ADMIT, self._replace(writers_waiting=self.writers_waiting + 1)

    def write(self):
        if self.writer or self.readers:
            return _WAIT, self
        waiting = self.writers_waiting - 1
        return _ADMIT, self._replace(writer=True, writers_waiting=waiting)

    def withdraw(self):
        return _ADMIT, self._replace(writers_waiting=self.writers_waiting - 1)

    def write_done(self):
        return _ADMIT, self._replace(writer=False)

    def write_inline(self):
        """The write hold for a batch that needs no wait: only an idle,
        open gate admits it."""
        if self.closed:
            return _REFUSE, self
        if self != _GateState():
            return _WAIT, self
        return _ADMIT, self._replace(writer=True)

    def close(self):
        if self.closed:
            return _REFUSE, self
        return _ADMIT, self._replace(closed=True)

    def drained(self):
        """:meth:`ConcurrentSessionServer.close`'s last write hold, taken
        once every admitted writer and every reader is done."""
        if self.writer or self.readers or self.writers_waiting:
            return _WAIT, self
        return _ADMIT, self._replace(writer=True)


def _wakes(old: _GateState, new: _GateState) -> bool:
    """Whether a caller parked on ``old`` may proceed on ``new``."""
    return (
        old.readers > new.readers == 0
        or old.writer > new.writer
        or (old.writers_waiting > new.writers_waiting and not new.writer)
    )


class _Gate:
    """A server's one admission lock: a condition over a :class:`_GateState`.
    Writer priority keeps queries from starving mutations; each batch takes
    its own write hold and releases it, so readers resume between batches."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._state = _GateState()

    def step(self, transition, *args, wait=True, timeout=None) -> Optional[_GateState]:
        """Run one transition: commit its state on admit or refuse, wake the
        parked callers if one may now proceed, park this one on wait.  The
        committed state on admit, else None; ``wait=False``, or a
        ``timeout`` (s) that runs out, refuses instead of waiting."""
        with self._cond:
            old = self._state
            decision, new = transition(old, *args)
            if decision == _WAIT:
                if not wait or not self._cond.wait_for(
                    lambda: transition(self._state, *args)[0] != _WAIT, timeout
                ):
                    return None
                old = self._state
                decision, new = transition(old, *args)
            self._state = new
            if _wakes(old, new):
                self._cond.notify_all()
        return new if decision == _ADMIT else None

    @contextmanager
    def reading(self, wait: bool = True):
        """A shared hold; yields whether it is held."""
        held = self.step(_GateState.read, wait=wait) is not None
        try:
            yield held
        finally:
            if held:
                self.step(_GateState.read_done)

    @contextmanager
    def writing(self, wait: bool = True):
        """An exclusive hold; yields whether it is held.  ``wait=True``
        always holds it, or raises on a closed gate; ``wait=False`` holds it
        only on an idle, open gate."""
        if wait:
            if self.step(_GateState.announce) is None:
                raise ReproError("the server is closed")
            try:
                held = self.step(_GateState.write) is not None
            except BaseException:  # interrupted while parked
                self.step(_GateState.withdraw)
                raise
        else:
            held = self.step(_GateState.write_inline, wait=False) is not None
        try:
            yield held
        finally:
            if held:
                self.step(_GateState.write_done)


class _ShardHandle:
    """One shard worker: its process, link, dispatch lock and ring slot.

    To the superstep engine (:mod:`repro.runtime.engine`) this is the remote
    host: :meth:`post` and :meth:`collect` carry its ``q.*`` commands.
    """

    __slots__ = ("process", "link", "lock", "slot", "dead", "owed")

    def __init__(self, process, link, slot) -> None:
        self.process = process
        self.link = link  # the parent end of the worker's pipe (or a FaultyTransport)
        self.lock = threading.Lock()
        self.slot = slot
        self.dead = False  # set on link failure; the heal pass respawns it
        self.owed = False  # posted to, reply not collected yet

    def _link_error(self, command: str, exc: BaseException) -> ProtocolError:
        """The uniform dead-worker error for every link operation.

        A worker that died (OOM-kill, segfault) surfaces as ``EOFError`` /
        ``OSError`` here (``TransportError`` from an injected fault) instead
        of blocking forever: the pipe's child end is closed in the parent at
        spawn time, so the pipe hits EOF.
        """
        return ProtocolError(
            f"worker process (pid {self.process.pid}) died mid-"
            f"{command}: {exc!r}"
        )

    def request(self, command: str, payload):
        """One command/reply round-trip (under the pool lock, as :meth:`post`)."""
        self.post(command, payload)
        return self.collect(command)

    def post(self, command: str, payload) -> None:
        """Send without waiting for the reply (pair with :meth:`collect`).

        Only valid under the pool lock, when nothing else can interleave
        on this link -- supersteps and broadcasts use it to overlap all
        workers' work instead of round-tripping one worker at a time.  A
        broken link marks the worker dead.
        """
        try:
            with self.lock:
                self.link.send((command, payload))
        except (EOFError, BrokenPipeError, TransportError, OSError) as exc:
            self.dead = True
            raise self._link_error(command, exc) from exc
        self.owed = True

    def collect(self, command: str):
        """Receive the reply to an earlier :meth:`post`; a broken link or a
        worker that lost track of the protocol marks the worker dead."""
        self.owed = False
        try:
            with self.lock:
                status, reply = self.link.recv()
        except (EOFError, BrokenPipeError, TransportError, OSError) as exc:
            self.dead = True
            raise self._link_error(command, exc) from exc
        if status == "err":
            self.dead = isinstance(reply, ProtocolError) or self.dead
            raise reply if isinstance(reply, BaseException) else ProtocolError(str(reply))
        return reply


class ConcurrentSessionServer:
    """Thread/sharded front-end serving one resident session concurrently.

    Parameters
    ----------
    source:
        A :class:`Fragmentation` (a fresh session is built over it, honoring
        ``config`` and ``session_kwargs``) or an existing
        :class:`SimulationSession` to front.
    backend:
        Where a cache miss computes: ``"thread"`` (in process) or
        ``"sharded"`` (fragment-owning OS workers: the paper's site model,
        bounded per-worker memory and fault isolation -- not speed); both
        read through the session's one result cache.  See the module
        docstring.
    n_workers:
        Thread-pool width: how many pool requests (misses, and hits that
        fell through to the pool) run at once.  Not a throughput knob
        (misses run at the same ops/s at any width), and a hit that needs
        no wait never enters the pool, so it does not queue behind a running
        miss at any width.  For the sharded backend also the number of shard
        worker processes.
    config:
        The config of a session built from a fragmentation, the one every
        request runs under (rejected together with an existing session --
        that session already has one).
    session_kwargs:
        Extra :class:`SimulationSession` keyword arguments for a session
        built from a fragmentation (``cache_size``, ``max_warm_states``, ...).
    """

    def __init__(
        self,
        source,
        backend: str = "thread",
        n_workers: int = 4,
        config: Optional[DgpmConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
        respawn: Optional[RetryPolicy] = None,
        **session_kwargs,
    ) -> None:
        if backend not in ("thread", "sharded"):
            raise ReproError(
                f"unknown backend {backend!r} (known: thread, sharded)"
            )
        if fault_plan is not None and backend != "sharded":
            raise ReproError(
                "fault_plan= injects faults on shard worker links; it "
                "requires backend='sharded'"
            )
        if n_workers < 1:
            raise ReproError("n_workers must be >= 1")
        if isinstance(source, SimulationSession):
            if config is not None or session_kwargs:
                raise ReproError(
                    "config/session kwargs belong to the session; pass a "
                    "Fragmentation to have the server build one"
                )
            self._session = source
        elif isinstance(source, Fragmentation):
            self._session = SimulationSession(source, config=config, **session_kwargs)
        else:
            raise ReproError(
                f"cannot serve a {type(source).__name__}; pass a "
                "Fragmentation or a SimulationSession"
            )
        if backend == "sharded" and self._session.engine != "dict":
            raise ReproError(
                "backend='sharded' requires a dict-engine session: shard "
                "workers hold fragment subsets, and the array engine's "
                "compiled cache is built per full fragmentation"
            )
        self.backend = backend
        self.n_workers = n_workers
        self._gate = _Gate()
        self._stamp = 0
        self._executor = ThreadPoolExecutor(
            max_workers=n_workers, thread_name_prefix="repro-serve"
        )
        #: sharded backend: worker pool keyed by ring slot, serialized by a
        #: reentrant pool lock (ring state, respawns, and distributed runs)
        self._pool_lock = threading.RLock()
        self._fault_plan = fault_plan
        self._respawn_policy = respawn if respawn is not None else RetryPolicy()
        self._shards: Optional[List[_ShardHandle]] = None
        self._ring: Optional[HashRing] = None
        self._respawns = 0
        self._rebalances = 0
        #: standing queries: sub_id -> (delta callback, pin on the cache
        #: entry).  Their lock is only ever taken second, inside a gate hold
        #: (registration under a read hold, notify under a write hold) or on
        #: its own
        self._sub_lock = threading.Lock()
        self._subs: Dict[int, Tuple[Callable[[int, int, Tuple, Tuple], None], Pin]] = {}
        self._next_sub_id = 1
        if backend == "sharded":
            self._ring, self._shards = self._spawn_shards()
            self._session._evaluate = self._evaluate_on_shards

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _spawn_shards(self) -> Tuple[HashRing, List["_ShardHandle"]]:
        """Build the ring and start one fragment-owning worker per slot.

        Each worker ships out with only its owned fragments (plus the
        shared watcher tables) -- never the base graph -- so per-worker
        memory scales with ``|F|/n`` (held as exact ``resident_size`` counts
        by ``tests/session/test_sharding.py``; measured as
        ``runtime.worker_rss_mb_max`` by the serving benchmark).  Slots
        start one at a time through :meth:`_start_worker`, the respawn
        path; if one fails, the workers already started are terminated.
        """
        self._session.warm()
        ring = HashRing(
            tuple(range(self.n_workers)),
            tuple(frag.fid for frag in self._session.fragmentation),
        )
        handles: List[_ShardHandle] = []
        try:
            for slot in ring.workers:
                handles.append(self._start_worker(slot, ring.fragments_of(slot)))
        except BaseException:
            for handle in handles:
                self._close_link(handle)
                handle.process.terminate()
            raise
        return ring, handles

    def _start_worker(self, slot, fids) -> "_ShardHandle":
        """Spawn and probe (:func:`~repro.runtime.mp.respawn_worker`) one
        worker for ``slot`` holding ``fids`` of the current fragmentation."""
        from repro.runtime.mp import _shard_worker, respawn_worker

        shard = self._session.fragmentation.extract_shard(fids)
        init = (shard, self._session.deps)
        proc, link = respawn_worker(_shard_worker, init, self._respawn_policy)
        if self._fault_plan is not None:
            link = self._fault_plan.wrap(slot, link, on_kill=proc.terminate)
        return _ShardHandle(proc, link, slot)

    def close(self) -> None:
        """Drain in-flight work and shut both pools down (idempotent).

        New work is refused the moment the flag flips; queries already in
        the executor and batches already admitted finish first, so no
        batch's worker broadcast races the worker shutdown.
        """
        if not self._gate.step(_GateState.close):
            return
        self._executor.shutdown(wait=True)
        # The last write hold: every admitted batch has finished its worker
        # broadcast and no read computes on the pool (bounded: a wedged
        # batch must not make close() hang forever).
        held = self._gate.step(_GateState.drained, timeout=30.0) is not None
        if self._shards is not None:
            self._session._evaluate = self._session._evaluate_here
        if held:
            self._gate.step(_GateState.write_done)
        for handle in self._shards or ():
            try:
                with handle.lock:
                    handle.link.send(("stop", None))
            except (BrokenPipeError, TransportError, OSError):
                pass
        for handle in self._shards or ():
            handle.process.join(timeout=10)
            if handle.process.is_alive():  # pragma: no cover - defensive
                handle.process.terminate()
            handle.link.close()  # else the parent-side FDs live until GC

    def __enter__(self) -> "ConcurrentSessionServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    @property
    def stamp(self) -> int:
        """Mutations applied so far (the current graph version)."""
        return self._stamp

    @property
    def session(self) -> SimulationSession:
        """The fronted session (mutate it only through this server).  Until
        ``close()`` a sharded server computes its misses on the pool, also in
        a direct call, which takes no server lock: make one only when idle."""
        return self._session

    @property
    def stats(self):
        """The fronted session's serving counters."""
        return self._session.stats

    def submit(
        self, query: Pattern, algorithm: str = "auto"
    ) -> "Future[StampedResult]":
        """Enqueue one query; the future resolves to a :class:`StampedResult`.

        A cache hit that needs no wait is answered on the calling thread and
        comes back as an already-resolved future, on either backend.  It
        needs none when the gate has no writer (active or waiting) and
        :meth:`SimulationSession.lookup` finds the key without
        ``O(|G|)`` work -- the fragmentation is not stale, an ``"auto"``
        dispatch reads only decided shape facts -- and cached, not in
        flight.  Everything else runs on the pool, a miss reusing the key
        the failed lookup derived; only a miss reaches the shard workers.
        Errors, the lookup's included, always arrive through the future.
        """
        self._check_open()
        key = None
        future: "Future[StampedResult]" = Future()
        try:
            with self._gate.reading(wait=False) as held:
                if held:
                    hit, key = self._session.lookup(query, algorithm)
                    if hit is not None:
                        future.set_result(
                            StampedResult(hit.relation, hit.metrics, self._stamp)
                        )
                        return future
        except Exception as exc:
            future.set_exception(exc)
            return future
        try:
            return self._executor.submit(self._serve, query, algorithm, key)
        except RuntimeError as exc:
            # close() raced us between _check_open and the executor submit;
            # keep the documented error contract.
            raise ReproError("the server is closed") from exc

    def run(self, query: Pattern, algorithm: str = "auto") -> StampedResult:
        """Serve one query synchronously (still concurrent with other calls)."""
        return self.submit(query, algorithm=algorithm).result()

    def run_many(
        self, queries: Iterable[Pattern], algorithm: str = "auto"
    ) -> List[StampedResult]:
        """Serve a batch of queries concurrently; results in input order."""
        futures = [self.submit(query, algorithm=algorithm) for query in queries]
        return [future.result() for future in futures]

    def _serve(
        self, query: Pattern, algorithm: str, key: Optional[QueryKey]
    ) -> StampedResult:
        with self._gate.reading():
            stamp = self._stamp
            if key is not None and self._session.is_current(key):
                result = self._session.run_key(key)
            else:
                result = self._session.run(query, algorithm=algorithm)
        return StampedResult(
            relation=result.relation, metrics=result.metrics, stamp=stamp
        )

    # ------------------------------------------------------------------
    # sharded backend: fragment-owning workers behind a consistent-hash ring
    # ------------------------------------------------------------------
    @property
    def ring(self) -> Optional[HashRing]:
        """The current fragment->worker assignment (sharded backend)."""
        return self._ring

    @property
    def respawns(self) -> int:
        """Workers respawned after a death (sharded backend)."""
        return self._respawns

    @property
    def rebalances(self) -> int:
        """Online rebalances performed so far (any backend)."""
        return self._rebalances

    def partition_snapshot(self) -> PartitionStats:
        """Cut-quality statistics of the currently served fragmentation.

        Taken under the read lock, so the snapshot never interleaves with a
        mutation batch or a rebalance; the wire ``stats()`` reply carries
        this object.
        """
        self._check_open()
        with self._gate.reading():
            return partition_stats(self._session.fragmentation)

    def shard_stats(self) -> List[dict]:
        """Per-shard-worker stats (owned fragments, resident size, peak RSS)."""
        if self._shards is None:
            raise ReproError("shard_stats requires the sharded backend")
        self._check_open()
        with self._gate.reading():
            with self._pool_lock:
                self._heal_pool_locked()
                return [
                    handle.request("stats", None)
                    for handle in self._shards
                    if not handle.dead
                ]

    def _evaluate_on_shards(self, key: QueryKey) -> RunResult:
        """The session's miss while this sharded server is open: it runs on
        the pool, taking the pool lock after the server's (see :attr:`session`)."""
        # Queries are pure reads, so a worker death mid-run is retried from
        # scratch after the pool heals (bounded: each retry removes or
        # respawns at least one dead worker).
        with self._pool_lock:
            last: Optional[BaseException] = None
            for _ in range(self.n_workers + 2):
                self._heal_pool_locked()
                try:
                    return self._run_plan_locked(key)
                except ProtocolError as exc:
                    last = exc
            raise ProtocolError(
                f"sharded query failed after repeated pool repair: {last}"
            ) from last

    def _run_plan_locked(self, key: QueryKey) -> RunResult:
        """One distributed run: the protocol in-process evaluation runs,
        with every site placed on the worker that owns its fragment.

        The superstep loop, the metering and the metrics are
        :func:`~repro.core.protocol.run_protocol`'s; what is this backend's
        own is the placement and draining the replies an aborted run left
        owed.
        """
        session = self._session
        handles = {h.slot: h for h in self._shards if not h.dead}
        if not handles:
            raise ProtocolError(
                "every shard worker has died -- rebuild the server"
            )
        if len(handles) < len(self._shards):
            # Marked dead by the heal pass itself (a failed install): its
            # fragments have no live host until the next heal respawns it.
            raise ProtocolError("a shard worker died while the pool healed")
        placement = {
            frag.fid: handles[self._ring.owner_of(frag.fid)]
            for frag in session.fragmentation
        }
        try:
            return run_protocol(
                key.spec, key.query, session.fragmentation, session.config,
                placement=placement,
            )
        except BaseException:
            self._abort_outstanding(handles.values())
            raise

    @staticmethod
    def _abort_outstanding(handles: Iterable[_ShardHandle]) -> None:
        """Drain replies still owed after an aborted run.

        Unread replies would mispair with the next command on the link;
        collect-and-discard from every still-live worker (``q.start``
        unconditionally resets worker query state, so no abort command is
        needed).  A worker whose link fails here is marked dead by
        :meth:`_ShardHandle.collect`; a worker-side error reply leaves the
        link clean.
        """
        for handle in handles:
            if not handle.dead and handle.owed:
                try:
                    handle.collect("abort-drain")
                except Exception:
                    pass

    def _heal_pool_locked(self) -> None:
        """Respawn every dead shard worker; shrink the ring on give-up.

        A respawned worker receives its shard freshly extracted from the
        parent's *current* fragmentation -- every mutation applied while it
        was down is inherently included, so no batch is ever lost.  If the
        bounded :class:`~repro.runtime.transport.RetryPolicy` is exhausted,
        the slot leaves the ring and only its (migrated) fragments are
        re-shipped to the surviving owners.
        """
        with self._pool_lock:
            for handle in list(self._shards):
                if not handle.dead and handle.process.is_alive():
                    continue
                handle.dead = True
                try:
                    fresh = self._start_worker(
                        handle.slot, self._ring.fragments_of(handle.slot)
                    )
                except ProtocolError:
                    self._evict_slot_locked(handle)
                    continue
                self._close_link(handle)
                self._shards[self._shards.index(handle)] = fresh
                self._respawns += 1
            if not self._shards:
                raise ProtocolError(
                    "every shard worker has died -- rebuild the server"
                )

    def _evict_slot_locked(self, handle: _ShardHandle) -> None:
        """Remove an unrecoverable slot; re-ship only the migrated fragments."""
        with self._pool_lock:
            if len(self._ring.workers) == 1:
                self._shards.remove(handle)
                return  # _heal_pool_locked raises "every shard worker died"
            self._install_moves_locked(self._ring.leave(handle.slot), gone=handle)
            self._shards.remove(handle)
            self._close_link(handle)

    @staticmethod
    def _close_link(handle: _ShardHandle) -> None:
        try:
            handle.link.close()
        except (OSError, TransportError):  # pragma: no cover
            pass

    def _broadcast_deltas_locked(self, deltas: List[MutationDelta]) -> None:
        """Route applied deltas to owning workers (+ watchers on boundary moves).

        Boundary transitions (``virtual_added``/``virtual_dropped``) patch
        every worker's watcher tables; all other deltas only touch the
        fragments of their source/target owners.  A worker that fails here
        is marked dead: its replacement re-extracts from the authoritative
        parent fragmentation at heal time, so the batch is never lost.
        """
        with self._pool_lock:
            live = {h.slot: h for h in self._shards if not h.dead}
            per_slot: dict = {}
            for delta in deltas:
                # A composite delta (remove_node) routes by the union of its
                # cascade parts plus the dropped node's own fragment.
                parts = (delta, *delta.cascade)
                if any(p.virtual_added or p.virtual_dropped for p in parts):
                    slots = set(live)
                else:
                    slots = set()
                    for part in parts:
                        for fid in (part.source_fid, part.target_fid):
                            slot = self._ring.owner_of(fid)
                            if slot in live:
                                slots.add(slot)
                for slot in slots:
                    per_slot.setdefault(slot, []).append(delta)
            self._fan_out("mutate", {live[s]: batch for s, batch in per_slot.items()})

    @staticmethod
    def _fan_out(command: str, payloads: Dict[_ShardHandle, object]) -> None:
        """Post ``command`` to every worker at once, then collect the replies.

        A worker that fails either way -- a dead link, or an in-worker
        failure that may have diverged its shard -- is retired: its respawn
        re-extracts the parent's (already updated) state, so nothing is lost.
        """
        posted: List[_ShardHandle] = []
        for handle, payload in payloads.items():
            try:
                handle.post(command, payload)
                posted.append(handle)
            except ProtocolError:
                pass  # post marked it dead
        for handle in posted:
            try:
                handle.collect(command)
            except Exception:
                handle.dead = True

    def _install_moves_locked(
        self, new_ring: HashRing, gone: Optional[_ShardHandle] = None
    ) -> int:
        """Adopt ``new_ring``: ship each moved fragment to its gaining worker
        and drop it from its losing one; returns how many moved.  A slot
        without a live worker (``gone`` is leaving) picks its share up when
        its respawn extracts from the new ring; a worker that fails the
        install is retired the same way."""
        moved = self._ring.moved(new_ring)
        live = {h.slot: h for h in self._shards if h is not gone and not h.dead}
        installs: Dict = {}
        for fid, (losing, gaining) in moved.items():
            frag = self._session.fragmentation[fid]
            installs.setdefault(gaining, ({}, []))[0][fid] = frag
            installs.setdefault(losing, ({}, []))[1].append(fid)
        self._fan_out("install", {
            live[slot]: (adds, sorted(drops), None)
            for slot, (adds, drops) in sorted(installs.items(), key=lambda i: repr(i[0]))
            if slot in live
        })
        with self._pool_lock:  # reentrant: every caller already holds it
            self._ring = new_ring
        return len(moved)

    # ------------------------------------------------------------------
    # online repartitioning
    # ------------------------------------------------------------------
    def rebalance(
        self,
        mode: str = "repartition",
        traffic: Optional[Dict[int, int]] = None,
        seed: int = 0,
    ) -> RebalanceOutcome:
        """Re-place the served graph by observed traffic, at a quiescent point.

        Two modes, both answer-invariant (they change *where* data lives,
        never *what* the data is -- every protocol computes the same maximum
        simulation on any placement, so the mutation stamp does not move):

        * ``"repartition"`` -- compute a fresh cut-minimizing fragmentation
          with :func:`~repro.partition.partitioners.min_cut_partition`,
          weighting nodes by the per-fragment traffic window (hot fragments
          get heavy nodes, so the partitioner both avoids cutting hot
          regions and spreads them), rebuild the watcher tables once, and
          swap every serving layer over: the parent session
          (:meth:`SimulationSession.swap_fragmentation`) and sharded workers
          (each gets an ``install`` of every fragment of its slot plus the
          new watcher tables).  Works on both backends.
        * ``"place"`` -- sharded backend only: keep the fragmentation, move
          whole fragments between workers along a traffic-balanced ring
          (:meth:`HashRing.rebalanced`) by ``install``; only moved
          fragments re-ship.

        ``traffic`` overrides the ``{fid: count}`` window read from the
        parent session's counters (cache hits count, and never reach a
        worker).  The write lock is held throughout --
        readers see the old placement or the new one, never an intermediate
        -- and the traffic window resets afterwards so the next rebalance
        sees fresh counters.  Shard workers that fail mid-rebalance are
        marked dead and heal from the (already swapped) parent.
        """
        if mode not in ("repartition", "place"):
            raise ReproError(
                f"unknown rebalance mode {mode!r} (known: repartition, place)"
            )
        if mode == "place" and self._shards is None:
            raise ReproError(
                "mode='place' moves fragments between shard workers; it "
                "requires backend='sharded'"
            )
        self._check_open()
        start = time.perf_counter()
        with self._gate.writing():
            if traffic is None:
                # The parent session's window: every served query, hits
                # included (so "place" weighs demand, not worker work), plus
                # mutations.  The overflow key carries no placement signal.
                traffic = self._session.stats.traffic_snapshot()
                traffic.pop(-1, None)
            before = partition_stats(self._session.fragmentation)
            if mode == "place":
                moved = self._rebalance_placement_locked(traffic)
                after = before
            else:
                moved = self._rebalance_repartition_locked(traffic, seed)
                after = partition_stats(self._session.fragmentation)
            with self._pool_lock:
                self._rebalances += 1
        return RebalanceOutcome(
            mode=mode,
            stamp=self._stamp,
            moved=moved,
            cut_before=before.n_crossing_edges,
            cut_after=after.n_crossing_edges,
            boundary_before=before.total_boundary,
            boundary_after=after.total_boundary,
            wall_seconds=time.perf_counter() - start,
        )

    def _rebalance_repartition_locked(self, traffic: Dict[int, int], seed: int) -> int:
        session = self._session
        old = session.fragmentation
        new_frag = min_cut_partition(
            old.graph,
            old.n_fragments,
            seed=seed,
            node_weights=traffic_node_weights(old, traffic),
        )
        moved = sum(
            1 for v in old.graph.nodes() if old.owner(v) != new_frag.owner(v)
        )
        deps = DependencyGraphs(new_frag)
        # Parent first: it is the authoritative copy every shard respawn
        # re-extracts from, so a worker that fails below heals onto the
        # *new* partition, never the old one.
        session.swap_fragmentation(new_frag, deps=deps)
        if self._shards is not None:
            with self._pool_lock:
                self._heal_pool_locked()
                # Same ring, new contents: every owned fragment re-ships
                # over its old copy, with the new watcher tables.
                self._fan_out("install", {
                    h: (
                        {fid: new_frag[fid] for fid in self._ring.fragments_of(h.slot)},
                        (),
                        deps,
                    )
                    for h in self._shards
                    if not h.dead
                })
        return moved

    def _rebalance_placement_locked(self, traffic: Dict[int, int]) -> int:
        with self._pool_lock:
            self._heal_pool_locked()
            moved = self._install_moves_locked(self._ring.rebalanced(traffic))
        self._session.stats.reset_fragment_traffic()
        return moved

    # ------------------------------------------------------------------
    # standing queries (subscriptions)
    # ------------------------------------------------------------------
    def subscribe(
        self,
        query: Pattern,
        callback: Callable[[int, int, Tuple, Tuple], None],
        algorithm: str = "auto",
    ) -> Tuple[int, StampedResult]:
        """Register a standing query; returns ``(sub_id, baseline result)``.

        After every committed mutation batch that changes the query's
        answer, ``callback(sub_id, stamp, added, removed)`` fires from the
        thread applying the batch (over TCP, usually the ingress loop: see
        :meth:`apply_if_free`), inside the batch's quiescent point --
        ``added`` and ``removed`` are tuples of ``(query node, data node)``
        pairs and the stamp identifies exactly the graph version they
        describe.  The callback must not block (hand off to a queue: it may
        be running on an event loop) and must not call back into this
        server (the write lock is held).  Batches that leave the answer
        unchanged push nothing.

        The baseline evaluation pins the query's cache entry warm, outside
        the session's ``max_warm_states`` (:meth:`SimulationSession.pin`):
        every batch repairs it in ``O(|AFF|)``, and the repair's change set
        is the push.  Entry and subscription are tied inside the read-lock
        hold that evaluated the baseline, and the stamp only moves under the
        write lock, so the first push can never describe a change the
        baseline already contained (nor skip one it did not).  Past
        :data:`MAX_SUBSCRIPTIONS` a new one raises :class:`Overloaded`.
        """
        self._check_open()
        with self._gate.reading():
            stamp = self._stamp
            result, pin = self._session.pin(query, algorithm)
            with self._sub_lock:
                if len(self._subs) >= MAX_SUBSCRIPTIONS:
                    self._session.unpin(pin)
                    raise Overloaded(f"the server holds {MAX_SUBSCRIPTIONS} subscriptions")
                sub_id = self._next_sub_id
                self._next_sub_id += 1
                self._subs[sub_id] = (callback, pin)
        return sub_id, StampedResult(
            relation=result.relation, metrics=result.metrics, stamp=stamp
        )

    def unsubscribe(self, sub_id: int) -> bool:
        """Drop a standing query and its pin; False if it was already gone."""
        with self._sub_lock:
            sub = self._subs.pop(sub_id, None)
            if sub is not None:
                self._session.unpin(sub[1])
        return sub is not None

    def _notify_subscribers_locked(self) -> None:
        """Push every standing query's change over the just-committed batch.

        Runs under the write lock.  The delta is the batch's repairs as
        folded into the pin (:meth:`SimulationSession.take_push`): one pass,
        no query run, no relation materialized, no diff.  Only a pin whose
        entry left the cache (a lapsed precondition, a rebalance) is
        evaluated afresh, re-pinned and diffed once.  A subscription whose
        callback or fresh evaluation raises is retired (the serving layer's
        callbacks never raise; this catches broken direct registrations).
        """
        with self._sub_lock:
            subs = list(self._subs.items())
        stamp = self._stamp
        for sub_id, (callback, pin) in subs:
            try:
                fresh, added, removed = self._session.take_push(pin)
                if fresh is not pin:
                    with self._sub_lock:  # else unsubscribed meanwhile
                        if sub_id in self._subs:
                            self._subs[sub_id] = (callback, fresh)
                        else:
                            self._session.unpin(fresh)
                if added or removed:
                    callback(sub_id, stamp, added, removed)
            except Exception:
                self.unsubscribe(sub_id)

    # ------------------------------------------------------------------
    # writes (serialized, applied at quiescent points)
    # ------------------------------------------------------------------
    def apply(self, updates: Sequence[MutationOp]) -> List[StampedOutcome]:
        """Apply a batch of updates in one quiescent point.

        While the batch applies, no query runs -- a successful batch is
        atomic to readers: intermediate stamps exist (each update advances
        the counter) but are never visible to a query.  If an update *fails*
        (e.g. deleting an edge that is already gone), the updates applied
        before it stay applied (node additions have no inverse, so there is
        no rollback) and a :class:`~repro.errors.MutationBatchError` reports
        the failing update plus the stamped outcomes of the applied prefix
        (a one-update batch raises that update's own error instead); readers
        then observe the prefix state.  Update syntax matches
        :meth:`SimulationSession.apply`: typed
        :class:`~repro.graph.mutations.MutationOp` values.
        """
        ops = normalize_ops(updates)
        return self._apply(ops) if ops else []

    def apply_if_free(
        self, updates: Sequence[MutationOp]
    ) -> Optional[List[StampedOutcome]]:
        """:meth:`apply` on the calling thread if the batch needs no wait,
        else None, having applied nothing.

        No wait: the thread backend (a sharded batch waits for every
        worker's ack), at most :data:`INLINE_MAX_OPS` updates, and nothing
        holding or waiting for the gate.  The batch runs through
        :meth:`apply`'s code; a writer arriving meanwhile applies after it,
        and :meth:`close` waits for it.
        """
        ops = normalize_ops(updates)
        if self.backend != "thread" or len(ops) > INLINE_MAX_OPS:
            return None
        outcomes = self._apply(ops, wait=False)
        if outcomes is None:
            self._check_open()
        return outcomes

    def _apply(
        self, ops: List[MutationOp], wait: bool = True
    ) -> Optional[List[StampedOutcome]]:
        """Apply ``ops`` inside one write hold (the quiescent point).

        The worker broadcast ships exactly the deltas the parent session
        produced and the subscribers hear of them, even when the batch
        stops early -- on a failed update, or on an interrupt.
        ``wait=False`` is an inline batch: if the gate is busy, apply
        nothing and return None.
        """
        with self._gate.writing(wait) as held:
            if not held:
                return None
            outcomes: List[StampedOutcome] = []
            deltas: List[MutationDelta] = []
            try:
                for op in ops:
                    try:
                        outcome = self._session.apply([op])[0]
                    except Exception as exc:
                        # Only ordinary Exceptions become the batch's
                        # failure; the prefix stays applied (stamps already
                        # advanced; additions have no inverse, so no
                        # rollback).  A one-update batch raises the
                        # update's own error.
                        if len(ops) == 1:
                            raise
                        raise MutationBatchError(
                            f"update {op!r} failed after "
                            f"{len(outcomes)} of {len(ops)} updates: {exc}",
                            applied=outcomes,
                            failed_op=op,
                        ) from exc
                    if outcome.delta is not None:
                        deltas.append(outcome.delta)
                    self._stamp += 1
                    outcomes.append(StampedOutcome(outcome=outcome, stamp=self._stamp))
            finally:
                if self._shards is not None and deltas:
                    # A failed worker is marked dead and its respawn
                    # re-extracts from the parent fragmentation (which
                    # already holds this batch), so this cannot fail.
                    self._broadcast_deltas_locked(deltas)
                if outcomes and self._subs:
                    # Still inside the quiescent point: every pushed delta
                    # is stamped with the post-batch graph it describes.
                    self._notify_subscribers_locked()
        return outcomes

    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._gate._state.closed:
            raise ReproError("the server is closed")

    def __repr__(self) -> str:
        return (
            f"ConcurrentSessionServer(backend={self.backend!r}, "
            f"n_workers={self.n_workers}, stamp={self._stamp})"
        )
