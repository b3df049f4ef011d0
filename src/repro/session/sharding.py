"""Fragment->worker ownership for the sharded backend and its worker pool.

The paper's site model (Section 2.2) has every site hold a *subset* of the
fragments.  :class:`HashRing` is the coordinator's record of which: a
deterministic, bounded-load consistent-hash assignment of fragment ids to
worker slots.  Ownership is a pure function of the (worker set, fragment
set) pair -- independent of graph content, engine, or partitioner -- so
every replica of the coordinator agrees.  ``leave`` produces a new ring that
moves at most ``ceil(|F|/n) + 1`` fragments (``n`` the *new* worker count),
so a ring change re-ships only the migrated fragments.

:class:`ShardPool` is the parent end of that model: one worker per slot,
holding only the slot's fragments.  A miss runs the same
:func:`~repro.core.protocol.run_protocol` over the same served specs
(:data:`repro.core.dispatch.ALGORITHMS`) as in-process evaluation, the ring
only saying which worker hosts which site.  When the pool runs, patches or
moves is :class:`~repro.session.concurrent.ConcurrentSessionServer`'s call.

Everything on the ring is deterministic by construction: hashing uses
:mod:`hashlib` (stable across processes and ``PYTHONHASHSEED``), and no
wall-clock or global RNG is touched.
"""

from __future__ import annotations

import hashlib
import threading
from typing import TYPE_CHECKING, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from repro.core.protocol import run_protocol
from repro.errors import ProtocolError, TransportError
from repro.runtime.transport import FaultPlan, RetryPolicy

if TYPE_CHECKING:
    from repro.core.depgraph import DependencyGraphs
    from repro.partition.fragmentation import MutationDelta
    from repro.runtime.metrics import RunResult
    from repro.session.session import QueryKey, SimulationSession

Slot = Hashable


def _score(slot: Slot, fid: int) -> int:
    """Stable 64-bit rendezvous score of (worker slot, fragment id)."""
    digest = hashlib.blake2b(
        f"{slot!r}|{fid!r}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def _capacity(n_fragments: int, n_slots: int) -> int:
    return -(-n_fragments // n_slots)  # ceil


class HashRing:
    """Bounded-load rendezvous hashing with minimal-movement rebalance.

    A fresh ring assigns every fragment to its highest-scoring slot whose
    load is below ``ceil(|F|/n)`` (highest-random-weight hashing with a
    capacity bound), processing fragments in sorted order -- total,
    deterministic, and balanced.  ``leave`` keeps the existing assignment
    and moves only the fragments that must move, so migration cost is
    bounded by the capacity of the *new* ring plus one.
    """

    __slots__ = ("workers", "fragments", "_owner")

    def __init__(
        self,
        workers: Sequence[Slot],
        fragments: Sequence[int],
        _assignment: Optional[Mapping[int, Slot]] = None,
    ) -> None:
        if not workers:
            raise ValueError("a HashRing needs at least one worker slot")
        if len(set(workers)) != len(workers):
            raise ValueError("worker slots must be unique")
        self.workers: Tuple[Slot, ...] = tuple(sorted(workers, key=repr))
        self.fragments: Tuple[int, ...] = tuple(sorted(fragments))
        if _assignment is not None:
            self._owner: Dict[int, Slot] = dict(_assignment)
            return
        cap = _capacity(len(self.fragments), len(self.workers))
        load: Dict[Slot, int] = {w: 0 for w in self.workers}
        owner: Dict[int, Slot] = {}
        for fid in self.fragments:
            ranked = sorted(self.workers, key=lambda w: (-_score(w, fid), repr(w)))
            chosen = next((w for w in ranked if load[w] < cap), ranked[0])
            owner[fid] = chosen
            load[chosen] += 1
        self._owner = owner

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Load bound used for fresh assignment: ``ceil(|F|/n)``."""
        return _capacity(len(self.fragments), len(self.workers))

    def owner_of(self, fid: int) -> Slot:
        """The slot owning ``fid`` (total: raises KeyError only off-ring)."""
        return self._owner[fid]

    def fragments_of(self, slot: Slot) -> Tuple[int, ...]:
        """All fragments owned by ``slot``, sorted."""
        return tuple(f for f in self.fragments if self._owner[f] == slot)

    def assignment(self) -> Dict[int, Slot]:
        """A copy of the full fid -> slot map."""
        return dict(self._owner)

    def loads(self) -> Dict[Slot, int]:
        """Fragment count per slot (0 for idle slots)."""
        out: Dict[Slot, int] = {w: 0 for w in self.workers}
        for slot in self._owner.values():
            out[slot] += 1
        return out

    # ------------------------------------------------------------------
    def leave(self, slot: Slot) -> "HashRing":
        """A new ring without ``slot``; only the leaver's fragments move.

        Orphans rendezvous-hash onto the survivors under the new capacity
        bound (falling back to the least-loaded survivor if history has
        every preferred slot full), so movement equals the leaver's load --
        itself within ``ceil(|F|/n') + 1`` of the shrunken ring.
        """
        if slot not in self.workers:
            raise ValueError(f"slot {slot!r} is not on the ring")
        survivors = tuple(w for w in self.workers if w != slot)
        if not survivors:
            raise ValueError("cannot remove the last worker slot")
        cap = _capacity(len(self.fragments), len(survivors))
        owner = dict(self._owner)
        load: Dict[Slot, int] = {w: 0 for w in survivors}
        for fid, w in owner.items():
            if w != slot:
                load[w] += 1
        for fid in self.fragments_of(slot):
            ranked = sorted(survivors, key=lambda w: (-_score(w, fid), repr(w)))
            chosen = next((w for w in ranked if load[w] < cap), None)
            if chosen is None:
                chosen = min(survivors, key=lambda w: (load[w], repr(w)))
            owner[fid] = chosen
            load[chosen] += 1
        return HashRing(survivors, self.fragments, _assignment=owner)

    def rebalanced(self, weights: Mapping[int, float]) -> "HashRing":
        """A new ring balancing *weighted* fragment load, moving minimally.

        ``weights`` maps fid -> observed traffic (missing fids count 0; every
        fragment additionally weighs 1 so idle fragments still spread).  The
        greedy pass repeatedly moves, from the most loaded slot to the least
        loaded one, the heaviest fragment whose move strictly shrinks their
        gap -- the classic longest-processing-time exchange -- stopping once
        the most loaded slot is within 5 % of the mean.  Only
        fragments that must move do, so re-shipping cost tracks the actual
        imbalance, not ``|F|``.  Deterministic: ties break on sorted fids and
        slot reprs, and no hashing of graph content is involved.
        """
        load_of = {
            fid: 1.0 + max(0.0, float(weights.get(fid, 0.0)))
            for fid in self.fragments
        }
        owner = dict(self._owner)
        load: Dict[Slot, float] = {w: 0.0 for w in self.workers}
        for fid, slot in owner.items():
            load[slot] += load_of[fid]
        target = sum(load_of.values()) / len(self.workers)
        for _ in range(4 * len(self.fragments)):
            donor = max(self.workers, key=lambda s: (load[s], repr(s)))
            recipient = min(self.workers, key=lambda s: (load[s], repr(s)))
            gap = load[donor] - load[recipient]
            if load[donor] <= target * 1.05 or gap <= 0.0:
                break
            movable = sorted(f for f in self.fragments if owner[f] == donor)
            if len(movable) <= 1:
                break  # one huge fragment: placement alone cannot split it
            best = None
            for fid in movable:
                if load_of[fid] < gap and (
                    best is None or load_of[fid] > load_of[best]
                ):
                    best = fid
            if best is None:
                break
            owner[best] = recipient
            load[donor] -= load_of[best]
            load[recipient] += load_of[best]
        return HashRing(self.workers, self.fragments, _assignment=owner)

    def moved(self, new: "HashRing") -> Dict[int, Tuple[Slot, Slot]]:
        """Fragments whose owner differs between ``self`` and ``new``."""
        out: Dict[int, Tuple[Slot, Slot]] = {}
        for fid in self.fragments:
            before, after = self._owner[fid], new._owner.get(fid)
            if after is not None and before != after:
                out[fid] = (before, after)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HashRing(workers={len(self.workers)}, "
            f"fragments={len(self.fragments)}, loads={self.loads()})"
        )


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
        """The uniform dead-worker error for every link operation: a dead
        worker's pipe hits EOF (the parent closed its copy of the child end
        at spawn), so it surfaces as ``EOFError`` / ``OSError``, or
        ``TransportError`` from an injected fault, instead of a hang."""
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


def _fan_out(command: str, payloads: Dict[_ShardHandle, object]) -> None:
    """Post ``command`` to every worker at once, then collect the replies.

    A worker that fails either way -- a dead link, or an in-worker failure
    that may have diverged its shard -- is retired: its respawn re-extracts
    the parent's (already updated) state, so nothing is lost.
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


class ShardPool:
    """The sharded backend's workers, one per :class:`HashRing` slot.

    A worker ships out with only its owned fragments (plus the shared
    watcher tables), never the base graph, so its memory scales with
    ``|F|/n``.  The session the pool is built over is the authoritative
    copy every start extracts from, so a respawned or re-shipped worker
    never misses a mutation batch.  Handles, ring and respawn count are
    repaired and moved by whichever thread hits a dead worker or
    rebalances, under one reentrant lock that also holds a whole run.
    """

    def __init__(
        self,
        session: "SimulationSession",
        n_workers: int,
        fault_plan: Optional[FaultPlan] = None,
        respawn: Optional[RetryPolicy] = None,
    ) -> None:
        self._session = session
        self._fault_plan = fault_plan
        self._respawn = respawn if respawn is not None else RetryPolicy()
        #: distributed tries per miss: each heal removes or respawns a worker
        self._attempts = n_workers + 2
        self._lock = threading.RLock()
        self._respawns = 0
        self._closed = False
        session.warm()
        self._ring = HashRing(
            tuple(range(n_workers)), tuple(frag.fid for frag in session.fragmentation)
        )
        self._handles: List[_ShardHandle] = self._start(self._ring.workers)

    @property
    def ring(self) -> HashRing:
        """The current fragment->worker assignment."""
        return self._ring

    @property
    def respawns(self) -> int:
        """Workers respawned after a death."""
        return self._respawns

    def _start(self, slots: Sequence[Slot]) -> List[_ShardHandle]:
        """Start (:func:`~repro.runtime.mp.respawn_worker`: spawn all, then
        probe all) one worker per slot holding the slot's fragments of the
        current fragmentation; all or none."""
        from repro.runtime.mp import _shard_worker, respawn_worker

        frag, deps = self._session.fragmentation, self._session.deps
        inits = [(frag.extract_shard(self._ring.fragments_of(s)), deps) for s in slots]
        handles = []
        for slot, (proc, link) in zip(slots, respawn_worker(_shard_worker, inits, self._respawn)):
            if self._fault_plan is not None:
                link = self._fault_plan.wrap(slot, link, on_kill=proc.terminate)
            handles.append(_ShardHandle(proc, link, slot))
        return handles

    def close(self) -> None:
        """Stop and join every worker.  Takes no pool lock, so a run wedged
        under it cannot hold this up: a worker whose link that run still
        holds is killed instead of asked to stop, and the run's retry finds
        the pool closed instead of respawning it."""
        self._closed = True
        for handle in self._handles:
            if not handle.lock.acquire(blocking=False):
                handle.process.kill()
                continue
            try:
                handle.link.send(("stop", None))
            except (TransportError, OSError):
                pass
            handle.lock.release()
        for handle in self._handles:
            handle.process.join(timeout=10)
            if handle.process.is_alive():  # pragma: no cover - defensive
                handle.process.kill()  # SIGTERM waits out a stopped worker
                handle.process.join()
            handle.link.close()  # else the parent-side FDs live until GC

    def evaluate(self, key: "QueryKey") -> "RunResult":
        """The session's miss: one distributed run over the pool.

        Queries are pure reads, so a worker death mid-run is retried from
        scratch after the pool heals (bounded: each retry removes or
        respawns at least one dead worker).
        """
        with self._lock:
            last: Optional[BaseException] = None
            for _ in range(self._attempts):
                self._heal()
                try:
                    return self._run(key)
                except ProtocolError as exc:
                    last = exc
            raise ProtocolError(
                f"sharded query failed after repeated pool repair: {last}"
            ) from last

    def _run(self, key: "QueryKey") -> "RunResult":
        """One distributed run: the protocol in-process evaluation runs,
        with every site placed on the worker that owns its fragment.

        The superstep loop, the metering and the metrics are
        :func:`~repro.core.protocol.run_protocol`'s; this backend's own are
        the placement and draining the replies an aborted run left owed.
        """
        session = self._session
        handles = {h.slot: h for h in self._handles if not h.dead}
        if len(handles) < len(self._handles):
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
            # Unread replies would mispair with the next command on a link:
            # drain what every live worker still owes (``q.start`` resets a
            # worker's query state, so no abort command is needed).
            for handle in handles.values():
                if not handle.dead and handle.owed:
                    try:
                        handle.collect("abort-drain")
                    except Exception:
                        pass  # a dead link is marked; an error reply is drained
            raise

    def stats(self) -> List[dict]:
        """Per-worker stats (owned fragments, resident size, peak RSS)."""
        with self._lock:
            self._heal()
            return [h.request("stats", None) for h in self._handles if not h.dead]

    def _heal(self) -> None:
        """Respawn every dead worker; shrink the ring on give-up.

        A respawned worker receives its shard freshly extracted from the
        parent's *current* fragmentation -- every mutation applied while it
        was down is inherently included, so no batch is ever lost.  If the
        bounded :class:`~repro.runtime.transport.RetryPolicy` is exhausted,
        the slot leaves the ring and only its (migrated) fragments are
        re-shipped to the surviving owners; the last slot has nowhere to
        move them.
        """
        with self._lock:
            if self._closed:
                raise ProtocolError("the shard pool is closed")
            for handle in list(self._handles):
                if not handle.dead and handle.process.is_alive():
                    continue
                handle.dead = True
                handle.link.close()
                try:
                    [fresh] = self._start([handle.slot])
                except ProtocolError:
                    if len(self._ring.workers) > 1:
                        self._install(self._ring.leave(handle.slot))
                    self._handles.remove(handle)
                    continue
                self._handles[self._handles.index(handle)] = fresh
                self._respawns += 1
            if not self._handles:
                raise ProtocolError(
                    "every shard worker has died -- rebuild the server"
                )

    def broadcast(self, deltas: List["MutationDelta"]) -> None:
        """Route applied deltas to owning workers (+ watchers on boundary moves).

        Boundary transitions (``virtual_added``/``virtual_dropped``) patch
        every worker's watcher tables; all other deltas only touch the
        fragments of their source/target owners.  A worker that fails here
        is marked dead: its replacement re-extracts from the authoritative
        parent fragmentation at heal time, so the batch is never lost.
        """
        with self._lock:
            live = {h.slot: h for h in self._handles if not h.dead}
            per_slot: dict = {}
            for delta in deltas:
                # A composite delta (remove_node) routes by the union of its
                # cascade parts plus the dropped node's own fragment.
                parts = (delta, *delta.cascade)
                if any(p.virtual_added or p.virtual_dropped for p in parts):
                    slots = set(live)
                else:
                    slots = {
                        self._ring.owner_of(fid)
                        for part in parts
                        for fid in (part.source_fid, part.target_fid)
                    } & set(live)
                for slot in slots:
                    per_slot.setdefault(slot, []).append(delta)
            _fan_out("mutate", {live[s]: batch for s, batch in per_slot.items()})

    def place(self, traffic: Mapping[int, float]) -> int:
        """Move whole fragments between workers along a traffic-balanced
        ring (:meth:`HashRing.rebalanced`); returns how many moved."""
        with self._lock:
            self._heal()
            return self._install(self._ring.rebalanced(traffic))

    def reinstall(self, deps: "DependencyGraphs") -> None:
        """Re-ship every owned fragment of the (just swapped) fragmentation
        over its old copy, with the new watcher tables ``deps``: same ring,
        new contents."""
        frag = self._session.fragmentation
        with self._lock:
            self._heal()
            _fan_out("install", {
                h: ({fid: frag[fid] for fid in self._ring.fragments_of(h.slot)}, (), deps)
                for h in self._handles
                if not h.dead
            })

    def _install(self, new_ring: HashRing) -> int:
        """Adopt ``new_ring``: ship each moved fragment to its gaining worker
        and drop it from its losing one; returns how many moved.  A slot
        without a live worker picks its share up when its respawn extracts
        from the new ring; a worker that fails the install is retired the
        same way."""
        with self._lock:
            moved = self._ring.moved(new_ring)
            live = {h.slot: h for h in self._handles if not h.dead}
            installs: Dict = {}
            for fid, (losing, gaining) in moved.items():
                installs.setdefault(gaining, ({}, []))[0][fid] = self._session.fragmentation[fid]
                installs.setdefault(losing, ({}, []))[1].append(fid)
            _fan_out("install", {
                live[slot]: (adds, sorted(drops), None)
                for slot, (adds, drops) in sorted(installs.items(), key=lambda i: repr(i[0]))
                if slot in live
            })
            self._ring = new_ring
        return len(moved)
