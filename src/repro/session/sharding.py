"""Fragment->worker ownership for the sharded serving backend.

The paper's site model (Section 2.2) has every site hold a *subset* of the
fragments.  :class:`HashRing` is the coordinator's record of which: a
deterministic, bounded-load consistent-hash assignment of fragment ids to
worker slots.  Ownership is a pure function of the (worker set, fragment
set) pair -- independent of graph content, engine, or partitioner -- so
every replica of the coordinator agrees.  ``leave`` produces a new ring that
moves at most ``ceil(|F|/n) + 1`` fragments (``n`` the *new* worker count),
so a ring change re-ships only the migrated fragments.

How a run is driven over the workers is not decided here: the sharded
backend runs the same :func:`~repro.core.protocol.run_protocol` over the
same served specs (:data:`repro.core.dispatch.ALGORITHMS`) as in-process
evaluation, with the ring only saying which worker hosts which site.

Everything here is deterministic by construction: hashing uses
:mod:`hashlib` (stable across processes and ``PYTHONHASHSEED``), and no
wall-clock or global RNG is touched.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Hashable, Mapping, Optional, Sequence, Tuple

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
