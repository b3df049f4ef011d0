"""The worker link's policy: bounded respawn and deterministic fault injection.

A shard worker (:mod:`repro.runtime.mp`) talks to its parent over the
``multiprocessing`` pipe it was spawned with.  That
:class:`~multiprocessing.connection.Connection` *is* the link -- ``send(obj)``
/ ``recv()`` / ``close()`` -- and its failure model is the one the
coordinator's dead-peer handling is written against: reliable, ordered, and a
peer that went away surfaces as :class:`EOFError` (``recv``) or
:class:`BrokenPipeError` / ``OSError`` (``send``), which the coordinator
turns into :class:`~repro.errors.ProtocolError`.

What lives here is what sits *around* that link: :class:`RetryPolicy`, the
bounded backoff schedule every reconnect path shares (worker respawn, the
blocking client's redial), and :class:`FaultPlan` / :class:`FaultyTransport`,
the seam the fault suite substitutes for a link to kill, drop and delay at
seeded message boundaries.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import TransportError

if TYPE_CHECKING:
    from multiprocessing.connection import Connection


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry schedule with exponential backoff.

    Shared by every reconnect path: the blocking network client redials
    with it, and the sharded worker pool respawns dead workers with it
    (``repro.runtime.mp.respawn_worker``).  ``attempts`` bounds the
    number of tries; :meth:`delays` yields the pause *after* each failed
    try, growing by ``multiplier`` up to ``max_backoff_s`` (a caller skips
    the last one: no try follows it).
    """

    attempts: int = 3
    backoff_s: float = 0.05
    multiplier: float = 2.0
    max_backoff_s: float = 2.0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("a RetryPolicy needs at least one attempt")
        if self.backoff_s < 0 or self.multiplier < 1.0:
            raise ValueError("backoff must be >= 0 and multiplier >= 1")

    def delays(self) -> Iterator[float]:
        """One pause per attempt: ``backoff_s * multiplier^i``, capped."""
        delay = self.backoff_s
        for _ in range(self.attempts):
            yield delay
            delay = min(delay * self.multiplier, self.max_backoff_s)


class FaultPlan:
    """A deterministic, seeded schedule of transport faults for tests.

    The plan is fixed up front -- nothing random happens at injection time,
    so a failing test reproduces from its seed alone.  Faults fire at
    *message boundaries*: each wrapped transport counts every ``send``/
    ``recv`` it crosses, and the plan decides per ``(slot, boundary)``:

    * ``kills[slot] = b`` -- at boundary ``>= b``, invoke the wrapper's
      ``on_kill`` (the pool passes ``process.terminate``), close the link,
      and raise :class:`TransportError`.  One-shot per slot: the respawned
      worker's fresh link is not re-killed, so recovery is observable.
    * ``drops`` -- the message at ``(slot, boundary)`` is lost; the wrapper
      raises :class:`TransportError` (a lost frame surfaces as a dead link
      to the request/reply layer -- silently swallowing it would hang the
      caller, which no deterministic harness should do).  One-shot each.
    * ``delay_every = n`` -- sleep ``delay_s`` at every ``n``-th boundary,
      jittering interleavings without breaking anything.

    Fired events are recorded in :attr:`events` as
    ``(slot, boundary, action)`` so tests can assert what actually
    happened.
    """

    def __init__(
        self,
        seed: int = 0,
        kills: Optional[Dict[object, int]] = None,
        drops: Iterable[Tuple[object, int]] = (),
        delay_every: int = 0,
        delay_s: float = 0.001,
    ) -> None:
        self.seed = seed
        self.kills: Dict[object, int] = dict(kills or {})
        self.drops = set(drops)
        self.delay_every = delay_every
        self.delay_s = delay_s
        self.events: List[Tuple[object, int, str]] = []
        self._fired: set = set()
        self._lock = threading.Lock()

    @classmethod
    def seeded(
        cls,
        seed: int,
        n_slots: int,
        kill_window: Tuple[int, int] = (4, 40),
        delay_every: int = 0,
    ) -> "FaultPlan":
        """Derive a one-kill plan from ``seed``: victim and boundary only
        depend on ``(seed, n_slots)``, never on global RNG state."""
        rng = random.Random(seed)
        victim = rng.randrange(n_slots)
        boundary = rng.randrange(*kill_window)
        return cls(seed=seed, kills={victim: boundary}, delay_every=delay_every)

    def decide(self, slot, boundary: int) -> Optional[str]:
        """The action for this boundary crossing, recording what fired."""
        with self._lock:
            kill_at = self.kills.get(slot)
            if kill_at is not None and boundary >= kill_at and slot not in self._fired:
                self._fired.add(slot)
                self.events.append((slot, boundary, "kill"))
                return "kill"
            if (slot, boundary) in self.drops:
                self.drops.discard((slot, boundary))
                self.events.append((slot, boundary, "drop"))
                return "drop"
            if self.delay_every and boundary % self.delay_every == self.delay_every - 1:
                self.events.append((slot, boundary, "delay"))
                return "delay"
            return None

    def wrap(self, slot, transport: Connection, on_kill=None) -> "FaultyTransport":
        """Wrap one worker link; ``on_kill`` is invoked when a kill fires."""
        return FaultyTransport(transport, self, slot, on_kill=on_kill)

    def __repr__(self) -> str:
        return (
            f"FaultPlan(seed={self.seed}, kills={self.kills}, "
            f"drops={sorted(self.drops)}, delay_every={self.delay_every})"
        )


class FaultyTransport:
    """A worker link that consults a :class:`FaultPlan` per message."""

    def __init__(self, inner: Connection, plan: FaultPlan, slot, on_kill=None) -> None:
        self._inner = inner
        self._plan = plan
        self._slot = slot
        self._on_kill = on_kill
        self._boundary = 0

    def _cross(self) -> Optional[str]:
        boundary = self._boundary
        self._boundary += 1
        action = self._plan.decide(self._slot, boundary)
        if action == "delay":
            time.sleep(self._plan.delay_s)
            return None
        return action

    def _die(self) -> None:
        if self._on_kill is not None:
            self._on_kill()
        try:
            self._inner.close()
        except OSError:
            pass
        raise TransportError(
            f"fault injection: worker slot {self._slot!r} killed at "
            f"boundary {self._boundary - 1} (seed {self._plan.seed})"
        )

    def send(self, obj) -> None:
        action = self._cross()
        if action == "kill":
            self._die()
        if action == "drop":
            raise TransportError(
                f"fault injection: message to slot {self._slot!r} dropped at "
                f"boundary {self._boundary - 1} (seed {self._plan.seed})"
            )
        self._inner.send(obj)

    def recv(self):
        action = self._cross()
        if action == "kill":
            self._die()
        if action == "drop":
            self._inner.recv()  # the frame arrives, the plan loses it
            raise TransportError(
                f"fault injection: message from slot {self._slot!r} dropped "
                f"at boundary {self._boundary - 1} (seed {self._plan.seed})"
            )
        return self._inner.recv()

    def close(self) -> None:
        self._inner.close()

    def __repr__(self) -> str:
        return f"FaultyTransport(slot={self._slot!r}, inner={self._inner!r})"
