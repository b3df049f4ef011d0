"""The metered network connecting sites and coordinator.

The network is a per-round mailbox: messages sent during round ``r`` are
delivered at the start of round ``r + 1``.  Every byte is accounted by
:class:`MessageKind`, giving both the paper's headline DS (data kinds only,
see :data:`~repro.runtime.messages.DATA_KINDS`) and the full breakdown.
Mail a site addresses to itself is delivered like any other but never
counted: it is a local event (dGPM's push uses it to hand itself a
falsification next round), not data shipment.  What is counted is logical
messages: an :class:`~repro.runtime.messages.Envelope` row by row.

**Asynchrony testing.**  The paper's dGPM runs asynchronously; its fixpoint
is schedule-independent (Section 4.1's correctness argument).  Construct the
network with ``scramble=(seed, fraction)`` and each delivery round releases
only a random subset of the queued logical messages, holding the rest back
-- an adversarial reordering of the asynchronous schedule.  Rows are held
one at a time: one draw per row, and an envelope's held rows stay in flight
as a smaller envelope.  Tests assert every algorithm converges to the same
answer under many such schedules.
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from repro.runtime.costmodel import CostModel
from repro.runtime.messages import COORDINATOR, DATA_KINDS, Envelope, Mail, MessageKind


def _split(mail: Mail, keep: List[bool]) -> Tuple[List[Mail], List[Mail]]:
    """``mail``'s rows where ``keep`` holds and the others, each side as
    one piece of mail or none."""
    kept = [i for i, k in enumerate(keep) if k]
    held = [i for i, k in enumerate(keep) if not k]
    if kept and held:
        return [mail.take(kept)], [mail.take(held)]
    return ([mail], []) if kept else ([], [mail])


class Network:
    """Round-buffered message transport with byte accounting."""

    def __init__(self, cost: CostModel, scramble: Optional[Tuple[int, float]] = None) -> None:
        self.cost = cost
        self._in_flight: List[Mail] = []
        self.bytes_by_kind: Dict[MessageKind, int] = defaultdict(int)
        self.count_by_kind: Dict[MessageKind, int] = defaultdict(int)
        self.round_bytes: List[int] = []  # data bytes moved per delivery round
        self._rng: Optional[random.Random] = None
        self._deliver_fraction = 1.0
        if scramble is not None:
            seed, fraction = scramble
            if not 0.0 < fraction <= 1.0:
                raise ValueError("delivery fraction must be in (0, 1]")
            self._rng = random.Random(seed)
            self._deliver_fraction = fraction

    # ------------------------------------------------------------------
    def send(self, mail: Mail) -> None:
        """Queue ``mail`` for delivery at the next round, metering its rows."""
        self._in_flight.append(mail)
        count, size = mail.metered()
        if count:
            self.bytes_by_kind[mail.kind] += size
            self.count_by_kind[mail.kind] += count

    def send_all(self, mails) -> None:
        """Queue several messages or envelopes."""
        for mail in mails:
            self.send(mail)

    def broadcast_query(self, fids, query) -> None:
        """Phase 1 of every protocol: the coordinator posts ``Q`` to every
        site (one envelope, a QUERY row per site); the broadcast completes
        before evaluation."""
        fids = list(fids)
        n, size = len(fids), self.cost.query_bytes(query.n_nodes, query.n_edges)
        if fids:
            self.send(Envelope(MessageKind.QUERY, [COORDINATOR] * n, fids, [size] * n, [query] * n))
        while self.has_pending:
            self.deliver()

    @property
    def has_pending(self) -> bool:
        """True iff messages await delivery."""
        return bool(self._in_flight)

    def deliver(self) -> Dict[int, List[Mail]]:
        """Deliver queued mail, grouped by destination (an envelope's: the
        one it is routed by).

        In scramble mode only a random subset of the rows is released (at
        least one, so progress is guaranteed); the rest stay in flight for a
        later round.  Also records the round's data-byte volume for the PT model.
        """
        releasing = self._in_flight
        held: List[Mail] = []
        if self._rng is not None and sum(len(m.dsts) for m in releasing) > 1:
            releasing = []
            for mail in self._in_flight:
                keep = [self._rng.random() < self._deliver_fraction for _ in mail.dsts]
                out, back = _split(mail, keep)  # one draw per row
                releasing += out
                held += back
            if not releasing:  # guarantee progress: release one held row
                rows = [(at, i) for at, mail in enumerate(held) for i in range(len(mail.dsts))]
                at, pick = rows[self._rng.randrange(len(rows))]
                mail = held.pop(at)
                releasing, held[at:at] = _split(mail, [i == pick for i in range(len(mail.dsts))])
        inboxes: Dict[int, List[Mail]] = defaultdict(list)
        volume = 0
        for mail in releasing:
            inboxes[mail.dst].append(mail)
            if mail.kind in DATA_KINDS:
                volume += mail.metered()[1]
        self.round_bytes.append(volume)
        self._in_flight = held
        return dict(inboxes)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def absorb(self, other: "Network") -> None:
        """Add the mail ``other`` carried to this network's accounting (the
        engine folds every host's own network into the run's this way)."""
        for kind, n_bytes in other.bytes_by_kind.items():
            self.bytes_by_kind[kind] += n_bytes
            self.count_by_kind[kind] += other.count_by_kind[kind]

    @property
    def data_bytes(self) -> int:
        """Headline DS: bytes of protocol data messages."""
        return sum(self.bytes_by_kind[k] for k in DATA_KINDS if k in self.bytes_by_kind)

    @property
    def data_message_count(self) -> int:
        """Number of protocol data messages."""
        return sum(self.count_by_kind[k] for k in DATA_KINDS if k in self.count_by_kind)

    @property
    def total_bytes(self) -> int:
        """All bytes, including query broadcast, control and results."""
        return sum(self.bytes_by_kind.values())

    def breakdown(self) -> Dict[str, int]:
        """Bytes per message kind, with string keys for reporting."""
        return {kind.value: n for kind, n in sorted(self.bytes_by_kind.items())}
