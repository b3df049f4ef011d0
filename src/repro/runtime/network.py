"""The metered network connecting sites and coordinator.

The network is a per-round mailbox: messages sent during round ``r`` are
delivered at the start of round ``r + 1``.  Every byte is accounted by
:class:`MessageKind`, giving both the paper's headline DS (data kinds only,
see :data:`~repro.runtime.messages.DATA_KINDS`) and the full breakdown.
Mail a site addresses to itself is delivered like any other but never
counted: it is a local event (dGPM's push uses it to hand itself a
falsification next round), not data shipment.

**Asynchrony testing.**  The paper's dGPM runs asynchronously; its fixpoint
is schedule-independent (Section 4.1's correctness argument).  Construct the
network with ``scramble=(seed, fraction)`` and each delivery round releases
only a random subset of the queued messages, holding the rest back -- an
adversarial reordering of the asynchronous schedule.  Tests assert every
algorithm converges to the same answer under many such schedules.
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from repro.runtime.costmodel import CostModel
from repro.runtime.messages import COORDINATOR, DATA_KINDS, Message, MessageKind


class Network:
    """Round-buffered message transport with byte accounting."""

    def __init__(self, cost: CostModel, scramble: Optional[Tuple[int, float]] = None) -> None:
        self.cost = cost
        self._in_flight: List[Message] = []
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
    def send(self, message: Message) -> None:
        """Queue ``message`` for delivery at the next round."""
        self._in_flight.append(message)
        if message.src != message.dst:
            self.bytes_by_kind[message.kind] += message.size_bytes
            self.count_by_kind[message.kind] += 1

    def send_all(self, messages) -> None:
        """Queue several messages."""
        for message in messages:
            self.send(message)

    def broadcast_query(self, fids, query) -> None:
        """Phase 1 of every protocol: the coordinator posts ``Q`` to every
        site (metered as QUERY); the broadcast completes before evaluation."""
        size = self.cost.query_bytes(query.n_nodes, query.n_edges)
        for fid in fids:
            self.send(Message(COORDINATOR, fid, MessageKind.QUERY, query, size))
        while self.has_pending:
            self.deliver()

    @property
    def has_pending(self) -> bool:
        """True iff messages await delivery."""
        return bool(self._in_flight)

    def deliver(self) -> Dict[int, List[Message]]:
        """Deliver queued messages, grouped by destination.

        In scramble mode only a random subset is released (at least one, so
        progress is guaranteed); the rest stay in flight for a later round.
        Also records the round's data-byte volume for the PT model.
        """
        releasing = self._in_flight
        held: List[Message] = []
        if self._rng is not None and len(self._in_flight) > 1:
            releasing = []
            for message in self._in_flight:
                if self._rng.random() < self._deliver_fraction:
                    releasing.append(message)
                else:
                    held.append(message)
            if not releasing:  # guarantee progress
                releasing.append(held.pop(self._rng.randrange(len(held))))
        inboxes: Dict[int, List[Message]] = defaultdict(list)
        volume = 0
        for message in releasing:
            inboxes[message.dst].append(message)
            if message.kind in DATA_KINDS and message.src != message.dst:
                volume += message.size_bytes
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
