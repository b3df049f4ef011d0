"""Message types exchanged between sites.

Every message declares its own wire size (computed from the
:class:`~repro.runtime.costmodel.CostModel` by the sender) and an accounting
*category*, so the network can keep the paper's DS metric (protocol data)
separate from query broadcast, control flags and result collection.

A :class:`Message` is one logical message, an :class:`Envelope` several of
one kind moving as columns with a *row* per logical message (a message reads
as an envelope of one row); the network meters, scrambles and counts rows.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import accumulate
from typing import Any, List, Optional, Sequence, Tuple, Union

#: Special destination id for the coordinator site ``Sc``.
COORDINATOR = -1


class MessageKind(str, enum.Enum):
    """Wire-level category of a message (drives the DS breakdown)."""

    #: pattern query broadcast from the coordinator
    QUERY = "query"
    #: Boolean variable falsifications (the only payload baseline dGPM ships)
    VAR_UPDATE = "var_update"
    #: Boolean equations (push operation, dGPMt partial answers)
    EQUATION = "equation"
    #: request for the values of virtual-node variables (dMes supersteps)
    VAR_REQUEST = "var_request"
    #: reply carrying variable values (dMes supersteps, dGPMt phase 2)
    VAR_VALUES = "var_values"
    #: shipped subgraphs (Match, disHHK)
    SUBGRAPH = "subgraph"
    #: dependency-graph rewiring announcements (push operation)
    REWIRE = "rewire"
    #: changed-flags / votes to halt sent to the coordinator
    CONTROL = "control"
    #: final local matches shipped to the coordinator
    RESULT = "result"


#: Kinds counted in the headline DS number (the paper's "data shipment").
DATA_KINDS = frozenset(
    {
        MessageKind.VAR_UPDATE,
        MessageKind.EQUATION,
        MessageKind.VAR_REQUEST,
        MessageKind.VAR_VALUES,
        MessageKind.SUBGRAPH,
        MessageKind.REWIRE,
    }
)


@dataclass
class Message:
    """A single message in flight.

    ``src``/``dst`` are fragment ids (or :data:`COORDINATOR`); ``payload`` is
    algorithm-specific; ``size_bytes`` is the metered wire size.
    """

    src: int
    dst: int
    kind: MessageKind
    payload: Any
    size_bytes: int

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError("message size must be non-negative")

    def metered(self) -> Tuple[int, int]:
        """What the network counts: :meth:`Envelope.metered` of one row."""
        return (0, 0) if self.src == self.dst else (1, self.size_bytes)

    # read as an envelope of one row, without a code column
    codes = bounds = None
    srcs = property(lambda self: (self.src,))
    dsts = property(lambda self: (self.dst,))
    sizes = property(lambda self: (self.size_bytes,))
    payloads = property(lambda self: (self.payload,))


@dataclass
class Envelope:
    """Logical messages of one kind moving together, as columns.

    Row ``i`` is the message ``srcs[i] -> dsts[i]`` of ``sizes[i]`` metered
    bytes carrying ``payloads[i]`` and, when the envelope has a code column
    (the array engine's pair codes, a numpy array), ``codes[bounds[i]:
    bounds[i + 1]]``.  Every row goes to a site of one program, or every row
    to the coordinator: the envelope is routed by ``dst``, its first row's.
    """

    kind: MessageKind
    srcs: Sequence[int]
    dsts: Sequence[int]
    sizes: Sequence[int]
    payloads: Sequence[Any]
    codes: Any = None
    bounds: Optional[List[int]] = None

    @property
    def dst(self) -> int:
        return self.dsts[0]

    def metered(self) -> Tuple[int, int]:
        """What the network counts: ``(messages, bytes)`` of the rows between
        two different sites (a site's mail to itself is a local event)."""
        sizes = [size for src, dst, size in zip(self.srcs, self.dsts, self.sizes) if src != dst]
        return len(sizes), sum(sizes)

    def take(self, rows: List[int]) -> "Envelope":
        """The envelope of ``rows`` only (a scrambled delivery splits one)."""
        codes = bounds = None
        if self.codes is not None:
            spans = [range(self.bounds[i], self.bounds[i + 1]) for i in rows]
            codes = self.codes[[at for span in spans for at in span]]
            bounds = [0, *accumulate(map(len, spans))]
        columns = (self.srcs, self.dsts, self.sizes, self.payloads)
        return Envelope(self.kind, *([c[i] for i in rows] for c in columns), codes, bounds)


#: what the network carries
Mail = Union[Message, Envelope]
