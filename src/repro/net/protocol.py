"""The wire protocol: length-prefixed typed frames and the one framer.

Every message on a repro socket -- client/server traffic through the asyncio
ingress -- is one *frame*:

.. code-block:: text

    +-------+---------+------+----------+-----+--------+  +------------+
    | magic | version | kind | reserved | seq | length |  |    body    |
    |  4B   |   1B    |  1B  |    2B    | 4B  |   4B   |  | length  B  |
    +-------+---------+------+----------+-----+--------+  +------------+

``magic`` guards against a stray peer, ``version`` against a protocol skew
(this build speaks :data:`PROTOCOL_VERSION` and nothing else), ``kind``
names one of the :class:`FrameKind` values, ``reserved`` must be zero (room
for future flags), ``seq`` correlates a reply with its request (the asyncio
ingress answers out of order; pipelining clients key pending futures by
it), and ``length`` bounds the body.

There is one body encoding: the tagged safe codec of
:mod:`repro.net.codec`, a closed value vocabulary (primitives, containers,
and the registered frame dataclasses) that never constructs arbitrary
objects; nothing on the wire path pickles (the ``pickle-confined`` analyzer
rule holds the line).

:class:`Connection` is the one definition of "a message on a socket".  It is
sans-IO: bytes in -> complete frames out (:meth:`Connection.receive`),
typed frames in -> bytes out (:meth:`Connection.send`); no sockets, no
asyncio, no threads.  The blocking client, the asyncio client and the
ingress are three thin drivers over it.  Its contract:

* :meth:`~Connection.receive` raises only
  :class:`~repro.errors.WireFormatError` for anything a peer can put in the
  bytes -- bad magic/version/reserved bits, an unknown kind or an oversized
  declared length (both checked on the header, *before* the body is
  touched), an undecodable or mistyped body -- plus :class:`EOFError` /
  :class:`~repro.errors.TransportError` when handed ``b""`` (the peer closed
  between frames / mid-frame).  After it raises, the stream cannot be
  resynchronized: drop the socket.  A call is all-or-nothing: frames the
  same read completed *before* the malformed one are not delivered either.
* it buffers at most one unfinished frame (``HEADER_SIZE + max_frame``
  bytes), whatever the peer declares.

Every reply and ``PUSH`` is one frame of at most ``max_frame`` body bytes;
a reply that would be larger is refused at encode (the ingress answers it
with an ``ERROR`` instead).

The encode -> decode round-trip is the identity for every frame type
(property-tested in ``tests/net/test_protocol.py`` and
``tests/net/test_codec.py``).
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro import errors
from repro.errors import MutationBatchError, TransportError, WireFormatError
from repro.graph.mutations import MutationOp
from repro.graph.pattern import Pattern
from repro.net import codec
from repro.runtime.metrics import RunMetrics
from repro.simulation.matchrel import MatchRelation

MAGIC = b"RGSP"
#: the one protocol version this build speaks; any other header version is
#: refused with :class:`WireFormatError`
PROTOCOL_VERSION = 2

#: 64 MiB -- generous for any relation this library produces, small enough
#: that a garbled length field cannot make a peer allocate the moon
DEFAULT_MAX_FRAME = 64 * 1024 * 1024

#: what one driver read asks the OS for
READ_SIZE = 64 * 1024

#: the most PUSH frames one subscription may queue (16x the client default)
MAX_PUSH_BUFFER = 4096

#: the most updates one MUTATE may carry (the client refuses to send more)
MAX_MUTATE_OPS = 4096

_HEADER = struct.Struct(">4sBBHII")
HEADER_SIZE = _HEADER.size


class FrameKind(enum.IntEnum):
    """Discriminant of every frame on the wire."""

    HELLO = 1  # either side announces itself (its role)
    RUN = 2  # client -> server: evaluate one query
    MUTATE = 3  # client -> server: apply one mutation batch
    STATS = 4  # client -> server: serving counters snapshot
    BYE = 5  # client -> server: clean goodbye
    RESULT = 6  # server -> client: the stamped answer to a RUN
    OUTCOMES = 7  # server -> client: stamped outcomes of a MUTATE
    STATS_REPLY = 8  # server -> client: the counters
    ERROR = 9  # server -> client: the request raised
    SUBSCRIBE = 11  # client -> server: register a standing query
    UNSUBSCRIBE = 12  # client -> server: cancel a standing query
    PUSH = 13  # server -> client: stamped match delta for a subscription
    SUBSCRIBED = 14  # server -> client: subscription ack (initial snapshot)


def _require(field: str, value: Any, expected: type) -> None:
    """Refuse a frame field that is not what the wire contract says."""
    if type(value) is not expected:
        raise WireFormatError(
            f"{field} must be {expected.__name__}, got {type(value).__name__}"
        )


@dataclass(frozen=True)
class Hello:
    """Connection opener: who is speaking.

    An optional identity/liveness probe: the server answers with its own
    ``Hello``.  The version the sender speaks is the frame header's; a
    ``role`` of another type is refused at decode.
    """

    role: str

    def __post_init__(self) -> None:
        _require("Hello.role", self.role, str)


@dataclass(frozen=True)
class RunRequest:
    """Evaluate ``query`` with ``algorithm``, under the config the server's
    session was built with (a peer names no config); a field of another
    type is refused at decode."""

    query: Pattern
    algorithm: str = "auto"

    def __post_init__(self) -> None:
        _require("RunRequest.query", self.query, Pattern)
        _require("RunRequest.algorithm", self.algorithm, str)


@dataclass(frozen=True)
class MutateRequest:
    """Apply ``ops`` as one atomic batch (syntax of
    :meth:`SimulationSession.apply`); anything but a tuple of at most
    :data:`MAX_MUTATE_OPS` :class:`~repro.graph.mutations.MutationOp` is
    refused at decode."""

    ops: Tuple[MutationOp, ...]

    def __post_init__(self) -> None:
        _require("MutateRequest.ops", self.ops, tuple)
        if len(self.ops) > MAX_MUTATE_OPS:
            raise WireFormatError(
                f"MutateRequest.ops must hold at most {MAX_MUTATE_OPS} updates, "
                f"got {len(self.ops)}"
            )
        for op in self.ops:
            if not isinstance(op, MutationOp):
                raise WireFormatError(
                    f"MutateRequest.ops carried a {type(op).__name__} "
                    "(expected MutationOp instances)"
                )


@dataclass(frozen=True)
class StatsRequest:
    """Ask for the serving counters."""


@dataclass(frozen=True)
class Bye:
    """Clean goodbye; the server finishes in-flight replies, then hangs up."""


@dataclass(frozen=True)
class RunReply:
    """The answer to a :class:`RunRequest`, with the stamp it observed."""

    relation: MatchRelation
    metrics: RunMetrics
    stamp: int


@dataclass(frozen=True)
class MutateReply:
    """Per-update stamped outcomes of an applied :class:`MutateRequest`."""

    outcomes: Tuple[Any, ...]


@dataclass(frozen=True)
class StatsReply:
    """Serving counters plus the server's identity facts.

    ``partition`` carries the cut-quality snapshot
    (:class:`~repro.partition.metrics.PartitionStats`) of the currently
    served fragmentation -- None only from pre-rebalance servers.
    """

    stats: Any
    stamp: int
    backend: str
    n_workers: int
    partition: Any = None


#: the exceptions an ``ERROR`` frame is rebuilt as, by class name: exactly
#: the classes of :mod:`repro.errors`.  Any other server-side class reaches
#: the caller as a :class:`TransportError` that names it.
_ERROR_CLASSES = {
    name: cls
    for name, cls in vars(errors).items()
    if isinstance(cls, type) and issubclass(cls, errors.ReproError)
}


@dataclass(frozen=True)
class ErrorReply:
    """A request failed: the exception's class name and text, as codec values.

    ``applied`` / ``failed_op`` / ``cause`` are set for a
    :class:`~repro.errors.MutationBatchError` only: the stamped outcomes of
    the applied prefix, the op that raised, and the underlying error.
    """

    message: str
    kind: str = "ReproError"
    applied: Tuple[Any, ...] = ()
    failed_op: Optional[MutationOp] = None
    cause: Optional["ErrorReply"] = None

    def __post_init__(self) -> None:
        _require("ErrorReply.kind", self.kind, str)
        _require("ErrorReply.applied", self.applied, tuple)
        if self.cause is not None:
            _require("ErrorReply.cause", self.cause, ErrorReply)

    @classmethod
    def from_exception(cls, exc: BaseException) -> "ErrorReply":
        if not isinstance(exc, MutationBatchError):
            return cls(message=str(exc), kind=type(exc).__name__)
        return cls(
            message=str(exc),
            kind="MutationBatchError",
            applied=tuple(exc.applied),
            failed_op=exc.failed_op,
            cause=None if exc.__cause__ is None else cls.from_exception(exc.__cause__),
        )

    def to_exception(self) -> BaseException:
        """The carried exception, rebuilt by class name from the closed table
        above (never from bytes the peer chose)."""
        if self.kind == "MutationBatchError":
            exc = MutationBatchError(self.message, list(self.applied), self.failed_op)
            exc.__cause__ = None if self.cause is None else self.cause.to_exception()
            return exc
        cls = _ERROR_CLASSES.get(self.kind)
        if cls is None:
            return TransportError(f"server error ({self.kind}): {self.message}")
        return cls(self.message)


@dataclass(frozen=True)
class SubscribeRequest:
    """Register a standing query: PUSH a stamped delta after every mutation
    batch that changes its match set.

    ``buffer`` bounds the server-side delta queue for this subscription
    (``1..MAX_PUSH_BUFFER``); a subscriber that falls further behind than
    that is *lapsed* (it receives one final ``PushDelta(lapsed=True)`` and
    must re-subscribe).  A field of another type or range is refused at
    decode.
    """

    query: Pattern
    algorithm: str = "auto"
    buffer: int = 256

    def __post_init__(self) -> None:
        _require("SubscribeRequest.query", self.query, Pattern)
        _require("SubscribeRequest.algorithm", self.algorithm, str)
        _require("SubscribeRequest.buffer", self.buffer, int)
        if not 1 <= self.buffer <= MAX_PUSH_BUFFER:
            raise WireFormatError(
                f"SubscribeRequest.buffer must be in 1..{MAX_PUSH_BUFFER}, "
                f"got {self.buffer}"
            )


@dataclass(frozen=True)
class SubscribeReply:
    """Subscription ack: the id, the baseline stamp, and the full relation
    at that stamp (``None`` when acking an ``UNSUBSCRIBE``).

    Deltas pushed later apply on top of ``relation``; their stamps are
    strictly increasing and start above ``stamp``.
    """

    sub_id: int
    stamp: int
    relation: Optional[MatchRelation] = None


@dataclass(frozen=True)
class UnsubscribeRequest:
    """Cancel the standing query ``sub_id`` (acked with a
    :class:`SubscribeReply` carrying ``relation=None``); a ``sub_id`` that
    is not an int (a bool included) is refused at decode."""

    sub_id: int

    def __post_init__(self) -> None:
        _require("UnsubscribeRequest.sub_id", self.sub_id, int)


@dataclass(frozen=True)
class PushDelta:
    """One stamped match delta for a subscription.

    ``added`` / ``removed`` are ``(query node, data node)`` pairs relative
    to the subscriber's previous view (the baseline relation plus every
    earlier delta), sorted for determinism.  ``lapsed=True`` is the final
    frame of an overflowed subscription: the server dropped it and the
    subscriber's view can no longer be trusted.
    """

    sub_id: int
    stamp: int
    added: Tuple[Tuple[Any, Any], ...] = ()
    removed: Tuple[Tuple[Any, Any], ...] = ()
    lapsed: bool = False


FRAME_CLASSES = {
    FrameKind.HELLO: Hello,
    FrameKind.RUN: RunRequest,
    FrameKind.MUTATE: MutateRequest,
    FrameKind.STATS: StatsRequest,
    FrameKind.BYE: Bye,
    FrameKind.RESULT: RunReply,
    FrameKind.OUTCOMES: MutateReply,
    FrameKind.STATS_REPLY: StatsReply,
    FrameKind.ERROR: ErrorReply,
    FrameKind.SUBSCRIBE: SubscribeRequest,
    FrameKind.UNSUBSCRIBE: UnsubscribeRequest,
    FrameKind.PUSH: PushDelta,
    FrameKind.SUBSCRIBED: SubscribeReply,
}
#: what travels as what
_KIND_OF = {cls: kind for kind, cls in FRAME_CLASSES.items()}

#: one received frame: ``(kind, seq, payload)``
Event = Tuple[FrameKind, int, Any]


def kind_of(frame: Any) -> FrameKind:
    """The :class:`FrameKind` a typed frame travels as."""
    kind = _KIND_OF.get(type(frame))
    if kind is None:
        raise WireFormatError(f"{type(frame).__name__} is not a protocol frame type")
    return kind


# ----------------------------------------------------------------------
# one frame <-> bytes
# ----------------------------------------------------------------------
def encode(frame: Any, seq: int = 0, max_frame: int = DEFAULT_MAX_FRAME) -> bytes:
    """One wire-ready frame (kind inferred from the frame's type)."""
    kind = kind_of(frame)
    body = codec.encode(frame)
    if len(body) > max_frame:
        raise WireFormatError(
            f"refusing to send a {len(body)}-byte {kind.name} frame (max {max_frame})"
        )
    return (
        _HEADER.pack(MAGIC, PROTOCOL_VERSION, kind, 0, seq & 0xFFFFFFFF, len(body))
        + body
    )


def _header_at(data: Any, pos: int, max_frame: int) -> Tuple[FrameKind, int, int]:
    """Validate the 16-byte header at ``data[pos:]``: ``(kind, seq, length)``."""
    magic, version, kind, reserved, seq, length = _HEADER.unpack_from(data, pos)
    if magic != MAGIC:
        raise WireFormatError(f"bad magic {magic!r} (not a repro peer?)")
    if version != PROTOCOL_VERSION:
        raise WireFormatError(
            f"protocol version {version} (this side speaks {PROTOCOL_VERSION})"
        )
    try:
        kind = FrameKind(kind)
    except ValueError:
        raise WireFormatError(f"unknown frame kind {kind}") from None
    if reserved != 0:
        raise WireFormatError(f"reserved header bits set ({reserved:#x})")
    if length > max_frame:
        raise WireFormatError(
            f"oversized frame: {length} bytes declared (max {max_frame})"
        )
    return kind, seq, length


def _decode_body(kind: FrameKind, body: bytes) -> Any:
    """Decode a frame body and type-check it for ``kind``."""
    try:
        payload = codec.decode(body)
    except WireFormatError as exc:
        raise WireFormatError(f"undecodable {kind.name} body: {exc}") from exc
    expected = FRAME_CLASSES[kind]
    if type(payload) is not expected:
        raise WireFormatError(
            f"{kind.name} frame carried a {type(payload).__name__} "
            f"(expected {expected.__name__})"
        )
    return payload


def decode(data: bytes, max_frame: int = DEFAULT_MAX_FRAME) -> Tuple[Any, int]:
    """Decode exactly one whole frame from ``data``; returns ``(frame, seq)``.

    Trailing bytes beyond the declared length are rejected (stream framing
    never produces them; their presence means the framing is lost).
    """
    if len(data) < HEADER_SIZE:
        raise WireFormatError(
            f"truncated header: {len(data)} bytes (need {HEADER_SIZE})"
        )
    kind, seq, length = _header_at(data, 0, max_frame)
    have = len(data) - HEADER_SIZE
    if have < length:
        raise WireFormatError(f"truncated frame: {have} of {length} body bytes present")
    if have > length:
        raise WireFormatError(f"{have - length} stray bytes after a {kind.name} frame")
    return _decode_body(kind, data[HEADER_SIZE:]), seq


# ----------------------------------------------------------------------
# the framer
# ----------------------------------------------------------------------
class Connection:
    """Sans-IO state of one socket: see the module docstring for the contract."""

    def __init__(self, max_frame: int = DEFAULT_MAX_FRAME) -> None:
        self._max_frame = max_frame
        self._seq = 0
        self._buf = bytearray()

    @property
    def buffered(self) -> int:
        """Bytes held of a frame whose end has not arrived yet."""
        return len(self._buf)

    def next_seq(self) -> int:
        """The next request seq: 32 bits, never 0 (the error filler)."""
        self._seq = self._seq % 0xFFFFFFFF + 1
        return self._seq

    def send(self, frame: Any, seq: int = 0) -> bytes:
        """The bytes that carry ``frame`` under ``seq``."""
        return encode(frame, seq, self._max_frame)

    def receive(self, data: bytes) -> List[Event]:
        """Feed what one read returned; the frames it completed.

        ``b""`` means the peer closed: :class:`EOFError` between frames,
        :class:`TransportError` mid-frame.
        """
        if not data:
            if self._buf:
                raise TransportError(
                    f"peer closed mid-frame ({len(self._buf)} bytes of an "
                    "unfinished frame read)"
                )
            raise EOFError("peer closed the connection")
        src: Any = data
        if self._buf:
            self._buf += data
            src = self._buf
        events: List[Event] = []
        pos, size = 0, len(src)
        with memoryview(src) as view:
            while size - pos >= HEADER_SIZE:
                kind, seq, length = _header_at(src, pos, self._max_frame)
                end = pos + HEADER_SIZE + length
                if end > size:
                    break
                payload = _decode_body(kind, bytes(view[pos + HEADER_SIZE : end]))
                pos = end
                events.append((kind, seq, payload))
        if src is self._buf:
            del self._buf[:pos]
        elif pos < size:
            self._buf += data[pos:]
        return events
