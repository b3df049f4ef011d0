"""The wire's one body encoding: tagged values, no pickle, no surprises.

A pickled body can execute arbitrary code on load, so nothing on the
client-facing wire is one.  Frame bodies use this closed tagged encoding --
a small vocabulary of primitives and containers plus an explicit registry
of the typed dataclasses that legitimately cross the wire.  Decoding never
constructs anything outside that vocabulary, so the ingress can face
untrusted clients (and a client an untrusted server).

Format: every value is one tag byte followed by a tag-specific payload;
lengths and counts are unsigned LEB128 varints.  Registered structs encode
as ``STRUCT tag, struct id, field count, field values`` with the fields in
registration order, and are rebuilt through their registered constructor --
not ``__reduce__``, not ``__setstate__``.

The registry is the source of truth for *what may cross the wire*:
:data:`FRAME_STRUCTS` lists every protocol frame class (the
``protocol-exhaustive`` analyzer checker cross-references it against
``FrameKind``), and :data:`VALUE_STRUCTS` the payload
types those frames carry.  Encoding is deterministic: sets and frozensets
are serialized in sorted-bytes order, so equal sets produce equal bytes
(a ``dict`` is written in its insertion order: equal dicts built in
different orders do not).

The per-item paths -- the encoders of ``_ENCODERS``, keyed by the value's
exact type, and ``_decode_value``, which reads at an integer offset into
the body -- *are* the format.  Two shortcuts write and read the same bytes
and nothing else:

* the **int-run kernels** -- a ``set`` / ``frozenset`` of ``_RUN_MIN`` or
  more plain int64s (exactly ``int``: no ``bool``, subclass or bigint) is
  packed by one ``struct.pack`` and strided copies, and the members of any
  container that are a run of ``INT`` values are recognised by their tag
  bytes and unpacked the same way; anything else falls through to the
  per-item path (as does encoding a ``tuple`` / ``list``: no frame carries
  a long one of ints);
* **spliced match sets** -- a ``MatchRelation``'s sets are encoded the
  first time it (or a renamed view) is sent and copied from the relation's
  own cells afterwards: the bytes live and die with the immutable relation
  they encode, so there is nothing to invalidate.

Everything raises :class:`~repro.errors.WireFormatError` -- on unknown
tags, unknown struct ids, truncation, trailing bytes, arity drift, absurd
nesting, an unhashable dict key or set member, or an attempt to encode an
unregistered type.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from typing import Any, Callable, Dict, List, NamedTuple, Sequence, Tuple

from repro.errors import WireFormatError

_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03  # 8-byte signed big-endian
_T_BIGINT = 0x04  # varint length + signed big-endian bytes
_T_FLOAT = 0x05  # 8-byte IEEE-754 big-endian
_T_STR = 0x06  # varint length + utf-8
_T_BYTES = 0x07  # varint length + raw
_T_TUPLE = 0x08  # varint count + values
_T_LIST = 0x09
_T_DICT = 0x0A  # varint count + key/value pairs
_T_SET = 0x0B  # varint count + values (sorted-bytes order)
_T_FROZENSET = 0x0C
_T_STRUCT = 0x0E  # varint struct id + varint field count + field values

_INT64 = struct.Struct(">q")
_FLOAT64 = struct.Struct(">d")
_TAGGED_INT64 = struct.Struct(">Bq")
_TAGGED_FLOAT64 = struct.Struct(">Bd")
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

#: shortest run the int-run kernels take: the measured break-even of set
#: encode (decode's is lower); below it their fixed cost (nine strided
#: copies) exceeds the per-item calls they save
_RUN_MIN = 9

#: nesting bound: no legitimate frame is anywhere near this deep, and a
#: crafted deep body must not be able to exhaust the decoder's stack
MAX_DEPTH = 64

# ----------------------------------------------------------------------
# struct registry
# ----------------------------------------------------------------------

#: protocol frame classes (net/protocol.py) -> struct id.  Every FrameKind's
#: body class must appear here; the protocol-exhaustive checker enforces it.
FRAME_STRUCTS: Dict[str, int] = {
    "Hello": 1,
    "RunRequest": 2,
    "MutateRequest": 3,
    "StatsRequest": 4,
    "Bye": 5,
    "RunReply": 6,
    "MutateReply": 7,
    "StatsReply": 8,
    "ErrorReply": 9,
    "SubscribeRequest": 10,
    "SubscribeReply": 11,
    "UnsubscribeRequest": 12,
    "PushDelta": 13,
    "ResultChunk": 14,
}

#: payload types carried inside frames -> struct id.  Ids 35 and 36 (a
#: request's ``DgpmConfig`` and its ``CostModel``) are retired, never reused:
#: the config is the server's, and a body naming either is refused
VALUE_STRUCTS: Dict[str, int] = {
    "Pattern": 32,
    "MatchRelation": 33,
    "RunMetrics": 34,
    "SessionStats": 37,
    "MutationOutcome": 38,
    "MutationDelta": 39,
    "StampedOutcome": 40,
    "InsertEdge": 41,
    "DeleteEdge": 42,
    "AddNode": 43,
    "RemoveNode": 44,
    "PartitionStats": 45,
}

#: extract(obj) -> field tuple; build(*fields) -> obj
_Extract = Callable[[Any], Tuple[Any, ...]]
_Build = Callable[..., Any]


class _StructSpec:
    __slots__ = ("sid", "cls", "extract", "build")

    def __init__(self, sid: int, cls: type, extract: _Extract, build: _Build):
        self.sid = sid
        self.cls = cls
        self.extract = extract
        self.build = build


_BY_ID: Dict[int, _StructSpec] = {}
_BY_CLASS: Dict[type, _StructSpec] = {}


def _extract_pattern(obj: Any) -> Tuple[Any, ...]:
    return ({u: obj.label(u) for u in obj.nodes()}, tuple(obj.edges()))


class _Memo(NamedTuple):
    """A value that is encoded at most once.

    ``cell`` is a one-slot list kept by the immutable object ``value``
    belongs to; the encoder leaves the value's bytes there and splices them
    into every later encode, for as long as that object lives.
    """

    value: Any
    cell: List[Any]


def _extract_relation(obj: Any) -> Tuple[Any, ...]:
    nodes = tuple(obj.query_nodes())
    return (nodes, {u: _Memo(obj.raw_matches_of(u), obj._cells[u]) for u in nodes})


def _ensure_registered() -> None:
    """Populate the registry on first use.

    Imports live here, not at module top: :mod:`repro.net.protocol` imports
    this module and this registry names its frame classes, and bodies are
    only ever encoded once both are fully imported.
    """
    global _BY_ID, _BY_CLASS
    if _BY_ID:
        return
    from dataclasses import fields as dc_fields

    from repro.graph.mutations import AddNode, DeleteEdge, InsertEdge, RemoveNode
    from repro.graph.pattern import Pattern
    from repro.net import protocol
    from repro.partition.fragmentation import MutationDelta
    from repro.partition.metrics import PartitionStats
    from repro.runtime.metrics import RunMetrics
    from repro.session.concurrent import StampedOutcome
    from repro.session.session import MutationOutcome, SessionStats
    from repro.simulation.matchrel import MatchRelation

    specs = [
        _StructSpec(VALUE_STRUCTS["Pattern"], Pattern, _extract_pattern, Pattern),
        _StructSpec(
            VALUE_STRUCTS["MatchRelation"],
            MatchRelation,
            _extract_relation,
            MatchRelation,
        ),
    ]

    def auto(sid: int, cls: type) -> None:
        names = tuple(f.name for f in dc_fields(cls))

        def extract(obj: Any) -> Tuple[Any, ...]:
            return tuple(getattr(obj, name) for name in names)

        specs.append(_StructSpec(sid, cls, extract, cls))

    for name, sid in FRAME_STRUCTS.items():
        auto(sid, getattr(protocol, name))
    for cls in (
        RunMetrics,
        SessionStats,
        MutationOutcome,
        MutationDelta,
        StampedOutcome,
        InsertEdge,
        DeleteEdge,
        AddNode,
        RemoveNode,
        PartitionStats,
    ):
        auto(VALUE_STRUCTS[cls.__name__], cls)
    # Published whole, and the table tested above last: a thread that arrives
    # mid-build builds equal tables of its own instead of finding half of one
    # (which read as "RunRequest is not a registered struct").
    _BY_CLASS = {spec.cls: spec for spec in specs}
    _BY_ID = {spec.sid: spec for spec in specs}


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------
def _write_varint(out: bytearray, n: int) -> None:
    while True:
        byte = n & 0x7F
        n >>= 7
        if n:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _encode_int_set(out: bytearray, items: Any, depth: int) -> bool:
    """The run kernel: append the members of the set ``items`` if they are
    all plain int64s -- the bytes the per-item path writes, without one call
    and one ``bytearray`` a member.

    False (nothing written) sends the caller down the per-item path, which
    keeps ``bool``, int subclasses, bigints, every other type, short sets
    and the nesting error.
    """
    count = len(items)
    if count < _RUN_MIN or depth >= MAX_DEPTH or set(map(type, items)) != {int}:
        return False
    # Sorted-bytes order of equal-tagged two's-complement ints:
    # non-negatives ascending, then negatives ascending.
    items = sorted(items)
    split = bisect_left(items, 0)
    try:
        packed = struct.pack(">%dq" % count, *items[split:], *items[:split])
    except struct.error:  # a member outside int64 encodes as a BIGINT
        return False
    run = bytearray(9 * count)
    run[0::9] = bytes((_T_INT,)) * count
    for k in range(8):
        run[k + 1 :: 9] = packed[k::8]
    out += run
    return True


def _too_deep() -> WireFormatError:
    return WireFormatError(f"value nesting exceeds {MAX_DEPTH} levels")


# The per-item encoders, one per type of the value vocabulary and keyed by
# ``type(obj)`` in ``_ENCODERS`` (anything else is a registered struct or
# refused).  Each writes ``obj`` at nesting ``depth``; one that writes
# members first checks that ``depth + 1`` is within ``MAX_DEPTH``.
def _encode_constant(out: bytearray, obj: Any, depth: int) -> None:
    out.append(_T_NONE if obj is None else _T_TRUE if obj else _T_FALSE)


def _encode_int(out: bytearray, obj: Any, depth: int) -> None:
    if _INT64_MIN <= obj <= _INT64_MAX:
        out += _TAGGED_INT64.pack(_T_INT, obj)
    else:
        raw = obj.to_bytes((obj.bit_length() + 8) // 8, "big", signed=True)
        out.append(_T_BIGINT)
        _write_varint(out, len(raw))
        out += raw


def _encode_float(out: bytearray, obj: Any, depth: int) -> None:
    out += _TAGGED_FLOAT64.pack(_T_FLOAT, obj)


def _encode_str(out: bytearray, obj: Any, depth: int) -> None:
    raw = obj.encode("utf-8")
    out.append(_T_STR)
    _write_varint(out, len(raw))
    out += raw


def _encode_bytes(out: bytearray, obj: Any, depth: int) -> None:
    out.append(_T_BYTES)
    _write_varint(out, len(obj))
    out += obj


def _encode_items(out: bytearray, items: Sequence[Any], depth: int) -> None:
    """Append ``items``, the members of a container at ``depth``."""
    if items:
        depth += 1
        if depth > MAX_DEPTH:
            raise _too_deep()
        get = _ENCODERS.get
        for item in items:
            get(type(item), _encode_struct)(out, item, depth)


def _encode_sequence(out: bytearray, obj: Any, depth: int) -> None:
    out.append(_T_TUPLE if type(obj) is tuple else _T_LIST)
    _write_varint(out, len(obj))
    _encode_items(out, obj, depth)


def _encode_dict(out: bytearray, obj: Any, depth: int) -> None:
    out.append(_T_DICT)
    _write_varint(out, len(obj))
    if obj:
        depth += 1
        if depth > MAX_DEPTH:
            raise _too_deep()
        get = _ENCODERS.get
        for key, value in obj.items():
            get(type(key), _encode_struct)(out, key, depth)
            get(type(value), _encode_struct)(out, value, depth)


def _encode_set(out: bytearray, obj: Any, depth: int) -> None:
    out.append(_T_SET if type(obj) is set else _T_FROZENSET)
    _write_varint(out, len(obj))
    if obj and not _encode_int_set(out, obj, depth):
        depth += 1
        if depth > MAX_DEPTH:
            raise _too_deep()
        get = _ENCODERS.get
        encoded: List[bytes] = []
        for item in obj:
            buf = bytearray()
            get(type(item), _encode_struct)(buf, item, depth)
            encoded.append(bytes(buf))
        for raw in sorted(encoded):
            out += raw


def _encode_memo(out: bytearray, obj: Any, depth: int) -> None:
    raw = obj.cell[0]
    if raw is None:
        buf = bytearray()
        _ENCODERS.get(type(obj.value), _encode_struct)(buf, obj.value, depth)
        # Threads racing to fill one cell store equal bytes (the value is
        # immutable, the encoding deterministic): last writer wins, benignly.
        # Every frame puts a relation's sets at one depth (RunReply and
        # SubscribeReply both hold it as a field), so the nesting check
        # taken here holds for every later splice.
        obj.cell[0] = raw = bytes(buf)
    out += raw


def _encode_struct(out: bytearray, obj: Any, depth: int) -> None:
    spec = _BY_CLASS.get(type(obj))
    if spec is None:
        raise WireFormatError(
            f"{type(obj).__name__} is not encodable on the wire "
            "(not a registered struct)"
        )
    fields = spec.extract(obj)
    out.append(_T_STRUCT)
    _write_varint(out, spec.sid)
    _write_varint(out, len(fields))
    _encode_items(out, fields, depth)


_Encoder = Callable[[bytearray, Any, int], None]

_ENCODERS: Dict[type, _Encoder] = {
    type(None): _encode_constant,
    bool: _encode_constant,
    int: _encode_int,
    float: _encode_float,
    str: _encode_str,
    bytes: _encode_bytes,
    tuple: _encode_sequence,
    list: _encode_sequence,
    dict: _encode_dict,
    set: _encode_set,
    frozenset: _encode_set,
    _Memo: _encode_memo,
}


def encode(obj: Any) -> bytes:
    """Encode one value (typically a protocol frame) to wire bytes."""
    _ensure_registered()
    out = bytearray()
    _ENCODERS.get(type(obj), _encode_struct)(out, obj, 0)
    return bytes(out)


# ----------------------------------------------------------------------
# decoding
# ----------------------------------------------------------------------
_CONTAINERS: Dict[int, Callable[[Sequence[Any]], Any]] = {
    _T_TUPLE: tuple,
    _T_LIST: list,
    _T_SET: set,
    _T_FROZENSET: frozenset,
}


def _varint(data: bytes, pos: int) -> Tuple[int, int]:
    """The varint at ``pos`` and the offset after it (callers read a
    one-byte varint, the common case, inline)."""
    shift = 0
    value = 0
    while True:
        if pos >= len(data):
            raise WireFormatError("truncated varint")
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7
        if shift > 63:
            raise WireFormatError("varint too long")


def _decode_items(data: bytes, pos: int, depth: int) -> Tuple[Sequence[Any], int]:
    """A varint count and that many values, the members of a container at
    ``depth``: by the run kernel when they are all ``INT``, else one by one."""
    count = data[pos]
    if count < 0x80:
        pos += 1
    else:
        count, pos = _varint(data, pos)
    end = pos + 9 * count
    # The bound comes first: nothing sized by ``count`` is allocated for a
    # body that does not hold ``count`` values.
    if count >= _RUN_MIN and depth < MAX_DEPTH and end <= len(data):
        chunk = data[pos:end]
        if chunk[0::9].count(_T_INT) == count:
            raw = bytearray(8 * count)
            for k in range(8):
                raw[k::8] = chunk[k + 1 :: 9]
            return struct.unpack(">%dq" % count, raw), end
    items = []
    depth += 1
    for _ in range(count):
        item, pos = _decode_value(data, pos, depth)
        items.append(item)
    return items, pos


def _decode_value(data: bytes, pos: int, depth: int) -> Tuple[Any, int]:
    """The value whose tag is at ``pos``, and the offset after it.

    Reading past the end raises ``IndexError`` (a tag or a varint) or
    ``struct.error`` (a fixed-width value); :func:`decode` reports both as
    truncation.
    """
    if depth > MAX_DEPTH:
        raise _too_deep()
    tag = data[pos]
    pos += 1
    if tag == _T_INT:
        return _INT64.unpack_from(data, pos)[0], pos + 8
    if tag == _T_STR or tag == _T_BYTES or tag == _T_BIGINT:
        size = data[pos]
        if size < 0x80:
            pos += 1
        else:
            size, pos = _varint(data, pos)
        end = pos + size
        if end > len(data):
            raise WireFormatError(
                f"truncated value: need {size} bytes at offset {pos}, "
                f"have {len(data) - pos}"
            )
        if tag == _T_STR:
            try:
                return data[pos:end].decode("utf-8"), end
            except UnicodeDecodeError as exc:
                raise WireFormatError(f"invalid utf-8 in string value: {exc}") from exc
        if tag == _T_BYTES:
            return data[pos:end], end
        return int.from_bytes(data[pos:end], "big", signed=True), end
    if tag == _T_FLOAT:
        return _FLOAT64.unpack_from(data, pos)[0], pos + 8
    if tag == _T_STRUCT:
        sid = data[pos]
        if sid < 0x80:
            pos += 1
        else:
            sid, pos = _varint(data, pos)
        spec = _BY_ID.get(sid)
        if spec is None:
            raise WireFormatError(f"unknown struct id {sid}")
        fields, pos = _decode_items(data, pos, depth)
        try:
            return spec.build(*fields), pos
        except WireFormatError:
            raise
        except Exception as exc:
            raise WireFormatError(
                f"cannot rebuild {spec.cls.__name__} from wire fields: {exc!r}"
            ) from exc
    if tag <= _T_FALSE:
        return (None, True, False)[tag], pos
    if tag == _T_DICT:
        count = data[pos]
        if count < 0x80:
            pos += 1
        else:
            count, pos = _varint(data, pos)
        out: Dict[Any, Any] = {}
        depth += 1
        for _ in range(count):
            key, pos = _decode_value(data, pos, depth)
            value, pos = _decode_value(data, pos, depth)
            out[key] = value
        return out, pos
    container = _CONTAINERS.get(tag)
    if container is None:
        raise WireFormatError(f"unknown value tag {tag:#04x}")
    items, pos = _decode_items(data, pos, depth)
    return container(items), pos


def decode(data: bytes) -> Any:
    """Decode one value from wire bytes (trailing bytes are rejected)."""
    _ensure_registered()
    try:
        value, pos = _decode_value(data, 0, 0)
    except (IndexError, struct.error):
        raise WireFormatError(
            f"truncated value: the {len(data)}-byte body ends inside one"
        ) from None
    except TypeError as exc:  # a list or dict where a dict key / set member goes
        raise WireFormatError(f"unhashable key in a wire value: {exc}") from exc
    if pos != len(data):
        raise WireFormatError(f"{len(data) - pos} stray bytes after a wire value")
    return value
