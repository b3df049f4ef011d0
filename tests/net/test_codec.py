"""The v2 safe codec: encode -> decode is the identity; garbage dies.

The hypothesis block round-trips the closed value vocabulary (primitives,
containers, registered structs) and asserts determinism (equal values,
equal bytes -- including sets, which serialize in sorted-bytes order).  The
rejection block walks the decoder's validation branches: unknown tags,
unknown struct ids, truncation, trailing bytes, depth bombs, and
unregistered types must all fail loudly as :class:`WireFormatError` --
never construct a surprise object, which is the entire point of dropping
pickle from the client-facing wire.

The codec's int-run kernels are an *implementation* of the format, so they
are held to a per-item reference kept here (``ref_encode`` / ``ref_decode``):
equal bytes for every value, equal value and element types for every decode,
collection sizes drawn on both sides of the kernels' threshold.
"""

from __future__ import annotations

import dataclasses
import enum
import os
import struct
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WireFormatError
from repro.graph.mutations import AddNode, DeleteEdge, InsertEdge, RemoveNode
from repro.graph.pattern import Pattern
from repro.net import codec, protocol

# ----------------------------------------------------------------------
# strategies: the closed value vocabulary
# ----------------------------------------------------------------------
PRIMITIVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),  # crosses the i64 split
    st.floats(allow_nan=False),
    st.text(max_size=20),
    st.binary(max_size=20),
)

HASHABLE = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.text(max_size=10),
    st.binary(max_size=10),
)

RUN_MIN = codec._RUN_MIN

#: ints the kernels pack: the int64 edges, small negatives, node-id-sized
INT64S = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=0, max_value=5000),
    st.sampled_from([-(2**63), -(2**63) + 1, -1, 0, 2**63 - 2, 2**63 - 1]),
)

#: what turns an int run back into a per-item collection
INTRUDERS = st.one_of(
    st.booleans(),
    st.sampled_from([2**63, -(2**63) - 1, 2**70]),
    st.text(max_size=3),
    st.none(),
)


@st.composite
def int_runs(draw):
    """A list / tuple / set / frozenset of int64s, sized on both sides of the
    kernels' threshold (0..64 and a few hundred), sometimes with an intruder
    that must send the whole collection down the per-item path."""
    size = draw(st.one_of(st.integers(0, 64), st.integers(65, 400)))
    items = draw(st.lists(INT64S, min_size=size, max_size=size))
    if items and draw(st.integers(0, 3)) == 0:
        items[draw(st.integers(0, size - 1))] = draw(INTRUDERS)
    return draw(st.sampled_from([list, tuple, set, frozenset]))(items)


VALUES = st.recursive(
    st.one_of(PRIMITIVES, int_runs()),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(HASHABLE, children, max_size=4),
        st.sets(HASHABLE, max_size=4),
        st.frozensets(HASHABLE, max_size=4),
    ),
    max_leaves=20,
)

MUTATION_OPS = st.one_of(
    st.builds(InsertEdge, st.integers(), st.integers()),
    st.builds(DeleteEdge, st.integers(), st.integers()),
    st.builds(AddNode, st.integers(), st.text(max_size=5),
              st.one_of(st.none(), st.integers(min_value=0, max_value=7))),
    st.builds(RemoveNode, st.integers()),
)

#: small real patterns: one to three labelled nodes, a path of edges
PATTERNS = st.lists(st.text(max_size=3), min_size=1, max_size=3).map(
    lambda labels: Pattern(
        dict(enumerate(labels)), [(i, i + 1) for i in range(len(labels) - 1)]
    )
)

PAIRS = st.lists(
    st.tuples(st.text(max_size=5), st.integers()), max_size=4
).map(tuple)

V2_FRAMES = st.one_of(
    st.builds(protocol.Hello, role=st.sampled_from(["client", "server"])),
    st.builds(protocol.MutateRequest,
              ops=st.lists(MUTATION_OPS, max_size=4).map(tuple)),
    st.builds(
        protocol.SubscribeRequest,
        query=PATTERNS,
        algorithm=st.sampled_from(["auto", "dgpm"]),
        buffer=st.integers(min_value=1, max_value=1024),
    ),
    st.builds(
        protocol.SubscribeReply,
        sub_id=st.integers(min_value=1, max_value=10**6),
        stamp=st.integers(min_value=0, max_value=10**9),
        relation=st.none(),
    ),
    st.builds(protocol.UnsubscribeRequest, sub_id=st.integers(min_value=1)),
    st.builds(
        protocol.PushDelta,
        sub_id=st.integers(min_value=1, max_value=10**6),
        stamp=st.integers(min_value=0, max_value=10**9),
        added=PAIRS,
        removed=PAIRS,
        lapsed=st.booleans(),
    ),
)


# ----------------------------------------------------------------------
# the per-item reference: the format, one value at a time
# ----------------------------------------------------------------------
def _ref_varint(n: int) -> bytes:
    out = bytearray()
    while n > 0x7F:
        out.append(n & 0x7F | 0x80)
        n >>= 7
    return bytes(out + bytes([n]))


def ref_encode(obj, depth: int = 0) -> bytes:
    """What the wire carries for ``obj``: no kernel, no memo, no shortcuts."""
    if depth > codec.MAX_DEPTH:
        raise WireFormatError("value nesting exceeds the limit")
    kind = type(obj)
    if obj is None or kind is bool:
        return bytes([{None: 0x00, True: 0x01, False: 0x02}[obj]])
    if kind is int and -(2**63) <= obj < 2**63:
        return b"\x03" + struct.pack(">q", obj)
    if kind is int:
        raw = obj.to_bytes((obj.bit_length() + 8) // 8, "big", signed=True)
        return b"\x04" + _ref_varint(len(raw)) + raw
    if kind is float:
        return b"\x05" + struct.pack(">d", obj)
    if kind is str or kind is bytes:
        raw = obj.encode("utf-8") if kind is str else obj
        return (b"\x06" if kind is str else b"\x07") + _ref_varint(len(raw)) + raw
    if kind is codec._Memo:  # a relation's match set: the set, whatever its cell holds
        return ref_encode(obj.value, depth)
    if kind in (tuple, list, dict, set, frozenset):
        flat = [x for pair in obj.items() for x in pair] if kind is dict else list(obj)
        parts = [ref_encode(item, depth + 1) for item in flat]
        if kind in (set, frozenset):
            parts.sort()
        tag = {tuple: 0x08, list: 0x09, dict: 0x0A, set: 0x0B, frozenset: 0x0C}[kind]
        return bytes([tag]) + _ref_varint(len(obj)) + b"".join(parts)
    codec._ensure_registered()
    spec = codec._BY_CLASS.get(kind)
    if spec is None:
        raise WireFormatError(f"{kind.__name__} is not encodable")
    fields = spec.extract(obj)
    head = b"\x0e" + _ref_varint(spec.sid) + _ref_varint(len(fields))
    return head + b"".join(ref_encode(item, depth + 1) for item in fields)


def ref_decode(data: bytes):
    """``data`` read one tag at a time; raises only ``WireFormatError``."""
    codec._ensure_registered()
    pos = 0

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(data):
            raise WireFormatError("truncated")
        pos += n
        return data[pos - n : pos]

    def varint() -> int:
        value = shift = 0
        while True:
            byte = take(1)[0]
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7
            if shift > 63:
                raise WireFormatError("varint too long")

    def value(depth: int):
        if depth > codec.MAX_DEPTH:
            raise WireFormatError("value nesting exceeds the limit")
        tag = take(1)[0]
        if tag <= 0x02:
            return (None, True, False)[tag]
        if tag == 0x03:
            return struct.unpack(">q", take(8))[0]
        if tag == 0x04:
            return int.from_bytes(take(varint()), "big", signed=True)
        if tag == 0x05:
            return struct.unpack(">d", take(8))[0]
        if tag == 0x06:
            try:
                return take(varint()).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise WireFormatError("invalid utf-8") from exc
        if tag == 0x07:
            return take(varint())
        if tag in (0x08, 0x09, 0x0B, 0x0C):
            items = [value(depth + 1) for _ in range(varint())]
            return {0x08: tuple, 0x09: list, 0x0B: set, 0x0C: frozenset}[tag](items)
        if tag == 0x0A:
            return {value(depth + 1): value(depth + 1) for _ in range(varint())}
        if tag == 0x0E:
            spec = codec._BY_ID.get(varint())
            if spec is None:
                raise WireFormatError("unknown struct id")
            fields = [value(depth + 1) for _ in range(varint())]
            try:
                return spec.build(*fields)
            except Exception as exc:
                raise WireFormatError("cannot rebuild") from exc
        raise WireFormatError("unknown value tag")

    try:
        out = value(0)
    except TypeError as exc:
        raise WireFormatError("unhashable key") from exc
    if pos != len(data):
        raise WireFormatError("stray bytes")
    return out


def typed(value):
    """``value`` with every element's type spelled out, so that ``True`` is
    not ``1`` and a tuple is not a list when two decodes are compared."""
    if type(value) in (list, tuple):
        return (type(value).__name__, [typed(item) for item in value])
    if type(value) in (set, frozenset):
        return (type(value).__name__, sorted(map(repr, map(typed, value))))
    if type(value) is dict:
        return ("dict", [(typed(k), typed(v)) for k, v in value.items()])
    return (type(value).__name__, value)


def _outcome(fn, *args):
    """What a codec call gives: its value, or the fact that it refused."""
    try:
        return fn(*args)
    except WireFormatError:
        return WireFormatError


# ----------------------------------------------------------------------
# identity + determinism
# ----------------------------------------------------------------------
class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(value=VALUES)
    def test_value_identity(self, value):
        assert codec.decode(codec.encode(value)) == value

    @settings(max_examples=150, deadline=None)
    @given(frame=V2_FRAMES)
    def test_frame_identity(self, frame):
        assert codec.decode(codec.encode(frame)) == frame

    @settings(max_examples=100, deadline=None)
    @given(value=VALUES)
    def test_container_types_survive(self, value):
        # tuple stays tuple, list stays list, set stays set...
        assert type(codec.decode(codec.encode(value))) is type(value)

    def test_set_encoding_is_order_independent(self):
        a = codec.encode({"x", "y", "z", 1, 2, 3})
        b = codec.encode({3, 2, 1, "z", "y", "x"})
        assert a == b

    def test_int_boundaries(self):
        for n in (0, 2**63 - 1, -(2**63), 2**63, -(2**63) - 1, 2**200):
            assert codec.decode(codec.encode(n)) == n

    def test_wire_version_dispatch_selects_codec(self):
        """A frame's body is the codec's bytes: there is no other encoding."""
        frame = protocol.Hello(role="client")
        data = protocol.encode(frame)
        assert data[protocol.HEADER_SIZE:] == codec.encode(frame)
        assert protocol.decode(data)[0] == frame


# ----------------------------------------------------------------------
# the int-run kernels against the per-item reference
# ----------------------------------------------------------------------
class Colour(enum.IntEnum):
    RED = 1


def _agree(data: bytes) -> None:
    """The codec and the reference make the same thing of ``data``: the same
    refusal, or the same value down to element types."""
    ours, theirs = _outcome(codec.decode, data), _outcome(ref_decode, data)
    assert (ours is WireFormatError) == (theirs is WireFormatError), data
    if ours is not WireFormatError:
        assert repr(typed(ours)) == repr(typed(theirs)), data  # repr: nan == nan


class TestIntRuns:
    @settings(max_examples=300, deadline=None)
    @given(value=VALUES)
    def test_bytes_and_decodes_equal_the_reference(self, value):
        data = codec.encode(value)
        assert data == ref_encode(value)
        assert typed(codec.decode(data)) == typed(ref_decode(data)) == typed(value)

    @pytest.mark.parametrize("size", [RUN_MIN - 1, RUN_MIN, RUN_MIN + 1])
    @pytest.mark.parametrize("kind", [list, tuple, set, frozenset])
    def test_either_side_of_the_threshold(self, kind, size):
        value = kind(range(-2, size - 2))
        data = codec.encode(value)
        assert data == ref_encode(value)
        assert typed(codec.decode(data)) == typed(value)

    @pytest.mark.parametrize("intruder", [True, 2**63, -(2**63) - 1, "7", None, 7.0])
    @pytest.mark.parametrize("kind", [list, tuple, set, frozenset])
    def test_an_intruder_keeps_its_type(self, kind, intruder):
        """``True`` is an int to ``struct.pack``; it must not come back as 1."""
        value = kind([*range(100, 100 + 2 * RUN_MIN), intruder])
        data = codec.encode(value)
        assert data == ref_encode(value)
        assert typed(codec.decode(data)) == typed(value)

    @pytest.mark.parametrize("kind", [list, frozenset])
    def test_an_int_subclass_is_still_refused(self, kind):
        value = kind([*range(2, 2 * RUN_MIN), Colour.RED])
        assert len(value) == 2 * RUN_MIN - 1
        for encode in (codec.encode, ref_encode):
            with pytest.raises(WireFormatError, match="not encodable"):
                encode(value)

    def test_negatives_sort_after_non_negatives(self):
        """Sorted-*bytes* order of two's complement, not numeric order."""
        wire_order = [*range(0, 20), 2**63 - 1, -(2**63), *range(-20, 0)]
        body = b"".join(b"\x03" + struct.pack(">q", n) for n in wire_order)
        assert codec.encode(frozenset(wire_order)) == b"\x0c" + bytes([42]) + body
        assert codec.encode(set(wire_order)) == b"\x0b" + bytes([42]) + body

    @pytest.mark.parametrize("kind", [list, frozenset])
    def test_a_run_at_the_nesting_limit_is_still_refused(self, kind):
        def nested(value, levels):
            for _ in range(levels):
                value = [value]
            return value

        run = kind(range(2 * RUN_MIN))
        fits = nested(run, codec.MAX_DEPTH - 1)  # members at MAX_DEPTH exactly
        assert codec.decode(codec.encode(fits)) == fits
        with pytest.raises(WireFormatError, match="nesting exceeds"):
            codec.encode(nested(run, codec.MAX_DEPTH))
        too_deep = bytes([0x09, 0x01]) * codec.MAX_DEPTH + codec.encode(run)
        with pytest.raises(WireFormatError, match="nesting exceeds"):
            codec.decode(too_deep)
        with pytest.raises(WireFormatError):
            ref_decode(too_deep)

    def test_truncations_and_bit_flips_of_a_kernel_body(self):
        value = [frozenset(range(-3, 20)), tuple(range(RUN_MIN + 1)), [5] * RUN_MIN]
        data = codec.encode(value)
        for cut in range(len(data)):
            with pytest.raises(WireFormatError):
                codec.decode(data[:cut])
        for at in range(len(data)):
            for bit in range(8):
                flipped = bytearray(data)
                flipped[at] ^= 1 << bit
                _agree(bytes(flipped))

    @settings(max_examples=300, deadline=None)
    @given(body=st.binary(max_size=64), count=st.integers(0, 40), tag=st.sampled_from([8, 9, 11, 12]))
    def test_arbitrary_bodies_behind_a_count(self, body, count, tag):
        """Whatever follows a container header, kernel and reference agree."""
        _agree(bytes([tag, count]) + body)
        _agree(bytes([tag, count]) + b"\x03" + body * 9)

    def test_the_wire_path_imports_no_numpy(self):
        """The kernels are stdlib: a client that only decodes pays no numpy."""
        script = (
            "import sys\n"
            "from repro.net import codec\n"
            "assert codec.decode(codec.encode(frozenset(range(500)))) == frozenset(range(500))\n"
            "assert 'numpy' not in sys.modules\n"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        inherited = os.environ.get("PYTHONPATH")
        path = src + (os.pathsep + inherited if inherited else "")
        subprocess.run(
            [sys.executable, "-c", script],
            check=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": path},
        )


# ----------------------------------------------------------------------
# allocation: a count is a claim, not a reservation (ROADMAP 5c)
# ----------------------------------------------------------------------
def peak_traced(make_fn, *args) -> int:
    """Peak bytes allocated while ``make_fn()(*args)`` ran (refusals
    included) -- the lower of two runs: ``tracemalloc`` counts every thread
    and the collector too, and what is not this input's (a server thread
    left by an earlier test, a one-off table resize) does not repeat."""
    peaks = []
    for _ in range(2):
        fn = make_fn()
        tracemalloc.start()
        try:
            _outcome(fn, *args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return min(peaks)


class TestAllocation:
    @pytest.mark.parametrize("tag", [0x08, 0x09, 0x0A, 0x0B, 0x0C])
    @pytest.mark.parametrize("tail", [b"", b"\x03" * 9, b"\x00" * 9])
    def test_a_declared_count_allocates_nothing(self, tag, tail):
        body = bytes([tag]) + _ref_varint(2**40) + tail
        assert len(body) <= 16
        with pytest.raises(WireFormatError):
            codec.decode(body)
        assert peak_traced(lambda: codec.decode, body) < 64 * 1024

    def test_a_struct_field_count_allocates_nothing(self):
        body = bytes([0x0E, codec.FRAME_STRUCTS["Hello"]]) + _ref_varint(2**40) + b"\x03" * 8
        with pytest.raises(WireFormatError):
            codec.decode(body)
        assert peak_traced(lambda: codec.decode, body) < 64 * 1024


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_first_use_from_two_threads_at_once(self, monkeypatch):
        """A second thread making its first request while the first is still
        registering structs must find all of them or none -- not the first
        few, which read as "PushDelta is not a registered struct"."""
        monkeypatch.setattr(codec, "_BY_ID", {})
        monkeypatch.setattr(codec, "_BY_CLASS", {})
        real, built, raced = codec._StructSpec, [], []
        late = protocol.PushDelta(sub_id=1, stamp=1)  # registered near the end

        def second_thread():
            raced.append(_outcome(codec.encode, late))

        def spec_then_interleave(*args):
            built.append(args)
            if len(built) == 5:  # mid-build: a few structs exist, most do not
                thread = threading.Thread(target=second_thread)
                thread.start()
                thread.join(30)
                assert not thread.is_alive()
            return real(*args)

        monkeypatch.setattr(codec, "_StructSpec", spec_then_interleave)
        first = codec.encode(protocol.Hello(role="client"))
        assert raced == [ref_encode(late)]
        assert first == ref_encode(protocol.Hello(role="client"))
        assert set(codec._BY_ID) == {*codec.FRAME_STRUCTS.values(), *codec.VALUE_STRUCTS.values()}


# ----------------------------------------------------------------------
# whole bodies, structure-aware: every registered struct, nested to the limit
# ----------------------------------------------------------------------
def _struct_arities():
    """``{struct id: field count}`` for every registered struct."""
    codec._ensure_registered()
    return {
        sid: len(dataclasses.fields(spec.cls)) if dataclasses.is_dataclass(spec.cls) else 2
        for sid, spec in sorted(codec._BY_ID.items())
    }


ARITIES = _struct_arities()
#: well-formed leaf bodies; the containers among them nest a level or two deeper
LEAVES = st.sampled_from([
    codec.encode(value)
    for value in (
        None, True, 0, -1, 2**63, 1.5, "", "é", b"\x00", (), [1, "a"],
        {"k": (None,)}, frozenset({3}), tuple(range(RUN_MIN)),
    )
])


@st.composite
def nested_bodies(draw, depth: int) -> bytes:
    """A whole body whose innermost value sits ``depth`` levels down.

    Each level is a registered struct (ids taken in turn from a drawn
    offset, so a chain of 26 struct levels or more names every one) with
    its own field count or one off it, the chain in one of its fields and
    well-formed leaves in the others; now and then a level is a one-item
    container instead.
    """
    sids = list(ARITIES)
    turn = draw(st.integers(0, len(sids) - 1))
    body = draw(LEAVES)
    for _ in range(depth):
        if draw(st.integers(0, 3)) == 0:  # a one-item container
            tag = draw(st.sampled_from([0x08, 0x09, 0x0A, 0x0B, 0x0C]))
            head = bytes([tag, 1]) + (codec.encode(draw(HASHABLE)) if tag == 0x0A else b"")
            body = head + body
            continue
        sid = sids[turn % len(sids)]
        turn += 1
        arity = max(ARITIES[sid] + draw(st.sampled_from([0, 0, 0, -1, 1])), 1)
        at = draw(st.integers(0, arity - 1))
        fields = [body if i == at else draw(LEAVES) for i in range(arity)]
        body = b"\x0e" + _ref_varint(sid) + _ref_varint(arity) + b"".join(fields)
    return body


class TestWholeBodies:
    """Only :class:`WireFormatError` escapes a decode of a whole nested body,
    at the nesting limit and one level either side of it."""

    @pytest.mark.parametrize(
        "depth", [codec.MAX_DEPTH - 1, codec.MAX_DEPTH, codec.MAX_DEPTH + 1]
    )
    def test_nested_bodies_raise_only_wire_errors(self, depth):
        kinds = list(protocol.FrameKind)

        @settings(max_examples=25, deadline=None, derandomize=True, database=None)
        @given(body=nested_bodies(depth), kind=st.sampled_from(kinds))
        def check(body, kind):
            header = protocol._HEADER.pack(
                protocol.MAGIC, protocol.PROTOCOL_VERSION, kind, 0, 1, len(body)
            )
            errors = [_error(codec.decode, body), _error(protocol.decode, header + body)]
            if depth > codec.MAX_DEPTH:  # the chain itself is too deep
                assert all("nesting exceeds" in str(e) for e in errors)

        check()


def _error(decode, data: bytes):
    """The :class:`WireFormatError` ``decode(data)`` raises, or None; any
    other exception escapes."""
    try:
        decode(data)
    except WireFormatError as exc:
        return exc
    return None


# ----------------------------------------------------------------------
# rejections
# ----------------------------------------------------------------------
class TestRejection:
    def test_unknown_tag(self):
        with pytest.raises(WireFormatError, match="unknown value tag"):
            codec.decode(b"\xff")

    def test_unknown_struct_id(self):
        with pytest.raises(WireFormatError, match="unknown struct id"):
            codec.decode(bytes([0x0E, 0x7F, 0x00]))

    def test_truncated_varint(self):
        with pytest.raises(WireFormatError, match="truncated varint"):
            codec.decode(bytes([0x06, 0x80]))

    def test_truncated_payload(self):
        data = codec.encode("hello world")
        with pytest.raises(WireFormatError, match="truncated"):
            codec.decode(data[:-3])

    def test_trailing_bytes(self):
        with pytest.raises(WireFormatError, match="stray bytes"):
            codec.decode(codec.encode(42) + b"\x00")

    def test_depth_bomb(self):
        # One TUPLE-of-one header per level, deeper than MAX_DEPTH.
        data = bytes([0x08, 0x01]) * (codec.MAX_DEPTH + 2) + b"\x00"
        with pytest.raises(WireFormatError, match="nesting exceeds"):
            codec.decode(data)

    def test_deep_value_refuses_to_encode(self):
        value: object = 0
        for _ in range(codec.MAX_DEPTH + 2):
            value = (value,)
        with pytest.raises(WireFormatError, match="nesting exceeds"):
            codec.encode(value)

    def test_unregistered_type_refuses_to_encode(self):
        class Sneaky:
            pass

        with pytest.raises(WireFormatError, match="not encodable"):
            codec.encode(Sneaky())

    def test_exception_types_are_not_encodable(self):
        # Exceptions cross the wire as ErrorReply fields, never directly:
        # a codec that serialized arbitrary exception objects would be a
        # reconstruction gadget.
        with pytest.raises(WireFormatError, match="not encodable"):
            codec.encode(ValueError("boom"))

    def test_unhashable_key_is_a_wire_error(self):
        """A list as a dict key or set member: TypeError must not escape."""
        for data in (bytes([0x0A, 1, 0x09, 0, 0x00]), bytes([0x0B, 1, 0x09, 0])):
            with pytest.raises(WireFormatError, match="unhashable"):
                codec.decode(data)

    def test_bad_utf8_in_string(self):
        raw = b"\xff\xfe"
        data = bytes([0x06, len(raw)]) + raw
        with pytest.raises(WireFormatError, match="invalid utf-8"):
            codec.decode(data)

    def test_struct_arity_drift_dies(self):
        """A struct body with too many fields must not build the object."""
        data = bytearray(codec.encode(protocol.UnsubscribeRequest(sub_id=3)))
        # STRUCT tag, sid varint, field count varint: bump the count and
        # append one extra NONE field.
        assert data[0] == 0x0E
        count_at = 2 if data[1] < 0x80 else 3
        data[count_at] += 1
        data += b"\x00"
        with pytest.raises(WireFormatError, match="cannot rebuild"):
            codec.decode(bytes(data))
