"""The v2 safe codec: encode -> decode is the identity; garbage dies.

The hypothesis block round-trips the closed value vocabulary (primitives,
containers, registered structs) and asserts determinism (equal values,
equal bytes -- including sets, which serialize in sorted-bytes order).  The
rejection block walks the decoder's validation branches: unknown tags,
unknown struct ids, truncation, trailing bytes, depth bombs, and
unregistered types must all fail loudly as :class:`WireFormatError` --
never construct a surprise object, which is the entire point of dropping
pickle from the client-facing wire.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WireFormatError
from repro.graph.mutations import AddNode, DeleteEdge, InsertEdge, RemoveNode
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

VALUES = st.recursive(
    PRIMITIVES,
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

PAIRS = st.lists(
    st.tuples(st.text(max_size=5), st.integers()), max_size=4
).map(tuple)

V2_FRAMES = st.one_of(
    st.builds(
        protocol.Hello,
        role=st.sampled_from(["client", "server"]),
        token=st.binary(max_size=8),
        versions=st.sampled_from([(1,), (2,), (1, 2)]),
    ),
    st.builds(protocol.MutateRequest,
              ops=st.lists(MUTATION_OPS, max_size=4).map(tuple)),
    st.builds(
        protocol.SubscribeRequest,
        query=st.just(None),
        algorithm=st.sampled_from(["auto", "dgpm"]),
        config=st.none(),
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
    st.builds(
        protocol.ResultChunk,
        index=st.integers(min_value=0, max_value=100),
        total=st.integers(min_value=1, max_value=101),
        payload=st.binary(max_size=64),
    ),
)


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
        frame = protocol.Hello(role="client", versions=(1, 2))
        data = protocol.encode(frame)
        assert data[protocol.HEADER_SIZE:] == codec.encode(frame)
        assert protocol.decode(data)[0] == frame


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
