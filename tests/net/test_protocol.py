"""Wire-protocol properties: encode -> decode is the identity; garbage dies.

The hypothesis block round-trips every frame type with varied payload
content; the rejection block walks every validation branch of the header
and body decoders -- a peer speaking the wrong protocol (or a truncated /
corrupted stream) must fail loudly as :class:`WireFormatError`, never
produce a half-decoded object.
"""

from __future__ import annotations

import pickle
import socket
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    GraphError,
    MutationBatchError,
    TransportError,
    WireFormatError,
)
from repro.graph.pattern import Pattern
from repro.net import protocol
from repro.net.protocol import (
    DEFAULT_MAX_FRAME,
    HEADER_SIZE,
    MAGIC,
    PROTOCOL_VERSION,
    FrameKind,
    decode,
    encode,
)
from repro.runtime.metrics import RunMetrics
from repro.session.concurrent import StampedOutcome
from repro.session.session import MutationOutcome, SessionStats
from repro.simulation.matchrel import MatchRelation

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
SEQS = st.integers(min_value=0, max_value=2**32 - 1)
LABELS = st.sampled_from(["A", "B", "C", "dom0"])
FINITE = st.floats(allow_nan=False, allow_infinity=False, width=32)


@st.composite
def patterns(draw) -> Pattern:
    n = draw(st.integers(min_value=1, max_value=4))
    nodes = [f"u{i}" for i in range(n)]
    labels = {u: draw(LABELS) for u in nodes}
    candidates = [(a, b) for a in nodes for b in nodes if a != b]
    edges = draw(
        st.lists(st.sampled_from(candidates), unique=True, max_size=len(candidates))
        if candidates
        else st.just([])
    )
    return Pattern(labels, edges)


@st.composite
def relations(draw) -> MatchRelation:
    pattern = draw(patterns())
    matches = {
        u: draw(st.sets(st.integers(min_value=0, max_value=50), max_size=5))
        for u in pattern.nodes()
    }
    return MatchRelation(list(pattern.nodes()), matches)


@st.composite
def metrics(draw) -> RunMetrics:
    return RunMetrics(
        algorithm=draw(st.sampled_from(["dgpm", "dgpmd", "dGPM-mp"])),
        pt_seconds=draw(FINITE),
        wall_seconds=draw(FINITE),
        ds_bytes=draw(st.integers(min_value=0, max_value=2**40)),
        n_messages=draw(st.integers(min_value=0, max_value=10**6)),
        n_rounds=draw(st.integers(min_value=0, max_value=10**4)),
        ds_breakdown={"data": draw(st.integers(min_value=0, max_value=2**30))},
    )


@st.composite
def outcomes(draw) -> StampedOutcome:
    return StampedOutcome(
        outcome=MutationOutcome(
            kind=draw(st.sampled_from(["delete", "insert", "add_node"])),
            wall_seconds=draw(FINITE),
            cache_kept=draw(st.integers(min_value=0, max_value=100)),
            cache_repaired=draw(st.integers(min_value=0, max_value=100)),
            cache_evicted=draw(st.integers(min_value=0, max_value=100)),
            falsified=draw(st.integers(min_value=0, max_value=100)),
        ),
        stamp=draw(st.integers(min_value=0, max_value=10**9)),
    )


@st.composite
def stats(draw) -> SessionStats:
    s = SessionStats()
    s.queries_served = draw(st.integers(min_value=0, max_value=10**6))
    s.cache_hits = draw(st.integers(min_value=0, max_value=10**6))
    s.mutations = draw(st.integers(min_value=0, max_value=10**6))
    s.entries_promoted = draw(st.integers(min_value=0, max_value=10**6))
    return s


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("delete"), st.integers(), st.integers()),
        st.tuples(st.just("insert"), st.integers(), st.integers()),
        st.tuples(st.just("add_node"), st.integers(), LABELS),
    ),
    max_size=5,
).map(tuple)

ERRORS = st.one_of(
    st.builds(GraphError, st.text(max_size=20)),
    st.builds(ValueError, st.text(max_size=20)),
    st.builds(
        MutationBatchError,
        st.text(min_size=1, max_size=20),
        st.just([]),
        st.just(("delete", 1, 2)),
    ),
)

FRAMES = st.one_of(
    st.builds(protocol.Hello, role=st.sampled_from(["client", "server", "worker"]),
              token=st.binary(max_size=16)),
    st.builds(
        protocol.RunRequest,
        query=patterns(),
        algorithm=st.sampled_from(["auto", "dgpm", "dmes"]),
        config=st.none(),
    ),
    st.builds(protocol.MutateRequest, ops=OPS),
    st.builds(protocol.StatsRequest),
    st.builds(protocol.Bye),
    st.builds(
        protocol.RunReply,
        relation=relations(),
        metrics=metrics(),
        stamp=st.integers(min_value=0, max_value=10**9),
    ),
    st.builds(protocol.MutateReply, outcomes=st.lists(outcomes(), max_size=3).map(tuple)),
    st.builds(
        protocol.StatsReply,
        stats=stats(),
        stamp=st.integers(min_value=0, max_value=10**9),
        backend=st.sampled_from(["thread", "sharded"]),
        n_workers=st.integers(min_value=1, max_value=64),
    ),
    ERRORS.map(protocol.ErrorReply.from_exception),
)


# ----------------------------------------------------------------------
# round-trip identity
# ----------------------------------------------------------------------
class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(frame=FRAMES, seq=SEQS)
    def test_encode_decode_identity(self, frame, seq):
        decoded, decoded_seq = decode(encode(frame, seq=seq))
        assert decoded == frame
        assert decoded_seq == seq

    @settings(max_examples=50, deadline=None)
    @given(payload=st.one_of(st.text(), st.tuples(st.text(), st.integers()),
                             st.lists(st.integers(), max_size=4)),
           seq=SEQS)
    def test_obj_frames_round_trip(self, payload, seq):
        """The worker transport's raw-object frames (no typed class)."""
        data = protocol.encode_payload(FrameKind.OBJ, payload, seq=seq)
        decoded, decoded_seq = decode(data)
        assert decoded == payload
        assert decoded_seq == seq

    @settings(max_examples=50, deadline=None)
    @given(error=ERRORS)
    def test_error_reply_reraises_original_type(self, error):
        reply = protocol.ErrorReply.from_exception(error)
        revived = decode(encode(reply))[0].to_exception()
        assert type(revived) is type(error)
        assert str(revived) == str(error)


# ----------------------------------------------------------------------
# rejection paths
# ----------------------------------------------------------------------
def _valid_frame(seq: int = 7) -> bytes:
    return encode(protocol.Hello(role="client"), seq=seq)


class TestRejection:
    def test_bad_magic(self):
        data = b"XXXX" + _valid_frame()[4:]
        with pytest.raises(WireFormatError, match="magic"):
            decode(data)

    def test_wrong_version(self):
        data = bytearray(_valid_frame())
        data[4] = PROTOCOL_VERSION + 1
        with pytest.raises(WireFormatError, match="version"):
            decode(bytes(data))

    def test_unknown_kind(self):
        data = bytearray(_valid_frame())
        data[5] = 200
        with pytest.raises(WireFormatError, match="kind"):
            decode(bytes(data))

    def test_reserved_bits_must_be_zero(self):
        data = bytearray(_valid_frame())
        data[6] = 0xFF
        with pytest.raises(WireFormatError, match="reserved"):
            decode(bytes(data))

    def test_truncated_header(self):
        with pytest.raises(WireFormatError, match="truncated"):
            decode(_valid_frame()[: HEADER_SIZE - 2])

    def test_truncated_body(self):
        with pytest.raises(WireFormatError, match="truncated"):
            decode(_valid_frame()[:-3])

    def test_stray_trailing_bytes(self):
        with pytest.raises(WireFormatError, match="stray"):
            decode(_valid_frame() + b"junk")

    def test_oversized_declared_length(self):
        header = struct.pack(
            ">4sBBHII", MAGIC, PROTOCOL_VERSION, int(FrameKind.HELLO), 0, 1,
            DEFAULT_MAX_FRAME + 1,
        )
        with pytest.raises(WireFormatError, match="oversized"):
            decode(header)

    def test_encode_refuses_oversized_payload(self):
        with pytest.raises(WireFormatError, match="refusing to send"):
            protocol.encode_payload(FrameKind.OBJ, b"x" * 1024, max_frame=64)

    def test_garbage_body(self):
        body = b"\x80notapickleatall"
        header = struct.pack(
            ">4sBBHII", MAGIC, PROTOCOL_VERSION, int(FrameKind.OBJ), 0, 1,
            len(body),
        )
        with pytest.raises(WireFormatError, match="undecodable"):
            decode(header + body)

    def test_payload_type_must_match_kind(self):
        data = protocol.encode_payload(FrameKind.RUN, "not a RunRequest")
        with pytest.raises(WireFormatError, match="expected RunRequest"):
            decode(data)

    def test_encode_rejects_non_frame_objects(self):
        with pytest.raises(WireFormatError, match="not a protocol frame"):
            encode({"kind": "run"})

    def test_error_reply_with_unpicklable_class_degrades(self):
        reply = protocol.ErrorReply(message="boom", kind="Exotic", payload=b"")
        exc = reply.to_exception()
        assert isinstance(exc, TransportError)
        assert "boom" in str(exc)

    def test_error_reply_with_corrupt_payload_degrades(self):
        reply = protocol.ErrorReply(
            message="boom", kind="GraphError", payload=b"corrupt"
        )
        assert isinstance(reply.to_exception(), TransportError)

    def test_error_reply_with_non_exception_payload_degrades(self):
        reply = protocol.ErrorReply(
            message="boom", kind="GraphError", payload=pickle.dumps("a string")
        )
        assert isinstance(reply.to_exception(), TransportError)


# ----------------------------------------------------------------------
# stream adapters
# ----------------------------------------------------------------------
class TestSocketFraming:
    def test_read_frame_round_trip_and_eof(self):
        a, b = socket.socketpair()
        try:
            protocol.write_frame(a, FrameKind.OBJ, ("ping", 1), seq=3)
            kind, seq, payload = protocol.read_frame(b)
            assert (kind, seq, payload) == (FrameKind.OBJ, 3, ("ping", 1))
            a.close()
            with pytest.raises(EOFError):
                protocol.read_frame(b)
        finally:
            a.close()
            b.close()

    def test_read_frame_mid_frame_close_is_transport_error(self):
        a, b = socket.socketpair()
        try:
            data = protocol.encode_payload(FrameKind.OBJ, "partial", seq=1)
            a.sendall(data[: len(data) - 2])
            a.close()
            with pytest.raises(TransportError, match="mid-frame"):
                protocol.read_frame(b)
        finally:
            a.close()
            b.close()
