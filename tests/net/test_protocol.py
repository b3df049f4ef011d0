"""Wire-protocol properties: encode -> decode is the identity; garbage dies.

The hypothesis block round-trips every frame type with varied payload
content; the rejection block walks every validation branch of the header
and body decoders -- a peer speaking the wrong protocol (or a truncated /
corrupted stream) must fail loudly as :class:`WireFormatError`, never
produce a half-decoded object.  The framer block holds
:class:`~repro.net.protocol.Connection` to its contract: however a valid
stream is cut into reads it yields the same logical frames, and no byte
string makes ``receive`` raise anything but :class:`WireFormatError`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import socket
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DgpmConfig
from repro.errors import (
    GraphError,
    MutationBatchError,
    PatternError,
    TransportError,
    WireFormatError,
)
from repro.graph.mutations import AddNode, DeleteEdge, InsertEdge
from repro.graph.pattern import Pattern
from repro.net import codec, protocol
from repro.net.protocol import (
    DEFAULT_MAX_FRAME,
    HEADER_SIZE,
    MAGIC,
    PROTOCOL_VERSION,
    Connection,
    FrameKind,
    decode,
    encode,
)
from repro.runtime.costmodel import CostModel
from repro.runtime.metrics import RunMetrics
from repro.session.concurrent import StampedOutcome
from repro.session.session import MutationOutcome, SessionStats
from repro.simulation.matchrel import MatchRelation

from tests.net.test_codec import _outcome, peak_traced, ref_decode, ref_encode

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


#: match-set sizes on both sides of the codec's int-run threshold, and node
#: ids that reach the int64 edges: small sets stay on the per-item path,
#: the rest go through the kernels
MATCH_SETS = st.one_of(
    st.sets(st.integers(min_value=0, max_value=50), max_size=5),
    st.sets(st.integers(min_value=-8, max_value=5000), max_size=64),
    st.sets(st.integers(min_value=-(2**63), max_value=2**63 - 1), min_size=65, max_size=300),
)


@st.composite
def relations(draw) -> MatchRelation:
    pattern = draw(patterns())
    matches = {u: draw(MATCH_SETS) for u in pattern.nodes()}
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
        st.builds(DeleteEdge, st.integers(), st.integers()),
        st.builds(InsertEdge, st.integers(), st.integers()),
        st.builds(AddNode, st.integers(), LABELS),
    ),
    max_size=5,
).map(tuple)

ERRORS = st.one_of(
    st.builds(GraphError, st.text(max_size=20)),
    st.builds(PatternError, st.text(max_size=20)),
    st.builds(
        MutationBatchError,
        st.text(min_size=1, max_size=20),
        st.lists(outcomes(), max_size=2),
        st.just(DeleteEdge(1, 2)),
    ),
)

FRAMES = st.one_of(
    st.builds(protocol.Hello, role=st.sampled_from(["client", "server", "worker"]),
              token=st.binary(max_size=16)),
    st.builds(
        protocol.RunRequest,
        query=patterns(),
        algorithm=st.sampled_from(["auto", "dgpm", "dmes"]),
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

    @settings(max_examples=200, deadline=None)
    @given(frame=FRAMES)
    def test_either_peer_may_be_the_per_item_codec(self, frame):
        """A peer from before the int-run kernels and the spliced match sets
        (the reference is that codec, one value at a time) and a peer from
        after them exchange every frame both ways."""
        body = codec.encode(frame)  # new server ...
        assert body == ref_encode(frame)
        assert ref_decode(body) == frame  # ... old client
        assert codec.decode(ref_encode(frame)) == frame  # old client, new server
        assert codec.encode(frame) == body  # and again, from the relation's cells

    @settings(max_examples=50, deadline=None)
    @given(error=ERRORS)
    def test_error_reply_reraises_original_type(self, error):
        reply = protocol.ErrorReply.from_exception(error)
        revived = decode(encode(reply))[0].to_exception()
        assert type(revived) is type(error)
        assert str(revived) == str(error)

    def test_mutation_batch_error_round_trips_its_fields(self):
        applied = [
            StampedOutcome(
                outcome=MutationOutcome(
                    kind="delete",
                    wall_seconds=0.5,
                    cache_kept=1,
                    cache_repaired=2,
                    cache_evicted=3,
                    falsified=4,
                ),
                stamp=7,
            )
        ]
        error = MutationBatchError("update failed", applied, DeleteEdge(1, 2))
        error.__cause__ = GraphError("edge (1, 2) is not in the graph")
        revived = decode(encode(protocol.ErrorReply.from_exception(error)))[
            0
        ].to_exception()
        assert isinstance(revived, MutationBatchError)
        assert revived.applied == applied
        assert revived.failed_op == DeleteEdge(1, 2)
        assert isinstance(revived.__cause__, GraphError)
        assert str(revived.__cause__) == "edge (1, 2) is not in the graph"


# ----------------------------------------------------------------------
# golden wire bytes: the format is pinned, not re-derived from the encoder
# ----------------------------------------------------------------------
def _golden_relation(names=("u0", "u1", "u2")) -> MatchRelation:
    """Three match sets of 1 / 23 / 965 ints: one below the int-run
    threshold, one just above it with negatives, one the size of the
    largest ``hot_reads`` reply."""
    sets = (frozenset({7}), frozenset(range(-5, 18)), frozenset(range(0, 965 * 7, 7)))
    return MatchRelation(names, dict(zip(names, sets)))


_GOLDEN_METRICS = RunMetrics(
    algorithm="dgpm",
    pt_seconds=0.25,
    wall_seconds=0.5,
    ds_bytes=20064,
    n_messages=260,
    n_rounds=3,
    ds_breakdown={"result": 12420, "falsify": 7644},
    per_round_compute=[0.125, 0.0625, 0.03125],
    extras={"maintained": 1.0},
)


def _sha256(frame, seq: int = 9) -> str:
    return hashlib.sha256(encode(frame, seq=seq)).hexdigest()


class TestGoldenBytes:
    """Digests generated on the commit before the codec grew its int-run
    kernels and the relation its cells: whatever this tree does to produce a
    frame, these are the bytes."""

    RUN_REPLY = "84ba839fc10566651ad8c030dab195138ea3116104cca4fa4c20f0d408981aa5"
    SUBSCRIBE_REPLY = "ef2afe15b3909260996e6febb186eabc63b9b7065165299bbf3df62d791a0b40"
    PUSH_DELTA = "08f49a7e344980fae0efba2c41626ac77945229b93fdd6b87f04e4f860b40468"

    def test_run_reply(self):
        frame = protocol.RunReply(_golden_relation(), _GOLDEN_METRICS, stamp=41)
        assert len(encode(frame)) == 9110
        assert _sha256(frame) == self.RUN_REPLY

    def test_subscribe_reply(self):
        frame = protocol.SubscribeReply(sub_id=3, stamp=41, relation=_golden_relation())
        assert _sha256(frame) == self.SUBSCRIBE_REPLY

    def test_push_delta(self):
        frame = protocol.PushDelta(
            sub_id=3,
            stamp=42,
            added=tuple(("u1", v) for v in range(20)),
            removed=(("u2", -1), ("u0", 2**63 - 1)),
        )
        assert _sha256(frame) == self.PUSH_DELTA

    def test_cold_spliced_and_renamed_encodes_are_the_same_bytes(self):
        relation = _golden_relation()
        cold = protocol.RunReply(relation, _GOLDEN_METRICS, stamp=41)
        assert _sha256(cold) == self.RUN_REPLY  # fills the cells
        assert _sha256(cold) == self.RUN_REPLY  # spliced from them
        order = ("u0", "u1", "u2")
        for names in (("x", "yy", "zzz"), ("u2", "u0", "u1")):
            view = relation.renamed(order, names)  # shares the filled cells
            fresh = _golden_relation(names)  # never encoded
            assert encode(protocol.RunReply(view, _GOLDEN_METRICS, 41)) == encode(
                protocol.RunReply(fresh, _GOLDEN_METRICS, 41)
            )
        # modulo the names: renaming back is the golden frame again
        back = relation.renamed(order, ("x", "yy", "zzz")).renamed(("x", "yy", "zzz"), order)
        assert _sha256(protocol.RunReply(back, _GOLDEN_METRICS, stamp=41)) == self.RUN_REPLY


def _hot_reads_replies():
    """RunReply frames as ``hot_reads`` serves them: its graph and
    partition (``benchmarks/serving``), one pattern whose match sets are all
    below the int-run threshold and one with sets on and above it."""
    from repro import SimulationSession, partition, web_graph
    from repro.bench.workloads import cyclic_pattern

    graph = web_graph(3000, 15000, seed=7)
    session = SimulationSession(partition(graph, 16, 7, vf_ratio=0.25))
    for seed in (1, 2):
        result = session.run(cyclic_pattern(graph, 4, 5, seed=seed))
        yield protocol.RunReply(result.relation, result.metrics, stamp=0)


class TestTruncatedBodies:
    def test_every_proper_prefix_is_a_wire_format_error(self):
        """The offset reader runs off the end of a cut body as
        ``IndexError`` / ``struct.error``; neither, nor anything else but
        :class:`WireFormatError`, may reach the caller."""
        frames = [
            protocol.RunReply(_golden_relation(), _GOLDEN_METRICS, stamp=41),
            protocol.SubscribeReply(sub_id=3, stamp=41, relation=_golden_relation()),
            protocol.PushDelta(
                sub_id=3,
                stamp=42,
                added=tuple(("u1", v) for v in range(20)),
                removed=(("u2", -1), ("u0", 2**63 - 1)),
            ),
            *_hot_reads_replies(),
        ]
        for frame in frames:
            body = codec.encode(frame)
            assert codec.decode(body) == frame
            outcomes = {_outcome(codec.decode, body[:cut]) for cut in range(len(body))}
            assert outcomes == {WireFormatError}, type(frame).__name__


# ----------------------------------------------------------------------
# rejection paths
# ----------------------------------------------------------------------
def _valid_frame(seq: int = 7) -> bytes:
    return encode(protocol.Hello(role="client"), seq=seq)


def _frame(kind: int, body: bytes, seq: int = 1, version: int = PROTOCOL_VERSION) -> bytes:
    """A hand-rolled frame: any header around any body."""
    return struct.pack(">4sBBHII", MAGIC, version, int(kind), 0, seq, len(body)) + body


class _Encoded(bytes):
    """A field already in codec bytes: :func:`_struct` writes it as it is."""


def _struct(name: str, *fields) -> bytes:
    """A hand-rolled codec struct: the fields a frame class would refuse."""
    head = bytes([0x0E, codec.FRAME_STRUCTS[name], len(fields)])
    return head + b"".join(
        value if isinstance(value, _Encoded) else codec.encode(value)
        for value in fields
    )


def _retired_config(**changes) -> _Encoded:
    """A ``DgpmConfig`` as a request could carry it before the config left
    the wire: its fields in declaration order under the retired struct id
    35, its ``CostModel`` under 36."""

    def raw(sid: int, obj) -> bytes:
        values = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
        return bytes([0x0E, sid, len(values)]) + b"".join(
            raw(36, value) if isinstance(value, CostModel) else codec.encode(value)
            for value in values
        )

    return _Encoded(raw(35, DgpmConfig(**changes)))


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
            encode(protocol.ResultChunk(0, 1, b"x" * 1024), max_frame=64)

    def test_garbage_body(self):
        with pytest.raises(WireFormatError, match="undecodable"):
            decode(_frame(FrameKind.RUN, b"\x80notacodecvalueatall"))

    def test_payload_type_must_match_kind(self):
        data = _frame(FrameKind.RUN, codec.encode(protocol.Hello(role="client")))
        with pytest.raises(WireFormatError, match="expected RunRequest"):
            decode(data)

    def test_mutate_ops_are_checked_at_decode(self):
        """A tuple where a MutationOp belongs never reaches the session."""
        good = codec.encode(protocol.MutateRequest(ops=(DeleteEdge(1, 2),)))
        legacy = good.replace(
            codec.encode(DeleteEdge(1, 2)), codec.encode(("delete", 1, 2))
        )
        assert legacy != good
        with pytest.raises(WireFormatError, match="expected MutationOp"):
            decode(_frame(FrameKind.MUTATE, legacy))

    def test_encode_rejects_non_frame_objects(self):
        with pytest.raises(WireFormatError, match="not a protocol frame"):
            encode({"kind": "run"})

    def test_unknown_error_kind_becomes_transport_error(self):
        """Only :mod:`repro.errors` classes are rebuilt; any other server
        exception reaches the caller as a TransportError naming it."""
        for exc in (ValueError("boom"), KeyError("boom")):
            reply = decode(encode(protocol.ErrorReply.from_exception(exc)))[0]
            revived = reply.to_exception()
            assert type(revived) is TransportError
            assert type(exc).__name__ in str(revived) and "boom" in str(revived)

    def test_pre_change_error_reply_struct_is_refused(self):
        """The old third field was a pickle; nothing may try to load it."""
        body = _struct("ErrorReply", "boom", "GraphError", b"\x80\x04pickle")
        with pytest.raises(WireFormatError, match="ErrorReply.applied"):
            decode(_frame(FrameKind.ERROR, body))

    def test_a_request_names_no_config(self):
        """The config is the server's: a RUN or SUBSCRIBE in the layout that
        carried one, and a body naming the retired config struct, are
        refused at decode."""
        query = Pattern({"a": "x", "b": "y"}, [("a", "b")])
        scrambled = _retired_config(scramble=(0, 1e-6))
        cases = [
            (FrameKind.RUN, _struct("RunRequest", query, "auto", None),
             "cannot rebuild RunRequest"),
            (FrameKind.SUBSCRIBE, _struct("SubscribeRequest", query, "auto", None, 256),
             "cannot rebuild SubscribeRequest"),
            (FrameKind.RUN, _struct("RunRequest", query, "auto", scrambled),
             "unknown struct id 35"),
        ]
        for kind, body, match in cases:
            with pytest.raises(WireFormatError, match=match):
                decode(_frame(kind, body))
        with pytest.raises(WireFormatError, match="unknown struct id 35"):
            codec.decode(scrambled)


# ----------------------------------------------------------------------
# the framer over a real socket
# ----------------------------------------------------------------------
class TestSocketFraming:
    def test_read_frame_round_trip_and_eof(self):
        a, b = socket.socketpair()
        try:
            a.sendall(Connection().send(protocol.Hello(role="ping"), 3))
            conn = Connection()
            assert conn.receive(b.recv(65536)) == [
                (FrameKind.HELLO, 3, protocol.Hello(role="ping"))
            ]
            a.close()
            with pytest.raises(EOFError):
                conn.receive(b.recv(65536))
        finally:
            a.close()
            b.close()

    def test_read_frame_mid_frame_close_is_transport_error(self):
        a, b = socket.socketpair()
        try:
            data = encode(protocol.Hello(role="partial"), seq=1)
            a.sendall(data[: len(data) - 2])
            a.close()
            conn = Connection()
            assert conn.receive(b.recv(65536)) == []
            with pytest.raises(TransportError, match="mid-frame"):
                conn.receive(b.recv(65536))
        finally:
            a.close()
            b.close()


# ----------------------------------------------------------------------
# the framer's contract (first step of the wire fuzzing in ROADMAP 5c)
# ----------------------------------------------------------------------
REPLIES = st.one_of(
    st.builds(
        protocol.RunReply,
        relation=relations(),
        metrics=metrics(),
        stamp=st.integers(min_value=0, max_value=10**9),
    ),
    st.builds(protocol.MutateReply, outcomes=st.lists(outcomes(), max_size=3).map(tuple)),
    st.builds(
        protocol.PushDelta,
        sub_id=st.integers(min_value=0, max_value=9),
        stamp=st.integers(min_value=0, max_value=10**9),
        added=st.lists(st.tuples(LABELS, st.integers()), max_size=3).map(tuple),
    ),
)


@st.composite
def streams(draw):
    """A valid server->client byte stream (plain, chunked and PUSH frames
    interleaved between replies) and the logical frames it carries."""
    chunking = Connection(chunk_size=draw(st.integers(min_value=24, max_value=200)))
    plain = Connection()
    data, events = b"", []
    for frame in draw(st.lists(REPLIES, min_size=1, max_size=5)):
        seq = draw(SEQS)
        sender = chunking if draw(st.booleans()) else plain
        data += sender.send(frame, seq)
        events.append((protocol.kind_of(frame), seq, frame))
    return data, events


def _feed(data: bytes, cuts) -> list:
    conn, events, start = Connection(), [], 0
    for cut in sorted(set(cuts)) + [len(data)]:
        if cut > start:
            events += conn.receive(data[start:cut])
            start = cut
    assert conn.buffered == 0
    return events


class TestConnection:
    @settings(max_examples=150, deadline=None)
    @given(stream=streams(), cuts=st.lists(st.integers(min_value=0, max_value=4096)))
    def test_any_partition_yields_the_same_events(self, stream, cuts):
        data, events = stream
        assert _feed(data, []) == events
        assert _feed(data, [c % (len(data) + 1) for c in cuts]) == events
        assert _feed(data, range(len(data))) == events  # byte by byte

    @settings(max_examples=200, deadline=None)
    @given(garbage=st.binary(min_size=1, max_size=256))
    def test_arbitrary_bytes_raise_only_wire_format_error(self, garbage):
        try:
            Connection().receive(garbage)
        except WireFormatError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(stream=streams(), flip=st.integers(min_value=0), bit=st.integers(0, 7))
    def test_bit_flipped_streams_raise_only_wire_format_error(self, stream, flip, bit):
        data = bytearray(stream[0])
        data[flip % len(data)] ^= 1 << bit
        try:
            Connection(max_frame=1 << 16).receive(bytes(data))
        except WireFormatError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(stream=streams(), flip=st.integers(min_value=0), bit=st.integers(0, 7))
    def test_allocation_is_bounded_by_the_bytes_received(self, stream, flip, bit):
        """What a frame *declares* (lengths, counts, slice totals) reserves
        nothing: over valid and bit-flipped streams the peak is a fixed floor
        (a refusal's message, cause and traceback: up to 7 KiB measured)
        plus a small multiple of the bytes that actually arrived (measured
        worst: 14.4 x, an int64 set member -- 9 bytes on the wire, an int
        object and a hash slot in memory)."""
        codec.encode(None)  # first use builds the struct registry: not this input's
        flipped = bytearray(stream[0])
        flipped[flip % len(flipped)] ^= 1 << bit
        for data in (stream[0], bytes(flipped)):
            peak = peak_traced(lambda: Connection(max_frame=1 << 16).receive, data)
            assert peak <= 16 * 1024 + 32 * len(data)

    @pytest.mark.parametrize(
        "header, complaint",
        [
            (_frame(10, b"")[:HEADER_SIZE], "unknown frame kind 10"),  # the retired OBJ
            (_frame(200, b"")[:HEADER_SIZE], "unknown frame kind 200"),
            (
                struct.pack(">4sBBHII", MAGIC, PROTOCOL_VERSION, FrameKind.RUN, 0, 1, 1 << 30),
                "oversized frame",
            ),
        ],
        ids=["kind-10", "unknown-kind", "oversized-length"],
    )
    def test_header_is_refused_before_the_body(self, header, complaint):
        """Sixteen bytes are enough: nothing of the body has arrived yet."""
        with pytest.raises(WireFormatError, match=complaint):
            Connection().receive(header)

    def test_version_1_header_is_refused(self):
        with pytest.raises(WireFormatError, match="protocol version 1"):
            Connection().receive(_frame(FrameKind.RUN, b"x", version=1))

    def test_frames_sharing_a_read_with_a_malformed_one_are_not_delivered(self):
        """``receive`` is all-or-nothing per call: the stream is dead from the
        first bad frame on, and what the same read completed before it is
        dropped with it (a request pipelined ahead of garbage is not served)."""
        good = encode(protocol.StatsRequest(), seq=7)
        conn = Connection()
        with pytest.raises(WireFormatError, match="bad magic"):
            conn.receive(good + b"\x00" * HEADER_SIZE)
        assert Connection().receive(good) == [(FrameKind.STATS, 7, protocol.StatsRequest())]

    @pytest.mark.parametrize(
        "slices, complaint",
        [
            ([(1, 3, 5)], "was due"),  # starts past slice 0
            ([(0, 3, 5), (2, 3, 5)], "was due"),  # skips one
            ([(0, 3, 5), (0, 3, 5)], "was due"),  # repeats one
            ([(0, 3, 5), (1, 4, 5)], "was due"),  # changes its mind on total
            ([(0, 3, 5), (1, 3, 6)], "was due"),  # another seq's slice
            ([(3, 3, 5)], "was due"),  # past its own total
            ([(0, 0, 5)], "was due"),  # a reply of no slices
            ([("0", 3, 5)], "must be int"),
        ],
    )
    def test_chunk_slices_must_arrive_in_order(self, slices, complaint):
        conn = Connection()
        with pytest.raises(WireFormatError, match=complaint):
            for index, total, seq in slices:
                body = _struct("ResultChunk", index, total, b"x" * 8)
                conn.receive(_frame(FrameKind.RESULT_CHUNK, body, seq=seq))

    def test_a_frame_inside_a_chunked_reply_is_refused(self):
        conn = Connection()
        conn.receive(encode(protocol.ResultChunk(0, 2, b"x"), seq=5))
        with pytest.raises(WireFormatError, match="interleaved"):
            conn.receive(encode(protocol.PushDelta(sub_id=1, stamp=1), seq=9))

    def test_a_chunk_nested_in_a_chunked_reply_is_refused_on_its_header(self):
        """The reassembled frame's kind is checked before its body: the inner
        body here is not even codec bytes."""
        inner = _frame(FrameKind.RESULT_CHUNK, b"\xff not a codec value", seq=5)
        conn = Connection()
        with pytest.raises(WireFormatError, match="nested inside a chunked reply"):
            conn.receive(encode(protocol.ResultChunk(0, 1, inner), seq=5))

    def test_chunk_reassembly_is_bounded_whatever_total_says(self):
        """A peer declaring 2**40 slices buys no more than one frame's worth."""
        conn = Connection(max_frame=256)
        payload = b"x" * 100
        with pytest.raises(WireFormatError, match="exceeds"):
            for index in range(4):
                conn.receive(
                    encode(protocol.ResultChunk(index, 2**40, payload), seq=5)
                )
