"""Clients for the network ingress: blocking and asyncio, one protocol core.

Both clients return the same objects an in-process caller gets from
:class:`~repro.session.concurrent.ConcurrentSessionServer`:
:class:`StampedResult` for queries and :class:`StampedOutcome` lists for
mutations, so parity checks and stamp reasoning are written once whichever
side of the socket the caller is on.  Server-side exceptions arrive in
``ERROR`` frames and are re-raised as their original type
(:class:`GraphError`, :class:`MutationBatchError`, ...); if the class fails
to reconstruct the client raises :class:`~repro.errors.TransportError`
carrying the server's message.

The request-building surface lives once, in :class:`_ClientCore`; the two
clients differ only in transport style:

* :class:`SessionClient` -- blocking, one request in flight at a time
  (thread-safe: calls serialize on an internal lock).  Open several clients
  for concurrency; each costs one TCP connection.
* :class:`AsyncSessionClient` -- asyncio, *pipelined*: any number of
  coroutines can have requests in flight on one connection; a background
  reader task keys replies to waiters by the frame ``seq``.

:func:`connect` is the one entry point for both: it dials, performs the
``HELLO`` handshake (negotiating protocol v2 when the server speaks it),
and returns the ready client.

Standing queries (protocol v2) arrive through :meth:`subscribe`: the
blocking client hands back a :class:`Subscription` (an iterator of
:class:`~repro.net.protocol.PushDelta` on a dedicated connection), the
asyncio client an :class:`AsyncSubscription` (an async iterator sharing
the pipelined connection).

>>> with connect((host, port)) as client:
...     result = client.run(query)            # StampedResult
...     client.delete_edge(u, v)              # StampedOutcome, stamp advanced
...     client.run(query).stamp
1
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import queue as queue_mod
import socket
import threading
import time
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.config import DgpmConfig
from repro.errors import ReproError, TransportError, WireFormatError
from repro.graph.digraph import Label, Node
from repro.graph.mutations import (
    AddNode,
    DeleteEdge,
    InsertEdge,
    OpLike,
    RemoveNode,
    normalize_ops,
)
from repro.graph.pattern import Pattern
from repro.net import protocol
from repro.net.protocol import DEFAULT_MAX_FRAME, FrameKind
from repro.runtime.transport import RetryPolicy
# Import from the concrete module (not the repro.session package): this
# module loads while the package may still be mid-initialization.
from repro.session.concurrent import StampedOutcome, StampedResult

#: the versions a client announces by default: v1 for old servers, v2
#: preferred when the server's HELLO reply offers it
DEFAULT_VERSIONS: Tuple[int, ...] = (protocol.PROTOCOL_V1, protocol.PROTOCOL_VERSION)


def _unwrap(kind: FrameKind, payload: Any, expected: FrameKind) -> Any:
    """Turn a reply frame into a return value or a raised server error."""
    if kind == FrameKind.ERROR:
        raise payload.to_exception()
    if kind != expected:
        raise WireFormatError(
            f"server answered {kind.name} where {expected.name} was expected"
        )
    return payload


def _stamped(reply: protocol.RunReply) -> StampedResult:
    return StampedResult(
        relation=reply.relation, metrics=reply.metrics, stamp=reply.stamp
    )


def _next_seq(counter: "itertools.count") -> int:
    """The next wire seq: 32 bits, never 0 (0 is the server's error filler).

    The header field is a u32; an unmasked Python int would stop matching
    replies after 2**32 requests on one long-lived connection.
    """
    seq = next(counter) & 0xFFFFFFFF
    if seq == 0:
        seq = next(counter) & 0xFFFFFFFF
    return seq


def _reassemble_chunks(
    slices: Dict[int, bytes], total: int, seq: int, max_frame: int
) -> Tuple[FrameKind, Any]:
    """Decode the frame carried by a complete set of RESULT_CHUNK slices."""
    if sorted(slices) != list(range(total)):
        raise WireFormatError("chunked reply with missing or duplicate slices")
    inner, inner_seq = protocol.decode(
        b"".join(slices[i] for i in range(total)), max_frame
    )
    if inner_seq != seq:
        raise WireFormatError(
            f"chunked reply reassembled with seq {inner_seq} "
            f"(its slices carried {seq})"
        )
    return protocol.kind_of(inner), inner


def _read_reply_sync(sock: socket.socket, max_frame: int) -> Tuple[FrameKind, int, Any]:
    """Read one logical reply from a blocking socket, reassembling chunks.

    The server holds its write lock across all slices of one chunked reply,
    so they arrive consecutively; anything interleaved means the stream is
    broken.
    """
    kind, seq, payload = protocol.read_frame(sock, max_frame)
    if kind != FrameKind.RESULT_CHUNK:
        return kind, seq, payload
    slices = {payload.index: payload.payload}
    total = payload.total
    while len(slices) < total:
        next_kind, next_seq, chunk = protocol.read_frame(sock, max_frame)
        if next_kind != FrameKind.RESULT_CHUNK or next_seq != seq:
            raise WireFormatError(
                f"a {next_kind.name} frame interleaved inside a chunked reply"
            )
        slices[chunk.index] = chunk.payload
    inner_kind, inner = _reassemble_chunks(slices, total, seq, max_frame)
    return inner_kind, seq, inner


class _ClientCore:
    """The request-building surface shared by both clients.

    Every public method is written once: it builds its request frame, hands
    it to the transport hook :meth:`_req`, and post-processes the reply
    through :meth:`_map`.  The blocking client implements ``_req`` as a
    synchronous round-trip and ``_map`` as direct application; the asyncio
    client returns a coroutine from ``_req`` and chains ``fn`` onto it in
    ``_map``, so the one definition yields both the blocking and the
    awaitable surface.

    ``versions`` is what the client announces in ``HELLO``; after the
    handshake the connection speaks the highest version both sides listed
    (``versions=(1,)`` pins a connection to the legacy pickle protocol).
    """

    def __init__(self, max_frame: int, versions: Tuple[int, ...]) -> None:
        bad = set(versions) - protocol.SUPPORTED_VERSIONS
        if bad or not versions:
            raise ReproError(
                f"cannot announce protocol versions {tuple(versions)!r} "
                f"(this build speaks {sorted(protocol.SUPPORTED_VERSIONS)})"
            )
        self._max_frame = max_frame
        self._announce: Tuple[int, ...] = tuple(sorted(set(versions)))
        self._version = protocol.PROTOCOL_V1
        self._seq = itertools.count(1)

    # ------------------------------------------------------------------
    # transport hooks (subclass responsibility)
    # ------------------------------------------------------------------
    def _req(self, kind: FrameKind, frame: Any, expected: FrameKind) -> Any:
        raise NotImplementedError

    def _map(self, pending: Any, fn: Callable[[Any], Any]) -> Any:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # negotiation
    # ------------------------------------------------------------------
    @property
    def protocol_version(self) -> int:
        """The negotiated wire version (1 until :meth:`hello` upgrades it)."""
        return self._version

    def _negotiated(self, reply: protocol.Hello) -> protocol.Hello:
        common = (
            set(reply.versions) & set(self._announce) & protocol.SUPPORTED_VERSIONS
        )
        if common:
            self._version = max(common)
        return reply

    def hello(self, role: str = "client", token: bytes = b"") -> Any:
        """Handshake: announce our versions, adopt the best both sides speak.

        Returns/resolves to the server's :class:`~repro.net.protocol.Hello`
        (doubling as a liveness probe).  An old server that never heard of
        ``versions`` announces ``(1,)`` and the connection stays at v1.
        """
        return self._map(
            self._req(
                FrameKind.HELLO,
                protocol.Hello(role=role, token=token, versions=self._announce),
                FrameKind.HELLO,
            ),
            self._negotiated,
        )

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def run(
        self,
        query: Pattern,
        algorithm: str = "auto",
        config: Optional[DgpmConfig] = None,
    ) -> Any:
        """Evaluate one query; returns/resolves to the stamped answer."""
        return self._map(
            self._req(
                FrameKind.RUN,
                protocol.RunRequest(query=query, algorithm=algorithm, config=config),
                FrameKind.RESULT,
            ),
            _stamped,
        )

    def stats(self) -> Any:
        """The server's serving counters, stamp, and identity facts."""
        return self._req(
            FrameKind.STATS, protocol.StatsRequest(), FrameKind.STATS_REPLY
        )

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def apply(self, updates: Sequence[OpLike]) -> Any:
        """Apply a mutation batch (atomic to readers); see
        :meth:`ConcurrentSessionServer.apply`.

        Ops are :class:`~repro.graph.mutations.MutationOp` instances; the
        legacy bare-tuple spelling still works, with a client-side
        :class:`DeprecationWarning`.
        """
        ops = tuple(normalize_ops(updates))
        return self._map(
            self._req(
                FrameKind.MUTATE, protocol.MutateRequest(ops=ops), FrameKind.OUTCOMES
            ),
            lambda reply: list(reply.outcomes),
        )

    def delete_edge(self, u: Node, v: Node) -> Any:
        """Delete edge ``(u, v)``; completes once applied, with its stamp."""
        return self._map(self.apply([DeleteEdge(u, v)]), lambda outcomes: outcomes[0])

    def insert_edge(self, u: Node, v: Node) -> Any:
        """Insert edge ``(u, v)``; completes once applied, with its stamp."""
        return self._map(self.apply([InsertEdge(u, v)]), lambda outcomes: outcomes[0])

    def add_node(self, node: Node, label: Label, fid: Optional[int] = None) -> Any:
        """Add an isolated labeled node; completes once applied."""
        return self._map(
            self.apply([AddNode(node, label, fid)]), lambda outcomes: outcomes[0]
        )

    def remove_node(self, node: Node) -> Any:
        """Remove ``node`` and every incident edge; completes once applied."""
        return self._map(self.apply([RemoveNode(node)]), lambda outcomes: outcomes[0])


class SessionClient(_ClientCore):
    """A blocking client for one :class:`NetworkSessionServer`.

    Pass ``reconnect=RetryPolicy(...)`` to opt into bounded redial: a broken
    stream (timeout, server restart, mid-exchange disconnect) still fails
    the request it struck -- its reply can no longer be trusted to pair up
    -- but instead of marking the client permanently broken, the *next*
    request dials a fresh connection under the policy's backoff schedule.
    Without a policy, any stream break closes the client for good (the
    original conservative semantics).  The negotiated protocol version
    survives a redial: the server treats every frame by its own header.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: Optional[float] = None,
        max_frame: int = DEFAULT_MAX_FRAME,
        reconnect: Optional[RetryPolicy] = None,
        versions: Tuple[int, ...] = DEFAULT_VERSIONS,
    ) -> None:
        super().__init__(max_frame, versions)
        self._host = host
        self._port = port
        self._timeout = timeout
        self._reconnect = reconnect
        self._sock: Optional[socket.socket] = self._dial()
        self._lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    def _dial(self) -> socket.socket:
        try:
            sock = socket.create_connection(
                (self._host, self._port), timeout=self._timeout
            )
        except OSError as exc:
            raise TransportError(
                f"cannot reach server at {self._host}:{self._port}: {exc}"
            ) from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _broken(self, message: str) -> TransportError:
        """Drop the connection and build the error to raise.

        A timeout or mid-exchange disconnect leaves the byte stream
        desynchronized (the late reply may still arrive and would pair with
        the *next* request), so the socket is never reused.  Without a
        ``reconnect`` policy the whole client is closed for good; with one,
        only the socket dies and the next request redials.
        """
        if self._reconnect is None:
            self._closed = True
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - best-effort teardown
                pass
            self._sock = None
        return TransportError(message)

    def _redial_locked(self) -> None:
        """Bounded reconnect (fresh socket, fresh stream) under the policy."""
        if self._reconnect is None:  # pragma: no cover - guarded by _broken
            raise TransportError("the client is closed")
        last: Optional[BaseException] = None
        for delay in self._reconnect.delays():
            try:
                self._sock = self._dial()
                return
            except TransportError as exc:
                last = exc
                time.sleep(delay)
        raise TransportError(
            f"reconnect to {self._host}:{self._port} failed after "
            f"{self._reconnect.attempts} attempts: {last}"
        ) from last

    def _map(self, pending: Any, fn: Callable[[Any], Any]) -> Any:
        return fn(pending)

    def _req(self, kind: FrameKind, frame: Any, expected: FrameKind) -> Any:
        with self._lock:
            if self._closed:
                raise TransportError("the client is closed")
            if self._sock is None:
                self._redial_locked()
            seq = _next_seq(self._seq)
            try:
                protocol.write_frame(
                    self._sock,
                    kind,
                    frame,
                    seq=seq,
                    max_frame=self._max_frame,
                    version=self._version,
                )
                reply_kind, reply_seq, payload = _read_reply_sync(
                    self._sock, self._max_frame
                )
            except EOFError as exc:
                raise self._broken("server closed the connection") from exc
            except (ConnectionError, socket.timeout) as exc:
                raise self._broken(f"connection to server lost: {exc}") from exc
            except (TransportError, WireFormatError) as exc:
                # Mid-frame disconnects and framing garbage also leave the
                # stream unusable; keep the original error, refuse reuse.
                self._broken(str(exc))
                raise
            if reply_seq != seq:
                raise self._broken(
                    f"reply seq {reply_seq} does not match request seq {seq}; "
                    "the stream is desynchronized"
                )
        return _unwrap(reply_kind, payload, expected)

    # ------------------------------------------------------------------
    def run_many(
        self,
        queries: Iterable[Pattern],
        algorithm: str = "auto",
        config: Optional[DgpmConfig] = None,
    ) -> List[StampedResult]:
        """Evaluate queries one after another (one connection, in order)."""
        return [self.run(q, algorithm=algorithm, config=config) for q in queries]

    def subscribe(
        self,
        query: Pattern,
        algorithm: str = "auto",
        config: Optional[DgpmConfig] = None,
        buffer: int = 256,
    ) -> "Subscription":
        """Open a standing query; returns a :class:`Subscription` iterator.

        The subscription runs on its own dedicated connection (this
        client's request/reply stream stays strictly paired), opened
        against the same server.  Requires protocol v2: if this client has
        not negotiated yet, a ``HELLO`` handshake runs first, and a server
        that only speaks v1 raises :class:`TransportError`.
        """
        if self._version == protocol.PROTOCOL_V1:
            self.hello()
            if self._version == protocol.PROTOCOL_V1:
                raise TransportError(
                    "the server does not speak protocol v2; "
                    "standing queries are unavailable"
                )
        return Subscription(
            self._host,
            self._port,
            query,
            algorithm=algorithm,
            config=config,
            buffer=buffer,
            timeout=self._timeout,
            max_frame=self._max_frame,
        )

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Say goodbye and drop the connection (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._sock is None:  # broken earlier, awaiting a redial
                return
            try:
                protocol.write_frame(
                    self._sock, FrameKind.BYE, protocol.Bye(), seq=_next_seq(self._seq)
                )
            except OSError:
                pass
            self._sock.close()
            self._sock = None

    def __enter__(self) -> "SessionClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class Subscription:
    """A standing query on a dedicated connection: iterate to receive deltas.

    Yields :class:`~repro.net.protocol.PushDelta` frames in stamp order.
    ``sub_id``, ``stamp``, and ``relation`` describe the baseline: the full
    match relation at registration time, which the deltas apply on top of.

    Iteration ends when :meth:`close` is called, when the server hangs up,
    or after yielding a ``lapsed=True`` delta (the server dropped the
    subscription because this consumer fell further behind than its
    declared ``buffer``; re-subscribe for a fresh baseline).
    """

    def __init__(
        self,
        host: str,
        port: int,
        query: Pattern,
        algorithm: str,
        config: Optional[DgpmConfig],
        buffer: int,
        timeout: Optional[float],
        max_frame: int,
    ) -> None:
        self._max_frame = max_frame
        self._queue: "queue_mod.Queue[Optional[protocol.PushDelta]]" = queue_mod.Queue(
            maxsize=max(1, buffer)
        )
        self._closed = False
        self._seq = itertools.count(2)
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise TransportError(
                f"cannot reach server at {host}:{port}: {exc}"
            ) from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        try:
            protocol.write_frame(
                sock,
                FrameKind.SUBSCRIBE,
                protocol.SubscribeRequest(
                    query=query, algorithm=algorithm, config=config, buffer=buffer
                ),
                seq=1,
                max_frame=max_frame,
                version=protocol.PROTOCOL_VERSION,
            )
            kind, _seq, payload = _read_reply_sync(sock, max_frame)
            reply = _unwrap(kind, payload, FrameKind.SUBSCRIBED)
        except BaseException:
            with contextlib.suppress(OSError):
                sock.close()
            raise
        #: the subscription id (quote it to :meth:`close`'s UNSUBSCRIBE)
        self.sub_id: int = reply.sub_id
        #: the stamp the baseline relation describes
        self.stamp: int = reply.stamp
        #: the full match relation at ``stamp``; deltas apply on top of it
        self.relation = reply.relation
        self._reader = threading.Thread(
            target=self._read_loop, daemon=True, name="repro-subscription"
        )
        self._reader.start()

    def _read_loop(self) -> None:
        try:
            while True:
                kind, _seq, payload = _read_reply_sync(self._sock, self._max_frame)
                if kind == FrameKind.PUSH:
                    self._put(payload)
                    if payload.lapsed:
                        break
                elif kind == FrameKind.SUBSCRIBED:
                    break  # the UNSUBSCRIBE ack: a clean goodbye
                else:
                    break  # ERROR (or garbage): nothing more will arrive
        except (EOFError, OSError, TransportError, WireFormatError):
            pass
        finally:
            self._put(None)

    def _put(self, item: Optional[protocol.PushDelta]) -> None:
        # Bounded blocking put that stays responsive to close(): TCP
        # backpressure (and eventually the server-side lapse) handles a
        # consumer that stops draining.
        while True:
            try:
                self._queue.put(item, timeout=0.1)
                return
            except queue_mod.Full:
                if self._closed:
                    return

    def __iter__(self) -> "Subscription":
        return self

    def __next__(self) -> protocol.PushDelta:
        item = self._queue.get()
        if item is None:
            raise StopIteration
        return item

    def close(self) -> None:
        """Unsubscribe, say goodbye, and drop the connection (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            protocol.write_frame(
                self._sock,
                FrameKind.UNSUBSCRIBE,
                protocol.UnsubscribeRequest(sub_id=self.sub_id),
                seq=_next_seq(self._seq),
                max_frame=self._max_frame,
                version=protocol.PROTOCOL_VERSION,
            )
            protocol.write_frame(
                self._sock,
                FrameKind.BYE,
                protocol.Bye(),
                seq=_next_seq(self._seq),
                max_frame=self._max_frame,
                version=protocol.PROTOCOL_VERSION,
            )
        except OSError:
            pass
        # The reader exits on the UNSUBSCRIBE ack or the server's EOF; else
        # shutdown() wakes it -- close() alone interrupts no blocked recv().
        self._reader.join(timeout=5.0)
        with contextlib.suppress(OSError):
            self._sock.shutdown(socket.SHUT_RDWR)
        self._sock.close()
        self._reader.join(timeout=5.0)

    def __enter__(self) -> "Subscription":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class AsyncSessionClient(_ClientCore):
    """A pipelining asyncio client: many requests in flight on one socket.

    Build with :meth:`connect` (or the module-level :func:`connect`
    factory); every request coroutine writes its frame and awaits a future
    keyed by the frame ``seq``, which the background reader resolves as
    replies arrive (in whatever order the server finishes them).
    ``asyncio.gather(*[client.run(q) for q in queries])`` therefore
    overlaps all the queries on a single connection.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        max_frame: int = DEFAULT_MAX_FRAME,
        versions: Tuple[int, ...] = DEFAULT_VERSIONS,
    ) -> None:
        super().__init__(max_frame, versions)
        self._reader = reader
        self._writer = writer
        self._pending: Dict[int, asyncio.Future] = {}
        self._chunks: Dict[int, Dict[int, bytes]] = {}
        self._chunk_totals: Dict[int, int] = {}
        self._subs: Dict[int, "AsyncSubscription"] = {}
        self._write_lock = asyncio.Lock()
        self._closed = False
        self._broken: Optional[BaseException] = None
        self._reader_task = asyncio.get_running_loop().create_task(self._read_loop())

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        max_frame: int = DEFAULT_MAX_FRAME,
        versions: Tuple[int, ...] = DEFAULT_VERSIONS,
    ) -> "AsyncSessionClient":
        try:
            reader, writer = await asyncio.open_connection(host, port)
        except OSError as exc:
            raise TransportError(
                f"cannot reach server at {host}:{port}: {exc}"
            ) from exc
        return cls(reader, writer, max_frame=max_frame, versions=versions)

    # ------------------------------------------------------------------
    async def _read_loop(self) -> None:
        try:
            while True:
                kind, seq, payload = await protocol.read_frame_async(
                    self._reader, self._max_frame
                )
                if kind == FrameKind.RESULT_CHUNK:
                    slices = self._chunks.setdefault(seq, {})
                    slices[payload.index] = payload.payload
                    self._chunk_totals[seq] = payload.total
                    if len(slices) < payload.total:
                        continue
                    del self._chunks[seq]
                    total = self._chunk_totals.pop(seq)
                    kind, payload = _reassemble_chunks(
                        slices, total, seq, self._max_frame
                    )
                if kind == FrameKind.PUSH:
                    sub = self._subs.get(seq)
                    if sub is not None:
                        sub._deliver(payload)
                    continue
                waiter = self._pending.pop(seq, None)
                if waiter is not None and not waiter.done():
                    waiter.set_result((kind, payload))
        except BaseException as exc:  # EOF, cancellation, wire garbage
            if isinstance(exc, EOFError):
                exc = TransportError("server closed the connection")
            self._broken = exc
            for waiter in self._pending.values():
                if not waiter.done():
                    waiter.set_exception(
                        TransportError(f"connection to server lost: {exc}")
                    )
            self._pending.clear()
            for sub in list(self._subs.values()):
                sub._connection_lost()
            self._subs.clear()
            if isinstance(exc, asyncio.CancelledError):
                raise

    async def _send_locked(self, data: bytes, seq: int) -> None:
        try:
            async with self._write_lock:
                self._writer.write(data)
                await self._writer.drain()
        except (ConnectionError, OSError) as exc:
            self._pending.pop(seq, None)
            raise TransportError(f"connection to server lost: {exc}") from exc

    async def _round_trip(self, kind: FrameKind, frame: Any, seq: int) -> Tuple:
        if self._closed:
            raise TransportError("the client is closed")
        if self._broken is not None:
            raise TransportError(f"connection to server lost: {self._broken}")
        waiter = asyncio.get_running_loop().create_future()
        self._pending[seq] = waiter
        data = protocol.encode_payload(
            kind, frame, seq=seq, max_frame=self._max_frame, version=self._version
        )
        await self._send_locked(data, seq)
        return await waiter

    async def _req(self, kind: FrameKind, frame: Any, expected: FrameKind) -> Any:
        reply_kind, payload = await self._round_trip(kind, frame, _next_seq(self._seq))
        return _unwrap(reply_kind, payload, expected)

    def _map(self, pending: Any, fn: Callable[[Any], Any]) -> Any:
        async def chained() -> Any:
            return fn(await pending)

        return chained()

    # ------------------------------------------------------------------
    async def run_many(
        self,
        queries: Iterable[Pattern],
        algorithm: str = "auto",
        config: Optional[DgpmConfig] = None,
    ) -> List[StampedResult]:
        """Evaluate queries concurrently (pipelined); results in input order."""
        return list(
            await asyncio.gather(
                *[self.run(q, algorithm=algorithm, config=config) for q in queries]
            )
        )

    async def subscribe(
        self,
        query: Pattern,
        algorithm: str = "auto",
        config: Optional[DgpmConfig] = None,
        buffer: int = 256,
    ) -> "AsyncSubscription":
        """Open a standing query on this connection; returns an async
        iterator of :class:`~repro.net.protocol.PushDelta`.

        PUSH frames share the pipelined connection (routed by the
        ``SUBSCRIBE`` frame's ``seq``), so any number of subscriptions and
        requests coexist.  Requires protocol v2: if this client has not
        negotiated yet, a ``HELLO`` handshake runs first, and a server
        that only speaks v1 raises :class:`TransportError`.
        """
        if self._version == protocol.PROTOCOL_V1:
            await self.hello()
            if self._version == protocol.PROTOCOL_V1:
                raise TransportError(
                    "the server does not speak protocol v2; "
                    "standing queries are unavailable"
                )
        seq = _next_seq(self._seq)
        sub = AsyncSubscription(self, seq, buffer)
        # Registered before the ack is awaited: the first PUSH may win the
        # race with the SUBSCRIBED reply on the server's write lock.
        self._subs[seq] = sub
        try:
            reply_kind, payload = await self._round_trip(
                FrameKind.SUBSCRIBE,
                protocol.SubscribeRequest(
                    query=query, algorithm=algorithm, config=config, buffer=buffer
                ),
                seq,
            )
            reply = _unwrap(reply_kind, payload, FrameKind.SUBSCRIBED)
        except BaseException:
            self._subs.pop(seq, None)
            raise
        sub._opened(reply)
        return sub

    async def _unsubscribe(self, sub_id: int) -> None:
        await self._req(
            FrameKind.UNSUBSCRIBE,
            protocol.UnsubscribeRequest(sub_id=sub_id),
            FrameKind.SUBSCRIBED,
        )

    # ------------------------------------------------------------------
    async def aclose(self) -> None:
        """Say goodbye, stop the reader, drop the connection (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for sub in list(self._subs.values()):
            sub._connection_lost()
        self._subs.clear()
        try:
            async with self._write_lock:
                self._writer.write(
                    protocol.encode_payload(
                        FrameKind.BYE, protocol.Bye(), seq=_next_seq(self._seq)
                    )
                )
                await self._writer.drain()
        except (ConnectionError, OSError):
            pass
        self._reader_task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await self._reader_task
        self._writer.close()
        with contextlib.suppress(Exception):
            await self._writer.wait_closed()

    async def __aenter__(self) -> "AsyncSessionClient":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()


class AsyncSubscription:
    """A standing query on a pipelined connection: ``async for`` the deltas.

    Yields :class:`~repro.net.protocol.PushDelta` frames in stamp order;
    ``sub_id``, ``stamp``, and ``relation`` describe the baseline the
    deltas apply on top of.

    Deltas buffer locally up to ``buffer``; a consumer that falls further
    behind lapses the subscription *locally* (a final ``lapsed=True`` delta
    is yielded and an UNSUBSCRIBE is fired off) -- same contract as the
    server-side lapse, decided by whichever side's buffer fills first.
    Iteration ends after a lapse, after :meth:`aclose`, or when the
    connection is lost (undelivered deltas are dropped: a gapped stream
    cannot be trusted).
    """

    def __init__(self, client: AsyncSessionClient, seq: int, buffer: int) -> None:
        self._client = client
        self._seq = seq
        self._queue: "asyncio.Queue[Optional[protocol.PushDelta]]" = asyncio.Queue(
            maxsize=max(1, buffer)
        )
        self._finished = False
        self._detached = False
        self.sub_id: int = -1
        self.stamp: int = -1
        self.relation = None

    def _opened(self, reply: protocol.SubscribeReply) -> None:
        self.sub_id = reply.sub_id
        self.stamp = reply.stamp
        self.relation = reply.relation

    # -- reader-task side ----------------------------------------------
    def _drain(self) -> None:
        while True:
            try:
                self._queue.get_nowait()
            except asyncio.QueueEmpty:
                return

    def _deliver(self, delta: protocol.PushDelta) -> None:
        if self._detached:
            return
        try:
            self._queue.put_nowait(delta)
        except asyncio.QueueFull:
            # Local lapse: pending deltas are void (the marker says so),
            # which frees the slot for it; tell the server to stop pushing.
            self._detached = True
            self._client._subs.pop(self._seq, None)
            self._drain()
            self._queue.put_nowait(
                protocol.PushDelta(sub_id=self.sub_id, stamp=delta.stamp, lapsed=True)
            )
            asyncio.get_running_loop().create_task(self._fire_unsubscribe())

    def _connection_lost(self) -> None:
        if self._detached:
            return
        self._detached = True
        self._drain()
        self._queue.put_nowait(None)

    async def _fire_unsubscribe(self) -> None:
        with contextlib.suppress(Exception):
            await self._client._unsubscribe(self.sub_id)

    # -- consumer side -------------------------------------------------
    def __aiter__(self) -> "AsyncSubscription":
        return self

    async def __anext__(self) -> protocol.PushDelta:
        if self._finished and self._queue.empty():
            raise StopAsyncIteration
        item = await self._queue.get()
        if item is None:
            self._finished = True
            raise StopAsyncIteration
        if item.lapsed:
            self._finished = True
        return item

    async def aclose(self) -> None:
        """Unsubscribe and end iteration (idempotent)."""
        if self._finished and self._detached:
            return
        self._finished = True
        already_detached = self._detached
        self._detached = True
        self._client._subs.pop(self._seq, None)
        self._drain()
        with contextlib.suppress(asyncio.QueueFull):
            self._queue.put_nowait(None)
        if not already_detached:
            with contextlib.suppress(Exception):
                await self._client._unsubscribe(self.sub_id)

    async def __aenter__(self) -> "AsyncSubscription":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()


# ----------------------------------------------------------------------
# the one entry point
# ----------------------------------------------------------------------
Address = Union[Tuple[str, int], str]


def _parse_addr(addr: Address) -> Tuple[str, int]:
    if isinstance(addr, str):
        host, sep, port = addr.rpartition(":")
        if not sep or not host:
            raise ReproError(f"cannot parse address {addr!r} (want 'host:port')")
        try:
            return host, int(port)
        except ValueError:
            raise ReproError(
                f"cannot parse address {addr!r} (want 'host:port')"
            ) from None
    host, port = addr
    return host, int(port)


def connect(
    addr: Address,
    *,
    async_: bool = False,
    reconnect: Optional[RetryPolicy] = None,
    timeout: Optional[float] = None,
    max_frame: int = DEFAULT_MAX_FRAME,
    versions: Tuple[int, ...] = DEFAULT_VERSIONS,
) -> Any:
    """Dial a session server and perform the ``HELLO`` handshake.

    ``addr`` is a ``(host, port)`` pair or a ``"host:port"`` string.  With
    ``async_=False`` (the default) returns a ready :class:`SessionClient`;
    with ``async_=True`` returns an *awaitable* resolving to an
    :class:`AsyncSessionClient` (await it inside a running loop).  Either
    way the handshake has already negotiated the protocol version --
    ``client.protocol_version`` is 2 against a current server, and
    ``versions=(1,)`` pins the connection to the legacy pickle protocol.

    ``reconnect`` (a :class:`~repro.runtime.transport.RetryPolicy`) opts
    the blocking client into bounded redial; the pipelined asyncio client
    does not support it.
    """
    host, port = _parse_addr(addr)
    if async_:
        if reconnect is not None:
            raise ReproError("reconnect policies apply to the blocking client only")
        if timeout is not None:
            raise ReproError(
                "timeout applies to the blocking client only "
                "(use asyncio.wait_for around awaits)"
            )
        return _connect_async(host, port, max_frame=max_frame, versions=versions)
    client = SessionClient(
        host,
        port,
        timeout=timeout,
        max_frame=max_frame,
        reconnect=reconnect,
        versions=versions,
    )
    try:
        client.hello()
    except BaseException:
        client.close()
        raise
    return client


async def _connect_async(
    host: str, port: int, max_frame: int, versions: Tuple[int, ...]
) -> AsyncSessionClient:
    client = await AsyncSessionClient.connect(
        host, port, max_frame=max_frame, versions=versions
    )
    try:
        await client.hello()
    except BaseException:
        await client.aclose()
        raise
    return client
