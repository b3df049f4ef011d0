"""Clients for the network ingress: blocking and asyncio, one protocol core.

Both clients return the same objects an in-process caller gets from
:class:`~repro.session.concurrent.ConcurrentSessionServer`:
:class:`StampedResult` for queries and :class:`StampedOutcome` lists for
mutations, so parity checks and stamp reasoning are written once whichever
side of the socket the caller is on.  The one write call is :meth:`apply`,
a batch of typed :class:`~repro.graph.mutations.MutationOp` values.

Server-side exceptions arrive in ``ERROR`` frames and are re-raised as
their original type (:class:`GraphError`, :class:`MutationBatchError`, ...)
when that type is one of :mod:`repro.errors`; any other server-side
exception surfaces as a :class:`~repro.errors.TransportError` naming the
original class and carrying its message.  Nothing a server sends is ever
unpickled: both clients parse frames only through
:class:`repro.net.protocol.Connection`, whose bodies are the safe codec's.

A request names a query and an algorithm, never a config: every query runs
under the config the server's session was built with
(``ConcurrentSessionServer(config=)``).

The request-building surface lives once, in :class:`_ClientCore`; the two
clients differ only in transport style:

* :class:`SessionClient` -- blocking, one request in flight at a time
  (thread-safe: calls serialize on an internal lock).  Open several clients
  for concurrency; each costs one TCP connection.
* :class:`AsyncSessionClient` -- asyncio, *pipelined*: any number of
  coroutines can have requests in flight on one connection; a background
  reader task keys replies to waiters by the frame ``seq``.

:func:`connect` is the one entry point for both: it dials, probes the
server with ``HELLO``, and returns the ready client.

Standing queries arrive through :meth:`subscribe`: the blocking client
hands back a :class:`Subscription` (an iterator of
:class:`~repro.net.protocol.PushDelta` that reads its own dedicated
connection), the asyncio client an :class:`AsyncSubscription` (an async
iterator sharing the pipelined connection).

>>> with connect((host, port)) as client:
...     result = client.run(query)            # StampedResult
...     client.apply([DeleteEdge(u, v)])     # [StampedOutcome], stamp advanced
...     client.run(query).stamp
1
"""

from __future__ import annotations

import asyncio
import contextlib
import socket
import threading
import time
from collections import deque
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ReproError, TransportError, WireFormatError
from repro.graph.mutations import MutationOp, normalize_ops
from repro.graph.pattern import Pattern
from repro.net import protocol
from repro.net.protocol import DEFAULT_MAX_FRAME, READ_SIZE, Event, FrameKind
from repro.runtime.transport import RetryPolicy
from repro.session.concurrent import StampedResult


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


class FrameSocket:
    """The blocking driver of the wire: one socket, the
    :class:`~repro.net.protocol.Connection` that frames it, and the frames
    already read but not yet handed out.  The blocking client and its
    subscriptions are this, plus policy."""

    def __init__(self, sock: socket.socket, max_frame: int = DEFAULT_MAX_FRAME) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        self.conn = protocol.Connection(max_frame)
        self._events: Deque[Event] = deque()

    def send(self, frame: object, seq: int = 0) -> None:
        self.sock.sendall(self.conn.send(frame, seq))

    def recv(self) -> Event:
        """The next frame; :class:`EOFError` once the peer has closed."""
        while not self._events:
            self._events.extend(self.conn.receive(self.sock.recv(READ_SIZE)))
        return self._events.popleft()

    @property
    def drained(self) -> bool:
        """Nothing has been read past the frames :meth:`recv` handed out."""
        return not self._events and not self.conn.buffered

    def close(self) -> None:
        # shutdown() wakes a recv() blocked on another thread; close() alone
        # interrupts nothing.
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


def _dial(
    host: str, port: int, timeout: Optional[float], max_frame: int
) -> FrameSocket:
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise TransportError(f"cannot reach server at {host}:{port}: {exc}") from exc
    return FrameSocket(sock, max_frame=max_frame)


def _same(reply: Any) -> Any:
    return reply


class _ClientCore:
    """The request-building surface shared by both clients.

    Every public method is written once: it builds its request frame and
    hands it to the transport hook :meth:`_req` together with the kind the
    reply must have and a function to post-process it with.  The blocking
    client's ``_req`` is a synchronous round-trip, the asyncio client's a
    coroutine, so the one definition yields both the blocking and the
    awaitable surface.
    """

    def _req(
        self, frame: Any, expected: FrameKind, then: Callable[[Any], Any] = _same
    ) -> Any:
        """Send ``frame``; return/resolve to ``then(reply)`` (subclass hook)."""
        raise NotImplementedError

    def hello(self, role: str = "client") -> Any:
        """Identity/liveness probe: returns/resolves to the server's
        :class:`~repro.net.protocol.Hello`.  Optional -- every request
        works on a connection that never said it."""
        return self._req(protocol.Hello(role=role), FrameKind.HELLO)

    def run(self, query: Pattern, algorithm: str = "auto") -> Any:
        """Evaluate one query under the server's config; returns/resolves to
        the stamped answer."""
        request = protocol.RunRequest(query=query, algorithm=algorithm)
        return self._req(request, FrameKind.RESULT, _stamped)

    def stats(self) -> Any:
        """The server's serving counters, stamp, and identity facts."""
        return self._req(protocol.StatsRequest(), FrameKind.STATS_REPLY)

    def apply(self, updates: Sequence[MutationOp]) -> Any:
        """Apply a mutation batch (atomic to readers), the one write call;
        returns/resolves to one stamped outcome per update.  See
        :meth:`ConcurrentSessionServer.apply`."""
        request = protocol.MutateRequest(ops=tuple(normalize_ops(updates)))
        return self._req(
            request, FrameKind.OUTCOMES, lambda reply: list(reply.outcomes)
        )


class SessionClient(_ClientCore):
    """A blocking client for one :class:`NetworkSessionServer`.

    ``timeout`` bounds the dial and every request round-trip.  Pass
    ``reconnect=RetryPolicy(...)`` to opt into bounded redial: a broken
    stream (timeout, server restart, mid-exchange disconnect) still fails
    the request it struck -- its reply can no longer be trusted to pair up
    -- but instead of marking the client permanently broken, the *next*
    request dials a fresh connection under the policy's backoff schedule.
    Without a policy, any stream break closes the client for good (the
    original conservative semantics).
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: Optional[float] = None,
        max_frame: int = DEFAULT_MAX_FRAME,
        reconnect: Optional[RetryPolicy] = None,
    ) -> None:
        self._host = host
        self._port = port
        self._timeout = timeout
        self._max_frame = max_frame
        self._reconnect = reconnect
        self._link: Optional[FrameSocket] = _dial(host, port, timeout, max_frame)
        self._lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
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
        if self._link is not None:
            self._link.close()
            self._link = None
        return TransportError(message)

    def _redial_locked(self) -> FrameSocket:
        """Bounded reconnect (fresh socket, fresh stream) under the policy."""
        if self._reconnect is None:  # pragma: no cover - guarded by _broken
            raise TransportError("the client is closed")
        last: Optional[BaseException] = None
        for tried, delay in enumerate(self._reconnect.delays(), 1):
            try:
                self._link = _dial(
                    self._host, self._port, self._timeout, self._max_frame
                )
                return self._link
            except TransportError as exc:
                last = exc
                if tried < self._reconnect.attempts:
                    time.sleep(delay)
        raise TransportError(
            f"reconnect to {self._host}:{self._port} failed after "
            f"{self._reconnect.attempts} attempts: {last}"
        ) from last

    def _req(
        self, frame: Any, expected: FrameKind, then: Callable[[Any], Any] = _same
    ) -> Any:
        with self._lock:
            if self._closed:
                raise TransportError("the client is closed")
            link = self._link if self._link is not None else self._redial_locked()
            seq = link.conn.next_seq()
            try:
                link.send(frame, seq)
                reply_kind, reply_seq, payload = link.recv()
            except EOFError as exc:
                raise self._broken("server closed the connection") from exc
            except (ConnectionError, socket.timeout) as exc:
                raise self._broken(f"connection to server lost: {exc}") from exc
            except (TransportError, WireFormatError) as exc:
                # Mid-frame disconnects and framing garbage also leave the
                # stream unusable; keep the original error, refuse reuse.
                self._broken(str(exc))
                raise
            if reply_seq != seq or not link.drained:
                raise self._broken(
                    f"request seq {seq} was answered with seq {reply_seq} "
                    "(or with more than one frame); the stream is desynchronized"
                )
        return then(_unwrap(reply_kind, payload, expected))

    # ------------------------------------------------------------------
    def run_many(
        self, queries: Iterable[Pattern], algorithm: str = "auto"
    ) -> List[StampedResult]:
        """Evaluate queries one after another (one connection, in order)."""
        return [self.run(q, algorithm=algorithm) for q in queries]

    def subscribe(
        self, query: Pattern, algorithm: str = "auto", buffer: int = 256
    ) -> "Subscription":
        """Open a standing query; returns a :class:`Subscription` iterator.

        The subscription runs on its own dedicated connection (this
        client's request/reply stream stays strictly paired), opened
        against the same server; this client's ``timeout`` bounds its dial
        and ``SUBSCRIBED`` ack, never the wait for the next delta.
        """
        request = protocol.SubscribeRequest(
            query=query, algorithm=algorithm, buffer=buffer
        )
        return Subscription(
            _dial(self._host, self._port, self._timeout, self._max_frame), request
        )

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Say goodbye and drop the connection (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._link is None:  # broken earlier, awaiting a redial
                return
            with contextlib.suppress(OSError):
                self._link.send(protocol.Bye())
            self._link.close()
            self._link = None

    def __enter__(self) -> "SessionClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class Subscription:
    """A standing query on a dedicated connection: iterate to receive deltas.

    Yields :class:`~repro.net.protocol.PushDelta` frames in stamp order.
    ``sub_id``, ``stamp``, and ``relation`` describe the baseline: the full
    match relation at registration time, which the deltas apply on top of.

    ``__next__`` reads the socket itself and blocks until the next delta,
    however long that takes; a consumer that stops iterating is bounded by
    TCP backpressure and then the server-side lapse.  Iteration ends when
    :meth:`close` is called (from any thread), when the server hangs up, or
    after yielding a ``lapsed=True`` delta (the server dropped the
    subscription because this consumer fell further behind than its
    declared ``buffer``; re-subscribe for a fresh baseline).
    """

    def __init__(self, link: FrameSocket, request: protocol.SubscribeRequest) -> None:
        self._link = link
        self._done = False  # iteration is over
        self._closed = False
        try:
            link.send(request, link.conn.next_seq())
            kind, _seq, payload = link.recv()
            reply = _unwrap(kind, payload, FrameKind.SUBSCRIBED)
            # The dial and the ack were bounded by the client's timeout; a
            # quiet subscription is not a dead one, so the PUSH wait is not.
            link.sock.settimeout(None)
        except BaseException:
            link.close()
            raise
        #: the subscription id (quote it to :meth:`close`'s UNSUBSCRIBE)
        self.sub_id: int = reply.sub_id
        #: the stamp the baseline relation describes
        self.stamp: int = reply.stamp
        #: the full match relation at ``stamp``; deltas apply on top of it
        self.relation = reply.relation

    def __iter__(self) -> "Subscription":
        return self

    def __next__(self) -> protocol.PushDelta:
        if not self._done:
            try:
                kind, _seq, payload = self._link.recv()
            except (EOFError, OSError, TransportError, WireFormatError):
                kind = None  # the server hung up, or close() pulled the socket
            if kind == FrameKind.PUSH:
                self._done = payload.lapsed  # the lapse marker is the last delta
                return payload
            self._done = True  # the UNSUBSCRIBE ack, an ERROR, a dead socket
        raise StopIteration

    def close(self) -> None:
        """Unsubscribe, say goodbye, and drop the connection (idempotent)."""
        if self._closed:
            return
        self._closed = self._done = True
        with contextlib.suppress(OSError):
            self._link.send(
                protocol.UnsubscribeRequest(sub_id=self.sub_id),
                self._link.conn.next_seq(),
            )
            self._link.send(protocol.Bye())
        self._link.close()  # wakes an iterator blocked in recv() elsewhere

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
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._conn = protocol.Connection(max_frame=max_frame)
        self._pending: Dict[int, asyncio.Future] = {}
        self._subs: Dict[int, "AsyncSubscription"] = {}
        self._write_lock = asyncio.Lock()
        self._closed = False
        self._broken: Optional[BaseException] = None
        self._reader_task = asyncio.get_running_loop().create_task(self._read_loop())

    @classmethod
    async def connect(
        cls, host: str, port: int, max_frame: int = DEFAULT_MAX_FRAME
    ) -> "AsyncSessionClient":
        try:
            reader, writer = await asyncio.open_connection(host, port)
        except OSError as exc:
            raise TransportError(
                f"cannot reach server at {host}:{port}: {exc}"
            ) from exc
        return cls(reader, writer, max_frame=max_frame)

    # ------------------------------------------------------------------
    async def _read_loop(self) -> None:
        try:
            while True:
                events = self._conn.receive(await self._reader.read(READ_SIZE))
                for kind, seq, payload in events:
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

    async def _round_trip(self, frame: Any, seq: int) -> Tuple:
        if self._closed:
            raise TransportError("the client is closed")
        if self._broken is not None:
            raise TransportError(f"connection to server lost: {self._broken}")
        waiter = asyncio.get_running_loop().create_future()
        self._pending[seq] = waiter
        try:
            async with self._write_lock:
                self._writer.write(self._conn.send(frame, seq))
                await self._writer.drain()
        except (ConnectionError, OSError) as exc:
            self._pending.pop(seq, None)
            raise TransportError(f"connection to server lost: {exc}") from exc
        return await waiter

    async def _req(
        self, frame: Any, expected: FrameKind, then: Callable[[Any], Any] = _same
    ) -> Any:
        reply_kind, payload = await self._round_trip(frame, self._conn.next_seq())
        return then(_unwrap(reply_kind, payload, expected))

    # ------------------------------------------------------------------
    async def run_many(
        self, queries: Iterable[Pattern], algorithm: str = "auto"
    ) -> List[StampedResult]:
        """Evaluate queries concurrently (pipelined); results in input order."""
        return list(
            await asyncio.gather(*[self.run(q, algorithm=algorithm) for q in queries])
        )

    async def subscribe(
        self, query: Pattern, algorithm: str = "auto", buffer: int = 256
    ) -> "AsyncSubscription":
        """Open a standing query on this connection; returns an async
        iterator of :class:`~repro.net.protocol.PushDelta`.

        PUSH frames share the pipelined connection (routed by the
        ``SUBSCRIBE`` frame's ``seq``), so any number of subscriptions and
        requests coexist.
        """
        seq = self._conn.next_seq()
        sub = AsyncSubscription(self, seq, buffer)
        # Registered before the ack is awaited: the first PUSH may win the
        # race with the SUBSCRIBED reply on the server's write lock.
        self._subs[seq] = sub
        try:
            reply_kind, payload = await self._round_trip(
                protocol.SubscribeRequest(
                    query=query, algorithm=algorithm, buffer=buffer
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
            protocol.UnsubscribeRequest(sub_id=sub_id), FrameKind.SUBSCRIBED
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
                self._writer.write(self._conn.send(protocol.Bye()))
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
) -> Any:
    """Dial a session server and probe it with ``HELLO``.

    ``addr`` is a ``(host, port)`` pair or a ``"host:port"`` string.  With
    ``async_=False`` (the default) returns a ready :class:`SessionClient`;
    with ``async_=True`` returns an *awaitable* resolving to an
    :class:`AsyncSessionClient` (await it inside a running loop).  Either
    way the server has already answered one ``HELLO``, so a peer that is
    not a repro server fails here rather than on the first request.

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
        return _connect_async(host, port, max_frame)
    client = SessionClient(
        host, port, timeout=timeout, max_frame=max_frame, reconnect=reconnect
    )
    try:
        client.hello()
    except BaseException:
        client.close()
        raise
    return client


async def _connect_async(host: str, port: int, max_frame: int) -> AsyncSessionClient:
    client = await AsyncSessionClient.connect(host, port, max_frame=max_frame)
    try:
        await client.hello()
    except BaseException:
        await client.aclose()
        raise
    return client
