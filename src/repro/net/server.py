"""The asyncio front door: many client connections, one serving stack.

:class:`NetworkSessionServer` listens on a TCP socket, speaks the frame
protocol of :mod:`repro.net.protocol`, and feeds every query into
:meth:`ConcurrentSessionServer.submit`.  The asyncio loop answers the cache
hits that need no wait and hands everything else to the serving stack's
thread pool; it never computes a relation and never scans the graph.  A
hit needs no wait when the admission gate has no writer active or waiting,
the fragmentation is not stale (a stale one is re-validated, which is
``O(|G|)``), an ``algorithm="auto"`` dispatch reads only shape facts that
are already decided (a mutation can leave acyclicity or fragment
connectivity to be settled by an ``O(|G|)`` scan), and the key is cached (a
key whose compute is still in flight is a miss).  Queries
therefore keep the whole snapshot/stamp
contract of :mod:`repro.session.concurrent`: they run concurrently under
the read lock, mutation batches apply at quiescent points, and every reply
carries the mutation stamp its answer observed, so a network client gets
exactly the snapshot semantics an in-process caller gets.

Concurrency model
-----------------

* Each connection has one reader coroutine; each request becomes its own
  task, so a connection can pipeline (the asyncio client keys replies by
  the frame ``seq``) and a slow query never blocks a cheap one -- on the
  same connection or across connections.  A connection holds at most
  :data:`MAX_INFLIGHT` such tasks: a frame past the cap is answered at once
  with ``ERROR(Overloaded)`` on its own ``seq``, and the connection stays
  usable.
* A query future that ``submit()`` returns already resolved (a hit) is
  read at once; any other is awaited as an asyncio future.  A mutation
  batch that needs no wait (thread backend, at most
  :data:`~repro.session.concurrent.INLINE_MAX_OPS` updates, nothing holding
  or waiting for the admission gate) is applied on the loop by
  :meth:`ConcurrentSessionServer.apply_if_free`; while it holds the gate no
  hit could be answered anyway, and the op cap bounds how long it holds
  the loop.  Other batches and stats snapshots run
  through the loop's default thread-pool executor.  Besides those hits and
  batches, the event loop only parses frames and encodes replies.
* Per-request failures travel back as ``ERROR`` frames carrying the
  exception's class name and message as codec values; the connection stays
  usable.  Only a framing violation (bad magic, a version other than 2, an
  unknown kind, oversized length...) earns one ``ERROR`` and a hang-up,
  because byte-stream framing cannot be resynchronized; requests from
  earlier reads are still answered before the hang-up, requests that
  arrived in the same read as the violation are not served.
* Bytes become frames in one place, the connection's
  :class:`~repro.net.protocol.Connection`; every body is the safe codec's,
  so nothing arriving on this port is ever unpickled.

Standing queries
----------------

A ``SUBSCRIBE`` frame registers its query with the serving stack's
subscription registry (:meth:`ConcurrentSessionServer.subscribe`).  The
registry fires its callback at each batch's quiescent point (on the thread
applying the batch, often the loop itself, write lock held); the callback
hands the delta to the event loop with ``call_soon_threadsafe``, where it
lands on a bounded per-subscription queue drained by a dedicated writer
task into ``PUSH`` frames that share the ``SUBSCRIBE`` frame's ``seq``
(a batch's ``MUTATE`` reply and its ``PUSH`` frames keep no mutual order).
A subscriber that falls further behind than its declared buffer is
*lapsed*: dropped from the registry, with one final
``PushDelta(lapsed=True)``.  Closing the connection unsubscribes everything
it registered.  Replies whose encoded size exceeds
:data:`CHUNK_SIZE` travel as consecutive ``RESULT_CHUNK`` slices.

Graceful shutdown: :meth:`aclose` stops accepting, lets every in-flight
request finish and flush its reply (bounded by :data:`DRAIN_TIMEOUT`), then
closes connections -- a client that got its request in gets its answer.

For sync callers (tests, benchmarks, examples) :func:`serve_in_thread` runs
the whole ingress on a private event-loop thread and hands back address +
``close()``.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
from typing import Awaitable, Callable, Dict, Optional, Set, Tuple

from repro.errors import Overloaded, ReproError, TransportError, WireFormatError
from repro.net import protocol
from repro.net.protocol import (
    DEFAULT_MAX_FRAME,
    READ_SIZE,
    Connection,
    ErrorReply,
    FrameKind,
)
from repro.session.concurrent import ConcurrentSessionServer

#: replies whose encoded frame exceeds this are sliced into RESULT_CHUNK frames
CHUNK_SIZE = 512 * 1024

#: requests one connection may have in flight; a frame past it is refused
#: with ``Overloaded`` (a pipelining peer cannot queue unbounded tasks)
MAX_INFLIGHT = 1024

#: seconds :meth:`NetworkSessionServer.aclose` waits for in-flight requests
#: to finish before tearing connections down
DRAIN_TIMEOUT = 30.0

#: one connection's ``reply(seq, frame)``: frames it and writes it whole
_Reply = Callable[[int, object], Awaitable[None]]


class _SubState:
    """Server-side per-connection state of one standing query.

    The registry callback (batch thread, write lock held) hands deltas to
    the event loop with ``call_soon_threadsafe``; the loop enqueues them on
    the bounded ``queue`` and a dedicated writer task drains it into PUSH
    frames.  An overflowing queue *lapses* the subscription: it is dropped
    from the registry and the final frame carries ``lapsed=True``.
    """

    __slots__ = ("sub_id", "seq", "queue", "task", "lapsed")

    def __init__(self, seq: int, buffer: int) -> None:
        self.sub_id = -1
        self.seq = seq
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=buffer)
        self.task: Optional[asyncio.Task] = None
        self.lapsed = False


class NetworkSessionServer:
    """Serve one :class:`ConcurrentSessionServer` over TCP.

    Parameters
    ----------
    source:
        An existing :class:`ConcurrentSessionServer` to front (not owned:
        closing the ingress leaves it running), or anything its constructor
        accepts -- a :class:`Fragmentation` or :class:`SimulationSession` --
        in which case the ingress builds and owns the serving stack,
        forwarding ``server_kwargs`` (``backend=``, ``n_workers=``, ...).
    host, port:
        Bind address; port 0 picks an ephemeral port (read
        :attr:`address` after :meth:`start`).
    max_frame:
        Per-frame byte ceiling, both directions.
    """

    def __init__(
        self,
        source,
        host: str = "127.0.0.1",
        port: int = 0,
        max_frame: int = DEFAULT_MAX_FRAME,
        **server_kwargs,
    ) -> None:
        if isinstance(source, ConcurrentSessionServer):
            if server_kwargs:
                raise ReproError(
                    "backend/worker kwargs belong to the ConcurrentSessionServer; "
                    "pass a Fragmentation to have the ingress build one"
                )
            self._server = source
            self._own_server = False
        else:
            self._server = ConcurrentSessionServer(source, **server_kwargs)
            self._own_server = True
        self._host = host
        self._port = port
        self._max_frame = max_frame
        self._aio_server: Optional[asyncio.AbstractServer] = None
        self._requests: Set[asyncio.Task] = set()
        self._writers: Set[asyncio.StreamWriter] = set()
        self._closing = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def server(self) -> ConcurrentSessionServer:
        """The fronted serving stack."""
        return self._server

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        if self._aio_server is None:
            raise ReproError("the ingress is not started")
        return self._aio_server.sockets[0].getsockname()[:2]

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the bound address."""
        if self._aio_server is not None:
            raise ReproError("the ingress is already started")
        self._aio_server = await asyncio.start_server(
            self._handle_connection, self._host, self._port
        )
        return self.address

    async def aclose(self) -> None:
        """Graceful shutdown: stop accepting, drain in-flight work, hang up."""
        if self._closing:
            return
        self._closing = True
        if self._aio_server is not None:
            self._aio_server.close()
            await self._aio_server.wait_closed()
        pending = {t for t in self._requests if not t.done()}
        if pending:
            # Every request that made it past the reader gets DRAIN_TIMEOUT
            # to produce and flush its reply.
            await asyncio.wait(pending, timeout=DRAIN_TIMEOUT)
        for writer in list(self._writers):
            writer.close()
        for writer in list(self._writers):
            with contextlib.suppress(Exception):
                await writer.wait_closed()
        self._writers.clear()
        if self._own_server:
            await asyncio.get_running_loop().run_in_executor(None, self._server.close)

    async def __aenter__(self) -> "NetworkSessionServer":
        try:
            await self.start()
        except BaseException:
            # __aexit__ never runs when __aenter__ raises: an owned serving
            # stack (built in __init__, workers already spawned) must not
            # leak on e.g. a bind failure.
            await self.aclose()
            raise
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    # ------------------------------------------------------------------
    # the per-connection protocol
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        conn = Connection(max_frame=self._max_frame, chunk_size=CHUNK_SIZE)
        write_lock = asyncio.Lock()  # replies from parallel tasks interleave
        inflight: Set[asyncio.Task] = set()
        subs: Dict[int, _SubState] = {}

        async def reply(seq: int, frame: object) -> None:
            # One write per reply: the slices of a chunked reply leave as a
            # unit, so they never interleave with other replies.
            data = conn.send(frame, seq)
            async with write_lock:
                writer.write(data)
                await writer.drain()

        try:
            goodbye = False
            while not goodbye:
                try:
                    events = conn.receive(await reader.read(READ_SIZE))
                except (EOFError, ConnectionError):
                    break
                except (WireFormatError, TransportError) as exc:
                    # Framing is lost; report once (seq 0) and hang up.
                    with contextlib.suppress(Exception):
                        await reply(0, ErrorReply.from_exception(exc))
                    break
                for kind, seq, frame in events:
                    if kind == FrameKind.BYE:
                        goodbye = True
                        break
                    if len(inflight) >= MAX_INFLIGHT:
                        error = Overloaded(f"{MAX_INFLIGHT} requests in flight")
                        with contextlib.suppress(ConnectionError, OSError):
                            await reply(seq, ErrorReply.from_exception(error))
                        continue
                    task = asyncio.create_task(
                        self._dispatch(kind, seq, frame, reply, subs)
                    )
                    inflight.add(task)
                    self._requests.add(task)
                    task.add_done_callback(inflight.discard)
                    task.add_done_callback(self._requests.discard)
            if inflight:
                # A goodbye (or EOF) after pipelined requests: finish them
                # and flush their replies before hanging up.
                await asyncio.wait(inflight)
        finally:
            for state in list(subs.values()):
                if state.sub_id >= 0:
                    self._server.unsubscribe(state.sub_id)
                if state.task is not None:
                    state.task.cancel()
            subs.clear()
            self._writers.discard(writer)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _dispatch(
        self,
        kind: FrameKind,
        seq: int,
        frame,
        send: _Reply,
        subs: Dict[int, _SubState],
    ) -> None:
        loop = asyncio.get_running_loop()
        reply: object
        try:
            if kind == FrameKind.RUN:
                future = self._server.submit(frame.query, algorithm=frame.algorithm)
                # A hit answered inside submit() is already resolved: encode
                # it now instead of taking a trip through the loop.
                result = (
                    future.result()
                    if future.done()
                    else await asyncio.wrap_future(future)
                )
                reply = protocol.RunReply(
                    relation=result.relation,
                    metrics=result.metrics,
                    stamp=result.stamp,
                )
            elif kind == FrameKind.MUTATE:
                # A batch that needs no wait is applied right here, on the
                # loop: the thread hop would cost more than its repair.
                outcomes = self._server.apply_if_free(frame.ops)
                if outcomes is None:
                    outcomes = await loop.run_in_executor(
                        None, self._server.apply, list(frame.ops)
                    )
                reply = protocol.MutateReply(outcomes=tuple(outcomes))
            elif kind == FrameKind.STATS:
                # The cut-quality snapshot takes the server's read lock (it
                # must not interleave with a mutation batch or a rebalance),
                # so it runs off the event loop like every blocking call.
                partition = await loop.run_in_executor(
                    None, self._server.partition_snapshot
                )
                # A copy: pool threads keep counting into the live object
                # while this reply is encoded.
                reply = protocol.StatsReply(
                    stats=self._server.stats.snapshot(),
                    stamp=self._server.stamp,
                    backend=self._server.backend,
                    n_workers=self._server.n_workers,
                    partition=partition,
                )
            elif kind == FrameKind.HELLO:
                reply = protocol.Hello(role="server")
            elif kind == FrameKind.SUBSCRIBE:
                reply = await self._subscribe(loop, seq, frame, send, subs)
            elif kind == FrameKind.UNSUBSCRIBE:
                # Only this connection's own: another's id, or an unknown
                # one, is acked as the no-op it is here.
                state = subs.pop(frame.sub_id, None)
                if state is not None:
                    self._server.unsubscribe(frame.sub_id)
                    state.task.cancel()
                reply = protocol.SubscribeReply(
                    sub_id=frame.sub_id, stamp=self._server.stamp, relation=None
                )
            else:
                raise WireFormatError(f"clients may not send {kind.name} frames")
        except Exception as exc:
            reply = ErrorReply.from_exception(exc)
        try:
            await send(seq, reply)
        except WireFormatError as exc:
            # The reply itself would not frame (e.g. oversized relation):
            # tell the client *why* instead of leaving its future pending.
            with contextlib.suppress(Exception):
                await send(seq, ErrorReply.from_exception(exc))
        except (ConnectionError, OSError):
            pass  # client left before its answer; nothing to tell it

    # ------------------------------------------------------------------
    # standing queries
    # ------------------------------------------------------------------
    async def _subscribe(
        self,
        loop: asyncio.AbstractEventLoop,
        seq: int,
        frame: "protocol.SubscribeRequest",
        send: _Reply,
        subs: Dict[int, _SubState],
    ) -> "protocol.SubscribeReply":
        """Register with the serving stack and wire up the push pipeline."""
        state = _SubState(seq, frame.buffer)

        def deliver(sub_id: int, stamp: int, added: Tuple, removed: Tuple) -> None:
            # The batch's thread (often the loop's own), write lock held:
            # must not block.  The loop enqueues in call order, so deltas
            # stay stamp-ordered.
            loop.call_soon_threadsafe(
                self._enqueue_push, state, sub_id, stamp, added, removed
            )

        sub_id, baseline = await loop.run_in_executor(
            None,
            lambda: self._server.subscribe(
                frame.query, deliver, algorithm=frame.algorithm
            ),
        )
        state.sub_id = sub_id
        subs[sub_id] = state
        state.task = asyncio.create_task(self._push_writer(state, send))
        self._requests.add(state.task)
        state.task.add_done_callback(self._requests.discard)
        return protocol.SubscribeReply(
            sub_id=sub_id, stamp=baseline.stamp, relation=baseline.relation
        )

    def _enqueue_push(
        self, state: _SubState, sub_id: int, stamp: int, added: Tuple, removed: Tuple
    ) -> None:
        """Event-loop side of the registry callback: queue one PUSH."""
        if state.lapsed:
            return  # a snapshot race may deliver one delta past the lapse
        try:
            state.queue.put_nowait(
                protocol.PushDelta(
                    sub_id=sub_id, stamp=stamp, added=added, removed=removed
                )
            )
        except asyncio.QueueFull:
            # The subscriber fell behind its declared buffer: lapse it.
            # Pending deltas are void (the final frame says so), which
            # frees a slot for the lapse marker.
            state.lapsed = True
            self._server.unsubscribe(sub_id)
            while True:
                try:
                    state.queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
            state.queue.put_nowait(
                protocol.PushDelta(sub_id=sub_id, stamp=stamp, lapsed=True)
            )

    async def _push_writer(self, state: _SubState, send: _Reply) -> None:
        """Drain one subscription's delta queue into PUSH frames."""
        try:
            while True:
                delta = await state.queue.get()
                await send(state.seq, delta)
                if delta.lapsed:
                    break
        except asyncio.CancelledError:
            raise
        except (ConnectionError, OSError):
            self._server.unsubscribe(state.sub_id)


class ThreadedNetworkServer:
    """A :class:`NetworkSessionServer` on a private event-loop thread.

    For synchronous callers: construction binds the socket, serves in the
    background, and :meth:`close` performs the same graceful drain as
    :meth:`NetworkSessionServer.aclose`.  Use as a context manager::

        with serve_in_thread(fragmentation, backend="thread") as srv:
            client = SessionClient(*srv.address)
    """

    def __init__(self, source, **kwargs) -> None:
        self._startup_error: Optional[BaseException] = None
        self._started = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self.ingress: Optional[NetworkSessionServer] = None
        self.address: Optional[Tuple[str, int]] = None
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main(source, kwargs)),
            daemon=True,
            name="repro-net-server",
        )
        self._thread.start()
        self._started.wait(timeout=60.0)
        if self._startup_error is not None:
            raise self._startup_error
        if self.address is None:
            raise TransportError("network server failed to start within 60s")

    async def _main(self, source, kwargs) -> None:
        try:
            self.ingress = NetworkSessionServer(source, **kwargs)
            await self.ingress.start()
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            self.address = self.ingress.address
        except BaseException as exc:
            self._startup_error = exc
            if self.ingress is not None:
                # An owned serving stack was already built (workers spawned);
                # a failed bind must not leak it.
                with contextlib.suppress(Exception):
                    await self.ingress.aclose()
            self._started.set()
            return
        self._started.set()
        await self._stop.wait()
        await self.ingress.aclose()

    def close(self) -> None:
        """Gracefully stop the ingress and join its thread (idempotent)."""
        if self._loop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=60.0)
        if self._thread.is_alive():  # pragma: no cover - defensive
            raise TransportError("network server thread failed to stop")

    def __enter__(self) -> "ThreadedNetworkServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def serve_in_thread(source, **kwargs) -> ThreadedNetworkServer:
    """Start a background-thread ingress over ``source``; see
    :class:`ThreadedNetworkServer`."""
    return ThreadedNetworkServer(source, **kwargs)
