"""Pluggable worker transports: pipes (one host) and TCP sockets (any host).

:mod:`repro.runtime.mp` originally hard-wired its workers to
``multiprocessing.Pipe``.  This module abstracts that channel behind
:class:`Transport` -- ``send(obj)`` / ``recv()`` / ``close()`` with pipe
semantics -- and adds a socket implementation framed by the shared wire
protocol (:mod:`repro.net.protocol`), so shard workers can be remote
processes.  The demo/test topology spawns them locally and has them dial
back over localhost TCP, but nothing in the protocol assumes a shared host: a worker started anywhere with the listener's
``(host, port)`` and its token joins the run.

Failure semantics are deliberately identical across implementations, so the
coordinator's dead-peer handling is written once:

* ``recv()`` on a peer that went away raises :class:`EOFError` (what
  ``multiprocessing.Connection`` raises on a closed pipe);
* ``send()`` to a dead peer raises :class:`BrokenPipeError` / ``OSError``;
* garbage on a socket (a non-repro peer) raises
  :class:`~repro.errors.WireFormatError`, a :class:`ProtocolError`.

Worker bootstrap
----------------

A worker process is spawned with a picklable *channel spec* and calls
:func:`open_worker_transport` to realize it:

* ``("pipe", connection)`` -- the classic same-host channel;
* ``("tcp", (host, port, token))`` -- dial the parent's
  :class:`SocketListener` and authenticate with the per-worker token (a
  codec-encoded ``HELLO``, the first frame on the wire); the parent's
  :meth:`SocketListener.accept_worker` matches tokens to worker slots, so
  arrival order never matters.

Trust boundary
--------------

Worker commands are arbitrary Python objects, so ``OBJ`` frame bodies are
pickled -- here and nowhere else in the wire path.  :meth:`SocketTransport.recv`
holds the only ``pickle.loads``, and the listener hands out a
:class:`SocketTransport` only after the peer's ``HELLO`` token passed
``hmac.compare_digest``: nothing a stranger sends is ever unpickled.  The
``pickle-confined`` analyzer rule pins the load to that method; the
stranger probes in ``tests/runtime/test_transport.py`` show the ordering.
"""

from __future__ import annotations

import hmac
import os
import pickle
import random
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import (
    AbstractSet,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.errors import TransportError, WireFormatError
from repro.net.protocol import (
    CLIENT_PORT_KINDS,
    DEFAULT_MAX_FRAME,
    READ_SIZE,
    Connection,
    Event,
    FrameKind,
    Hello,
    encode,
)

#: the worker channels this module can realize (shared by every spawner)
TRANSPORTS = ("pipe", "tcp")

#: what a worker link's framer lets past the header: the dialer's opening
#: ``HELLO`` while it is still a stranger, ``OBJ`` only once authenticated
_HANDSHAKE_KINDS = frozenset({FrameKind.HELLO})
_LINK_KINDS = frozenset({FrameKind.OBJ})
#: how long one dialer gets to deliver its whole ``HELLO``: a silent or
#: byte-dripping stranger costs the accept loop this much, not its deadline
HANDSHAKE_TIMEOUT_S = 2.0


class Transport:
    """One end of a parent<->worker channel with pipe send/recv semantics."""

    def send(self, obj) -> None:
        raise NotImplementedError

    def recv(self):
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class PipeTransport(Transport):
    """A :class:`multiprocessing.connection.Connection` behind the interface."""

    def __init__(self, conn) -> None:
        self.conn = conn

    def send(self, obj) -> None:
        self.conn.send(obj)

    def recv(self):
        return self.conn.recv()

    def close(self) -> None:
        self.conn.close()

    def __repr__(self) -> str:
        return f"PipeTransport({self.conn!r})"


class FrameSocket:
    """The blocking driver of the wire: one socket, the
    :class:`~repro.net.protocol.Connection` that frames it, and the frames
    already read but not yet handed out.  The blocking client, its
    subscriptions and the worker link below are all this, plus policy."""

    def __init__(
        self,
        sock: socket.socket,
        accept: AbstractSet[FrameKind] = CLIENT_PORT_KINDS,
        max_frame: int = DEFAULT_MAX_FRAME,
    ) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        self.conn = Connection(accept, max_frame)
        self._events: Deque[Event] = deque()

    def send(self, frame: object, seq: int = 0) -> None:
        self.sock.sendall(self.conn.send(frame, seq))

    def recv(self) -> Event:
        """The next logical frame; :class:`EOFError` once the peer has closed."""
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


class SocketTransport(Transport):
    """An authenticated TCP stream of ``OBJ`` frames carrying pickles.

    Built by :func:`connect_worker` (the worker dialing its parent) and by
    :meth:`SocketListener.accept_worker` (the parent, once the token
    matched) -- never around a socket whose peer is unknown.
    """

    def __init__(self, sock: socket.socket, max_frame: int = DEFAULT_MAX_FRAME):
        sock.settimeout(None)  # blocking, like a pipe
        self._sock = sock
        self._link = FrameSocket(sock, _LINK_KINDS, max_frame)

    def send(self, obj) -> None:
        self._link.send(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))

    def recv(self):
        _kind, _seq, body = self._link.recv()
        try:
            return pickle.loads(body)
        except Exception as exc:
            raise WireFormatError(f"undecodable OBJ body: {exc!r}") from exc

    def close(self) -> None:
        self._link.close()

    def __repr__(self) -> str:
        try:
            peer = self._sock.getpeername()
        except OSError:
            peer = "closed"
        return f"SocketTransport(peer={peer})"


class SocketListener:
    """The parent's accept side of the TCP transport.

    Binds ``host:port`` (port 0 = ephemeral), hands out one
    :class:`SocketTransport` per authenticated worker, and closes.  Tokens --
    one fresh random secret per expected worker -- are the spawn-time secret
    shared with each worker; an unknown or replayed token is refused and the
    connection dropped, so a stray client cannot slip into a worker slot.
    The handshake reads exactly one codec-encoded ``HELLO`` (the only kind
    its framer accepts), so a stranger's bytes are parsed, never unpickled.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, backlog: int = 16):
        self._sock = socket.create_server((host, port), backlog=backlog)
        self.address: Tuple[str, int] = self._sock.getsockname()[:2]

    @staticmethod
    def fresh_token() -> bytes:
        return os.urandom(16)

    def accept_worker(
        self,
        expected: Dict[bytes, object],
        timeout: float = 30.0,
        max_frame: int = DEFAULT_MAX_FRAME,
    ) -> Tuple[object, SocketTransport]:
        """Accept one worker whose token is a key of ``expected``.

        Returns ``(expected.pop(token), transport)``; the caller's mapping
        shrinks as slots fill, so ``expected`` doubles as the waiting set.
        """
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TransportError(
                    f"no worker connected within {timeout}s "
                    f"({len(expected)} slot(s) still waiting)"
                )
            self._sock.settimeout(remaining)
            try:
                conn, _addr = self._sock.accept()
            except socket.timeout:
                continue
            budget = min(deadline - time.monotonic(), HANDSHAKE_TIMEOUT_S)
            token = _authenticated_token(conn, expected, max_frame, budget)
            if token is not None:
                return expected.pop(token), SocketTransport(conn, max_frame)
            conn.close()  # wrong secret / not a worker: refuse the slot

    def accept_workers(
        self,
        tokens: Iterable[Tuple[bytes, object]],
        timeout: float = 30.0,
        max_frame: int = DEFAULT_MAX_FRAME,
    ) -> Dict[object, SocketTransport]:
        """Accept every ``(token, slot)`` worker; returns ``slot -> transport``."""
        expected = dict(tokens)
        accepted: Dict[object, SocketTransport] = {}
        deadline = time.monotonic() + timeout
        while expected:
            slot, transport = self.accept_worker(
                expected,
                timeout=max(0.001, deadline - time.monotonic()),
                max_frame=max_frame,
            )
            accepted[slot] = transport
        return accepted

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "SocketListener":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _authenticated_token(
    sock: socket.socket, expected: Iterable[bytes], max_frame: int, timeout: float
) -> Optional[bytes]:
    """The member of ``expected`` a dialer's opening ``HELLO`` carries, or
    None for a stranger -- which anyone still short of a whole frame after
    ``timeout`` seconds is.

    Exactly one frame and not a byte more: the worker says nothing further
    until the parent has spoken, so trailing bytes mark a stranger too.
    """
    conn = Connection(_HANDSHAKE_KINDS, max_frame)
    deadline = time.monotonic() + timeout
    events: List[Event] = []
    try:
        while not events:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            sock.settimeout(remaining)
            events = conn.receive(sock.recv(READ_SIZE))
    except (EOFError, OSError, TransportError, WireFormatError):
        return None
    hello = events[0][2]
    if len(events) > 1 or conn.buffered or hello.role != "worker":
        return None
    if type(hello.token) is not bytes:
        return None
    return next((t for t in expected if hmac.compare_digest(t, hello.token)), None)


def connect_worker(
    address: Tuple[str, int],
    token: bytes,
    max_frame: int = DEFAULT_MAX_FRAME,
    timeout: float = 30.0,
) -> SocketTransport:
    """Worker side: dial the parent's listener and authenticate."""
    try:
        sock = socket.create_connection(address, timeout=timeout)
        sock.sendall(encode(Hello(role="worker", token=token)))
    except OSError as exc:
        raise TransportError(f"cannot reach parent at {address}: {exc}") from exc
    return SocketTransport(sock, max_frame=max_frame)


def open_worker_transport(channel) -> Transport:
    """Realize a spawn-time channel spec inside the worker process."""
    kind = channel[0]
    if kind == "pipe":
        return PipeTransport(channel[1])
    if kind == "tcp":
        host, port, token = channel[1]
        return connect_worker((host, port), token)
    raise TransportError(f"unknown worker channel kind {kind!r}")


# ----------------------------------------------------------------------
# reconnect/respawn policy and deterministic fault injection
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry schedule with exponential backoff.

    Shared by every reconnect path: :class:`repro.net.client.SessionClient`
    redials with it, and the sharded worker pool respawns dead workers with
    it (``repro.runtime.mp.respawn_worker``).  ``attempts`` bounds the
    number of tries; :meth:`delays` yields the pause *after* each failed
    try, growing by ``multiplier`` up to ``max_backoff_s``.
    """

    attempts: int = 3
    backoff_s: float = 0.05
    multiplier: float = 2.0
    max_backoff_s: float = 2.0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("a RetryPolicy needs at least one attempt")
        if self.backoff_s < 0 or self.multiplier < 1.0:
            raise ValueError("backoff must be >= 0 and multiplier >= 1")

    def delays(self) -> Iterator[float]:
        """One pause per attempt: ``backoff_s * multiplier^i``, capped."""
        delay = self.backoff_s
        for _ in range(self.attempts):
            yield delay
            delay = min(delay * self.multiplier, self.max_backoff_s)


class FaultPlan:
    """A deterministic, seeded schedule of transport faults for tests.

    The plan is fixed up front -- nothing random happens at injection time,
    so a failing test reproduces from its seed alone.  Faults fire at
    *message boundaries*: each wrapped transport counts every ``send``/
    ``recv`` it crosses, and the plan decides per ``(slot, boundary)``:

    * ``kills[slot] = b`` -- at boundary ``>= b``, invoke the wrapper's
      ``on_kill`` (the pool passes ``process.terminate``), close the link,
      and raise :class:`TransportError`.  One-shot per slot: the respawned
      worker's fresh link is not re-killed, so recovery is observable.
    * ``drops`` -- the message at ``(slot, boundary)`` is lost; the wrapper
      raises :class:`TransportError` (a lost frame surfaces as a dead link
      to the request/reply layer -- silently swallowing it would hang the
      caller, which no deterministic harness should do).  One-shot each.
    * ``delay_every = n`` -- sleep ``delay_s`` at every ``n``-th boundary,
      jittering interleavings without breaking anything.

    Fired events are recorded in :attr:`events` as
    ``(slot, boundary, action)`` so tests can assert what actually
    happened.
    """

    def __init__(
        self,
        seed: int = 0,
        kills: Optional[Dict[object, int]] = None,
        drops: Iterable[Tuple[object, int]] = (),
        delay_every: int = 0,
        delay_s: float = 0.001,
    ) -> None:
        self.seed = seed
        self.kills: Dict[object, int] = dict(kills or {})
        self.drops = set(drops)
        self.delay_every = delay_every
        self.delay_s = delay_s
        self.events: List[Tuple[object, int, str]] = []
        self._fired: set = set()
        self._lock = threading.Lock()

    @classmethod
    def seeded(
        cls,
        seed: int,
        n_slots: int,
        kill_window: Tuple[int, int] = (4, 40),
        delay_every: int = 0,
    ) -> "FaultPlan":
        """Derive a one-kill plan from ``seed``: victim and boundary only
        depend on ``(seed, n_slots)``, never on global RNG state."""
        rng = random.Random(seed)
        victim = rng.randrange(n_slots)
        boundary = rng.randrange(*kill_window)
        return cls(seed=seed, kills={victim: boundary}, delay_every=delay_every)

    def decide(self, slot, boundary: int) -> Optional[str]:
        """The action for this boundary crossing, recording what fired."""
        with self._lock:
            kill_at = self.kills.get(slot)
            if kill_at is not None and boundary >= kill_at and slot not in self._fired:
                self._fired.add(slot)
                self.events.append((slot, boundary, "kill"))
                return "kill"
            if (slot, boundary) in self.drops:
                self.drops.discard((slot, boundary))
                self.events.append((slot, boundary, "drop"))
                return "drop"
            if self.delay_every and boundary % self.delay_every == self.delay_every - 1:
                self.events.append((slot, boundary, "delay"))
                return "delay"
            return None

    def wrap(self, slot, transport: Transport, on_kill=None) -> "FaultyTransport":
        """Wrap one worker link; ``on_kill`` is invoked when a kill fires."""
        return FaultyTransport(transport, self, slot, on_kill=on_kill)

    def __repr__(self) -> str:
        return (
            f"FaultPlan(seed={self.seed}, kills={self.kills}, "
            f"drops={sorted(self.drops)}, delay_every={self.delay_every})"
        )


class FaultyTransport(Transport):
    """A :class:`Transport` that consults a :class:`FaultPlan` per message."""

    def __init__(
        self, inner: Transport, plan: FaultPlan, slot, on_kill=None
    ) -> None:
        self._inner = inner
        self._plan = plan
        self._slot = slot
        self._on_kill = on_kill
        self._boundary = 0

    def _cross(self) -> Optional[str]:
        boundary = self._boundary
        self._boundary += 1
        action = self._plan.decide(self._slot, boundary)
        if action == "delay":
            time.sleep(self._plan.delay_s)
            return None
        return action

    def _die(self) -> None:
        if self._on_kill is not None:
            self._on_kill()
        try:
            self._inner.close()
        except OSError:
            pass
        raise TransportError(
            f"fault injection: worker slot {self._slot!r} killed at "
            f"boundary {self._boundary - 1} (seed {self._plan.seed})"
        )

    def send(self, obj) -> None:
        action = self._cross()
        if action == "kill":
            self._die()
        if action == "drop":
            raise TransportError(
                f"fault injection: message to slot {self._slot!r} dropped at "
                f"boundary {self._boundary - 1} (seed {self._plan.seed})"
            )
        self._inner.send(obj)

    def recv(self):
        action = self._cross()
        if action == "kill":
            self._die()
        if action == "drop":
            self._inner.recv()  # the frame arrives, the plan loses it
            raise TransportError(
                f"fault injection: message from slot {self._slot!r} dropped "
                f"at boundary {self._boundary - 1} (seed {self._plan.seed})"
            )
        return self._inner.recv()

    def close(self) -> None:
        self._inner.close()

    def __repr__(self) -> str:
        return f"FaultyTransport(slot={self._slot!r}, inner={self._inner!r})"
