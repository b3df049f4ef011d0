"""Shard workers: the paper's sites as genuine OS processes.

This module holds the one worker loop that runs the *same*
``SiteProgram`` code in real processes -- :func:`_shard_worker`, which owns
a subset of fragments (never the base graph) -- plus the spawn/respawn
plumbing around it.  A worker is a *host* of the superstep engine
(:mod:`repro.runtime.engine`): its ``q.start`` / ``q.tick`` / ``q.collect``
arms hand the command to a :class:`~repro.runtime.engine.LocalHost` over
the fragments it owns and ship that host's reply back verbatim --
``(outbound, idle, compute, n_falsified)`` for a round, ``(results,
site_extras, network)`` at collection -- so the mail its sites send each
other, their compute time and their results are metered by the code that
meters an in-process run.  The coordinator
(:class:`repro.session.sharding.ShardPool`, ``backend="sharded"``) drives
the workers through the same loop and the same protocol function as
in-process evaluation; for any number of workers the run reproduces the
simulator's relation, message count, DS bytes and round count exactly, which
is how tests confirm those numbers are not artifacts of in-process execution.

A worker talks to the parent over the ``multiprocessing.Pipe`` it was
spawned with and receives its whole initial state (its shard and the
pre-built dependency graphs) through the spawn arguments.  Every start --
the pool's first and a respawn after a death -- is one
:func:`respawn_worker` call: spawn every worker, each posted a ``stats``
probe it must answer within :data:`PROBE_TIMEOUT`.  The link is reliable and
ordered, and the parent closes its copy of the child end at spawn time, so a
vanished worker surfaces as ``EOFError`` / ``OSError`` --
:class:`~repro.errors.ProtocolError` to callers -- instead of a hang.

The seven commands (:data:`SHARD_COMMANDS`) are ``q.start``, ``q.tick``
and ``q.collect`` (one query's rounds), ``mutate`` (replay deltas),
``install (adds, drops, deps)`` (re-ship fragments: moved ones on a ring
change, every owned one plus new watcher tables on a re-partition),
``stats`` and ``stop``; :func:`_shard_worker` documents each.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from multiprocessing.connection import Connection
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ProtocolError
from repro.runtime.engine import LocalHost

#: the sharded worker's full command inventory; the protocol-exhaustive
#: checker verifies every entry has a dispatch arm in ``_shard_worker`` and
#: a sender: the superstep engine (repro.runtime.engine) posts the ``q.*``
#: commands, the shard pool (repro.session.sharding) the rest.
SHARD_COMMANDS: Tuple[str, ...] = (
    "q.start",
    "q.tick",
    "q.collect",
    "mutate",
    "install",
    "stats",
    "stop",
)

#: seconds a fresh worker has to answer its spawn probe; past it the attempt
#: counts as failed, so a wedged child cannot hang the coordinator
PROBE_TIMEOUT = 10.0


def _peak_rss_kb() -> int:
    """This process's peak resident set (VmHWM) in KiB; 0 if unreadable."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):  # pragma: no cover - non-Linux
        pass
    try:  # pragma: no cover - non-Linux fallback
        import resource

        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    except Exception:  # pragma: no cover
        return 0


def _active(host: Optional[LocalHost], command: str) -> LocalHost:
    if host is None:
        raise ProtocolError(f"{command} without an active q.start")
    return host


def _shard_worker(transport: Connection, init: tuple) -> None:
    """Worker-process loop: own a *subset* of fragments, not a replica.

    This is the site model of the paper's Section 2.2 made literal: the
    worker holds a :class:`~repro.partition.fragmentation.FragmentShard`
    (its owned fragments only -- no base graph) plus the watcher tables,
    and participates in coordinator-driven rounds.  Every command replies
    ``("ok", value)``, or ``("err", exc)`` if it raised; the seven commands:

    * ``("q.start", (name, query, config))`` -- build a
      :class:`~repro.runtime.engine.LocalHost` with one site program per
      owned fragment from the algorithm registry and run its first step;
      replies ``("ok", (outbound, idle, compute, n_falsified))`` where
      ``outbound`` is the mail leaving this shard (the host buffers and
      meters intra-shard mail for the next round, like any host of the
      engine).  Always replaces any previous query state, so an aborted run
      cannot leak into the next.
    * ``("q.tick", (round_no, inbox))`` -- one superstep of that host over
      its buffered mail plus the coordinator's ``inbox``; same reply shape.
    * ``("q.collect", None)`` -> ``("ok", (results, site_extras,
      network))``, the host's meter included; clears the query state.
    * ``("mutate", [MutationDelta, ...])`` -- replay deltas into the shard
      (:func:`~repro.partition.fragmentation.replay`, the parent's own
      fragment patch) and the watcher tables -> ``("ok", n_applied)``.
    * ``("install", (adds, drops, deps))`` -- release the fids in ``drops``
      and adopt the ``{fid: Fragment}`` in ``adds`` -> ``("ok",
      owned_fids)``.  A ring move ships only the moved fragments with
      ``deps=None``; a re-partition changes fragment contents and boundary
      tables, so it ships every owned fragment with the new watcher tables
      ``deps``, which also resets any active query state.
    * ``("stats", None)`` -> ``("ok", {...})`` incl. peak RSS.
    * ``("stop", None)`` -- close and exit.
    """
    from repro.core.dispatch import ALGORITHMS  # import cycle guard
    from repro.core.protocol import local_host

    shard, deps = init
    host: Optional[LocalHost] = None

    while True:
        try:
            command, payload = transport.recv()
        except EOFError:  # pragma: no cover - parent died
            return
        if command == "stop":
            transport.close()
            return
        try:
            if command == "q.start":
                name, query, config = payload
                host = None
                fresh = local_host(
                    ALGORITHMS[name], shard.fids, shard, query, deps, config
                )
                value = fresh.start()
                host = fresh
            elif command == "q.tick":
                value = _active(host, command).tick(payload)
            elif command == "q.collect":
                active, host = host, None
                value = _active(active, command).results()
            elif command == "mutate":
                for delta in payload:
                    shard.apply_delta(delta)
                    deps.apply_delta(delta)
                value = len(payload)
            elif command == "install":
                adds, drops, fresh_deps = payload
                for fid in drops:
                    shard.drop(fid)
                for fid, fragment in adds.items():
                    shard.install(fid, fragment)
                if fresh_deps is not None:
                    deps, host = fresh_deps, None
                value = shard.fids
            elif command == "stats":
                value = {
                    "fids": shard.fids,
                    "n_fragments": len(shard),
                    "resident_size": shard.resident_size,
                    "peak_rss_kb": _peak_rss_kb(),
                }
            else:
                raise ProtocolError(f"unknown shard command {command!r}")
            reply = ("ok", value)
        except Exception as exc:
            reply = ("err", exc)
        try:
            transport.send(reply)
        except Exception as exc:  # pragma: no cover - unpicklable payload
            transport.send(("err", ProtocolError(f"shard reply failed to pickle: {exc}")))


def _tear_down(proc: mp.Process, link: Connection) -> None:
    link.close()
    if proc.is_alive():
        proc.terminate()


def respawn_worker(
    target,
    inits: Sequence[tuple],
    policy,
) -> List[Tuple[mp.Process, Connection]]:
    """Start one ``target(child_end, init)`` worker per entry of ``inits``,
    each slot with its own bounded retry + backoff (a ``RetryPolicy``); the
    only way a worker starts, the pool's first start and a respawn alike.

    Each attempt spawns every worker still missing over a new pipe pair and
    posts it a ``stats`` probe, then collects the replies: an answer proves
    the worker is serving (a dead-on-arrival one only surfaces at ``recv``;
    a silent one fails once :data:`PROBE_TIMEOUT` seconds have passed since
    the spawns).  A failed worker is torn down and started clean after the
    policy's backoff; a slot whose attempts run out tears down every worker
    this call started and raises :class:`~repro.errors.ProtocolError`
    chaining the last cause.
    """
    started: Dict[int, Tuple[mp.Process, Connection]] = {}
    spawned: List[Tuple[mp.Process, Connection]] = []
    last: Optional[BaseException] = None
    try:
        for tried, delay in enumerate(policy.delays(), 1):
            attempt = {}
            for i, init in enumerate(inits):
                if i in started:
                    continue
                link, child_end = mp.Pipe()
                proc = mp.Process(target=target, args=(child_end, init), daemon=True)
                spawned.append((proc, link))
                try:
                    proc.start()
                    link.send(("stats", None))
                    attempt[i] = proc, link
                except OSError as exc:
                    _tear_down(proc, link)
                    last = exc
                finally:
                    # Close the parent's copy of the child end: if the
                    # worker dies, the pipe hits EOF and recv raises
                    # instead of blocking forever.
                    child_end.close()
            deadline = time.monotonic() + PROBE_TIMEOUT
            for i, (proc, link) in attempt.items():
                try:
                    if not link.poll(max(0.0, deadline - time.monotonic())):
                        raise ProtocolError(
                            "worker did not answer its spawn probe within "
                            f"{PROBE_TIMEOUT} s"
                        )
                    status, value = link.recv()
                    if status != "ok":
                        raise ProtocolError(f"respawn probe failed: {value!r}")
                    started[i] = proc, link
                except (EOFError, OSError, ProtocolError) as exc:
                    _tear_down(proc, link)
                    last = exc
            if len(started) == len(inits):
                return [started[i] for i in range(len(inits))]
            if tried < policy.attempts:
                time.sleep(delay)
    finally:
        if len(started) < len(inits):
            for proc, link in spawned:
                _tear_down(proc, link)
    raise ProtocolError(
        f"worker respawn failed after {policy.attempts} attempt(s): {last!r}"
    ) from last
