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
(:mod:`repro.session.concurrent`, ``backend="sharded"``) drives the workers
through the same loop and the same protocol function as in-process
evaluation; for any number of workers the run reproduces the simulator's
relation, message count, DS bytes and round count exactly, which is how
tests confirm those numbers are not artifacts of in-process execution.

A worker talks to the parent over the ``multiprocessing.Pipe`` it was
spawned with and receives its whole initial state (its shard and the
pre-built dependency graphs) through the spawn arguments.  The link is
reliable and ordered, and the parent closes its copy of the child end at
spawn time, so a vanished worker surfaces as ``EOFError`` / ``OSError`` --
:class:`~repro.errors.ProtocolError` to callers -- instead of a hang.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from multiprocessing.connection import Connection
from typing import List, Optional, Tuple

from repro.core.depgraph import DependencyGraphs
from repro.errors import ProtocolError
from repro.partition.fragmentation import Fragmentation
from repro.runtime.engine import LocalHost

#: the sharded worker's full command inventory; the protocol-exhaustive
#: checker verifies every entry has a dispatch arm in ``_shard_worker`` and
#: a sender: the superstep engine (repro.runtime.engine) posts the ``q.*``
#: commands, the coordinator (repro.session.concurrent) the rest.
SHARD_COMMANDS: Tuple[str, ...] = (
    "q.start",
    "q.tick",
    "q.collect",
    "mutate",
    "install",
    "rebalance",
    "stats",
    "stop",
)


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
    and participates in coordinator-driven rounds.  Commands:

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
      and watcher tables -> ``("ok", n_applied)``.
    * ``("install", (adds, drops))`` -- adopt/release fragment ownership on
      ring changes -> ``("ok", owned_fids)``.
    * ``("rebalance", (shard, deps))`` -- replace the worker's whole shard
      *and* watcher tables after an online re-partition (``install`` moves
      fragments of the current partition; a re-partition changes fragment
      contents and boundary tables, so everything re-ships) ->
      ``("ok", owned_fids)``.  Any active query state is reset.
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
        if command == "q.start":
            name, query, config = payload
            host = None
            try:
                host = local_host(
                    ALGORITHMS[name], shard.fids, shard, query, deps, config
                )
                reply = ("ok", host.start())
            except Exception as exc:
                host = None
                reply = ("err", exc)
        elif command == "q.tick":
            try:
                reply = ("ok", _active(host, command).tick(payload))
            except Exception as exc:
                reply = ("err", exc)
        elif command == "q.collect":
            try:
                reply = ("ok", _active(host, command).results())
            except Exception as exc:
                reply = ("err", exc)
            host = None
        elif command == "mutate":
            try:
                for delta in payload:
                    shard.apply_delta(delta)
                    deps.apply_delta(delta)
                reply = ("ok", len(payload))
            except Exception as exc:
                reply = ("err", exc)
        elif command == "install":
            try:
                adds, drops = payload
                for fid in drops:
                    shard.drop(fid)
                for fid, fragment in adds.items():
                    shard.install(fid, fragment)
                reply = ("ok", shard.fids)
            except Exception as exc:
                reply = ("err", exc)
        elif command == "rebalance":
            try:
                shard, deps = payload
                host = None
                reply = ("ok", shard.fids)
            except Exception as exc:
                reply = ("err", exc)
        elif command == "stats":
            reply = (
                "ok",
                {
                    "fids": shard.fids,
                    "n_fragments": len(shard),
                    "resident_size": shard.resident_size,
                    "peak_rss_kb": _peak_rss_kb(),
                },
            )
        elif command == "stop":
            transport.close()
            return
        else:
            reply = ("err", ProtocolError(f"unknown shard command {command!r}"))
        try:
            transport.send(reply)
        except Exception as exc:  # pragma: no cover - unpicklable payload
            transport.send(("err", ProtocolError(f"shard reply failed to pickle: {exc}")))


def _spawn(target, inits: List[tuple]) -> List[Tuple[mp.Process, Connection]]:
    """Spawn one ``target(child_end, init)`` worker per init payload; returns
    ``[(process, parent_end), ...]`` in init order.

    On any failure mid-batch every already-started worker is terminated
    (and its link closed) before the error propagates -- no orphan
    processes blocked on ``recv()`` forever.
    """
    pairs: List[Tuple[mp.Process, Connection]] = []
    try:
        for init in inits:
            parent_conn, child_conn = mp.Pipe()
            proc = mp.Process(target=target, args=(child_conn, init), daemon=True)
            proc.start()
            pairs.append((proc, parent_conn))
            # Close the parent's copy of the child end: if the worker
            # dies, the pipe hits EOF and recv raises instead of
            # blocking forever.
            child_conn.close()
        return pairs
    except BaseException:
        for proc, link in pairs:
            link.close()
            if proc.is_alive():
                proc.terminate()
        raise


def spawn_shard_workers(
    fragmentation: Fragmentation,
    deps: DependencyGraphs,
    shard_fids: List[Tuple[int, ...]],
) -> List[Tuple[mp.Process, Connection]]:
    """Spawn one shard worker per entry of ``shard_fids``.

    Worker ``i`` receives ``fragmentation.extract_shard(shard_fids[i])``
    plus the pre-built dependency graphs -- never the base graph, so
    per-worker memory scales with its owned fragments.  Returns
    ``[(process, link), ...]`` in ``shard_fids`` order; the caller owns
    shutdown.
    """
    return _spawn(
        _shard_worker,
        [(fragmentation.extract_shard(fids), deps) for fids in shard_fids],
    )


def respawn_worker(
    target,
    init: tuple,
    policy,
) -> Tuple[mp.Process, Connection]:
    """Spawn one worker with bounded retry + backoff (a ``RetryPolicy``).

    Each attempt is a full fresh spawn over a new pipe pair, followed by a
    ``stats`` round-trip that proves the worker is actually serving (a
    dead-on-arrival worker only surfaces at first ``recv``).  On failure
    the partial spawn is torn down, the policy's backoff is slept, and the
    next attempt starts clean; exhaustion raises
    :class:`~repro.errors.ProtocolError` chaining the last cause.
    """
    last: Optional[BaseException] = None
    for delay in policy.delays():
        proc = link = None
        try:
            [(proc, link)] = _spawn(target, [init])
            link.send(("stats", None))
            status, value = link.recv()
            if status != "ok":
                raise ProtocolError(f"respawn probe failed: {value!r}")
            return proc, link
        except (EOFError, OSError, ProtocolError) as exc:
            last = exc
            if link is not None:
                try:
                    link.close()
                except OSError:  # pragma: no cover - best-effort teardown
                    pass
            if proc is not None and proc.is_alive():
                proc.terminate()
            time.sleep(delay)
    raise ProtocolError(
        f"worker respawn failed after {policy.attempts} attempt(s): {last!r}"
    ) from last
