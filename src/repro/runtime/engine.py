"""The superstep engine: the one loop that steps sites in rounds.

Sites run in lockstep supersteps (the deterministic simulation of the
paper's asynchronous message passing; dGPMd and dMes are genuinely
superstep-based, and for dGPM the schedule is one admissible asynchronous
interleaving -- the fixpoint it converges to is schedule-independent, which
tests verify against the centralized oracle).  Per round every site with
mail or unfinished work receives its inbox, computes, and emits messages;
the run ends when every site has voted to halt and no message is in flight.

**Hosts.**  :class:`SyncEngine` does not step sites itself, it drives
*hosts*: a host is a set of co-located sites stepped together.
:class:`LocalHost` steps :class:`SiteProgram` objects in this process -- an
in-process evaluation is one ``LocalHost`` holding every site -- and a shard
worker (:mod:`repro.runtime.mp`) runs the same class over the fragments it
owns, with the coordinator's handle to it as the remote host.  A program may
stand for several sites of its host (``programs`` holds it under each of
their ids; it is stepped once a round, with the mail of all of them): how a
machine computes the local fixpoints of the fragments it holds is its own
business -- dGPM's array engine does it in one array program.  What it
must keep is the meter: every logical message between two sites is a row
-- of a plain message, or of an envelope that carries a program's
co-located mail of one kind for a round -- and the network meters rows, so
envelopes change no count, byte or round.  The contract
is two calls, ``post(command, payload)`` then ``collect(command)``: the
engine posts a round to *every* host before it collects the first reply, so
remote hosts compute a superstep concurrently.  Commands and replies:

* ``"q.start"`` (payload: whatever names the run to a remote host; a
  ``LocalHost`` holds its programs already) and ``"q.tick"`` (payload
  ``(round_no, inbox)``, the mail arriving from outside the host) reply
  ``(outbound, idle, compute, n_falsified)`` -- the mail *leaving* the host,
  whether all its sites have halted with nothing buffered, its slowest
  site's compute seconds, and its sites' share of |AFF|.  An idle host
  without mail is not ticked and reports nothing, so idle sites never
  inflate PT -- this is what makes "more fragments => lower PT" measurable.
  The clock is the host's; a program standing for several sites reports the
  fraction of its step its busiest site accounts for, apportioned by work done
  (:attr:`TickResult.slowest_share`), so PT is then an *estimate*.
* ``"q.collect"`` replies ``(results, site_extras, network)``: the
  programs' RESULT mail (a row per site), the per-site values of the host's
  ``readers``, and the host's own network as its meter.

**What is metered where.**  Mail between two sites of one host never leaves
it: the host buffers it in its own :class:`Network`, so it is metered,
scramble-able and delivered next round exactly like mail that travels.  Mail
leaving a host (to a site elsewhere, or to the coordinator) goes through the
engine's network.  :meth:`SyncEngine.collect_results` folds the hosts'
meters into the engine's, so rounds, messages, DS and the makespan PT --
per round the slowest host's compute, plus one link latency per delivery
round and the transfer time of every data byte -- do not depend on which
sites share a host; :attr:`SyncEngine.colocated_ds_bytes` keeps the part that
never left one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Protocol, Tuple

from repro.errors import ProtocolError
from repro.runtime.costmodel import CostModel
from repro.runtime.messages import COORDINATOR, Mail, Message
from repro.runtime.metrics import RunMetrics
from repro.runtime.network import Network


@dataclass
class TickResult:
    """What a site produced during one round."""

    messages: List[Mail] = field(default_factory=list)
    #: True when the site has no local work left (it can still be woken
    #: by a later message).
    halted: bool = True
    #: local variables this tick falsified (the site's share of |AFF|);
    #: programs that do not track it leave the default 0
    n_falsified: int = 0
    #: the fraction of this step's time its busiest site accounts for: 1 for
    #: a program of one site, apportioned by work done for one of several
    slowest_share: float = 1.0


class SiteProgram(Protocol):
    """The per-site half of a distributed algorithm, for one site or for
    several sites of one host (module docstring)."""

    def on_start(self) -> TickResult:
        """First tick, before any message is delivered."""
        ...

    def on_tick(self, round_no: int, inbox: List[Mail]) -> TickResult:
        """One superstep: process ``inbox`` (the mail of every site the
        program stands for), return outgoing mail."""
        ...

    def collect(self) -> Mail:
        """Final local result, addressed to the coordinator: a row per site
        the program stands for."""
        ...


class Host(Protocol):
    """A set of co-located sites the engine steps as one (module docstring)."""

    def post(self, command: str, payload) -> None:
        """Start ``command`` on the host without waiting for it."""
        ...

    def collect(self, command: str):
        """The reply to the last :meth:`post`."""
        ...


class LocalHost:
    """Sites stepped in this process, their mutual mail in ``network``.

    One program may appear under several site ids of ``programs`` and is
    then stepped once, for all of them.  ``readers`` maps an extras key to a
    function of one program; ``q.collect`` carries its value for every program.
    """

    def __init__(
        self,
        programs: Dict[int, SiteProgram],
        network: Network,
        readers: Optional[Mapping[str, Callable[[SiteProgram], float]]] = None,
    ) -> None:
        self.programs = programs
        self.network = network
        self.readers = readers or {}
        self._distinct: List[SiteProgram] = list(dict.fromkeys(programs.values()))
        self._halted: Dict[SiteProgram, bool] = {}
        self._reply = None

    def _step(self, calls: Iterable[Tuple[SiteProgram, Callable[[], TickResult]]]) -> tuple:
        """Run one round's program calls; keep their mutual mail, return the rest."""
        outbound: List[Mail] = []
        slowest = 0.0
        n_falsified = 0
        for program, call in calls:
            began = time.perf_counter()
            result = call()
            slowest = max(slowest, (time.perf_counter() - began) * result.slowest_share)
            self._halted[program] = result.halted
            n_falsified += result.n_falsified
            for message in result.messages:
                if message.dst in self.programs:
                    self.network.send(message)
                else:
                    outbound.append(message)
        idle = not self.network.has_pending and all(self._halted.values())
        return outbound, idle, slowest, n_falsified

    def start(self, _run=None) -> tuple:
        """Every program's first step."""
        return self._step((p, p.on_start) for p in self._distinct)

    def tick(self, payload: Tuple[int, List[Mail]]) -> tuple:
        """One superstep: last round's local mail plus ``inbox`` from outside;
        a halted program without mail is skipped."""
        round_no, inbox = payload
        mail: Dict[SiteProgram, List[Mail]] = {}
        for fid, messages in self.network.deliver().items():
            mail.setdefault(self.programs[fid], []).extend(messages)
        for message in inbox:
            mail.setdefault(self.programs[message.dst], []).append(message)
        return self._step(
            (program, partial(program.on_tick, round_no, mail.get(program, [])))
            for program in self._distinct
            if program in mail or not self._halted.get(program, True)
        )

    def results(self, _=None) -> tuple:
        """Every site's final local answer, reader values, and the meter."""
        return (
            [program.collect() for program in self._distinct],
            {key: [read(p) for p in self._distinct] for key, read in self.readers.items()},
            self.network,
        )

    _COMMANDS = {"q.start": start, "q.tick": tick, "q.collect": results}

    def post(self, command: str, payload) -> None:
        self._reply = self._COMMANDS[command](self, payload)

    def collect(self, command: str):
        return self._reply


class SyncEngine:
    """Drives hosts of :class:`SiteProgram` instances to quiescence.

    ``placement`` maps every site id to the :class:`Host` holding it;
    ``network`` carries (and meters) the mail between hosts and to and from
    the coordinator.
    """

    def __init__(
        self,
        placement: Mapping[int, Host],
        network: Network,
        cost: CostModel,
        coordinator_inbox_handler: Optional[Callable[[List[Mail]], Iterable[Message]]] = None,
        max_rounds: int = 1_000_000,
    ) -> None:
        self.placement = placement
        self.hosts: List[Host] = list(dict.fromkeys(placement.values()))
        self.network = network
        self.cost = cost
        self.coordinator_inbox_handler = coordinator_inbox_handler
        self.max_rounds = max_rounds
        self.per_round_compute: List[float] = []
        self.coordinator_compute: float = 0.0
        self.n_rounds = 0
        #: local variables falsified across all sites (the |AFF| proxy)
        self.n_falsified = 0
        #: extras key -> every site's value, filled by collect_results
        self.site_extras: Dict[str, list] = {}
        #: data bytes that never left a host, filled by collect_results
        self.colocated_ds_bytes = 0
        self._idle: Dict[Host, bool] = {}

    # ------------------------------------------------------------------
    @staticmethod
    def _exchange(command: str, payloads: Mapping[Host, object]) -> list:
        """``[(host, reply)]`` for one command: every post precedes the first
        collect, so remote hosts work concurrently."""
        for host, payload in payloads.items():
            host.post(command, payload)
        return [(host, host.collect(command)) for host in payloads]

    def _round(self, command: str, payloads: Mapping[Host, object]) -> None:
        """One round over the hosts in ``payloads``; route what they emit."""
        slowest = 0.0
        for host, reply in self._exchange(command, payloads):
            outbound, self._idle[host], compute, n_falsified = reply
            self.network.send_all(outbound)
            slowest = max(slowest, compute)
            self.n_falsified += n_falsified
        self.per_round_compute.append(slowest)
        self.n_rounds += 1

    def run_fixpoint(self, run=None) -> None:
        """Every site's first step, then tick until quiescence (``run`` is
        the ``q.start`` payload)."""
        self._round("q.start", dict.fromkeys(self.hosts, run))
        self.drain()

    def drain(self, seeded: Iterable[Message] = ()) -> None:
        """Tick until no mail is in flight and every host is idle.

        ``seeded`` is mail already on its way between sites that did not
        come out of a site step (a warm state's repair: the falsifications
        its counter surgery produced).
        """
        self.network.send_all(seeded)
        while self.network.has_pending or not all(self._idle.values()):
            if self.n_rounds >= self.max_rounds:
                raise ProtocolError(f"no quiescence after {self.max_rounds} rounds")
            inboxes = self.network.deliver()
            coordinator_msgs = inboxes.pop(COORDINATOR, [])
            if coordinator_msgs and self.coordinator_inbox_handler is not None:
                start = time.perf_counter()
                replies = list(self.coordinator_inbox_handler(coordinator_msgs))
                self.coordinator_compute += time.perf_counter() - start
                self.network.send_all(replies)
            per_host: Dict[Host, List[Mail]] = {}
            for fid, inbox in inboxes.items():
                per_host.setdefault(self.placement[fid], []).extend(inbox)
            self._round(
                "q.tick",
                {
                    host: (self.n_rounds, per_host.get(host, []))
                    for host in self.hosts
                    if host in per_host or not self._idle.get(host, True)
                },
            )

    def collect_results(self) -> List[Mail]:
        """Gather every site's final local answer (metered as RESULT rows)
        and fold the hosts' meters into the engine's network."""
        between_hosts = self.network.data_bytes
        out: List[Mail] = []
        for _, reply in self._exchange("q.collect", dict.fromkeys(self.hosts)):
            results, site_extras, meter = reply
            for mail in results:
                if any(dst != COORDINATOR for dst in mail.dsts):
                    raise ProtocolError("collect() must address the coordinator")
                self.network.send(mail)
            out.extend(results)
            for key, values in site_extras.items():
                self.site_extras.setdefault(key, []).extend(values)
            self.network.absorb(meter)
        self.colocated_ds_bytes = self.network.data_bytes - between_hosts
        return out

    # ------------------------------------------------------------------
    def simulated_pt(self, extra_compute: float = 0.0) -> float:
        """The makespan PT: per-round slowest compute + modeled link time.

        ``extra_compute`` adds coordinator-side work (assembly).  Link time
        is one latency per delivery round plus the transfer time of every
        data byte -- transfer time is linear in bytes, so it does not
        matter which round, or which host's network, moved them.
        """
        compute = sum(self.per_round_compute) + self.coordinator_compute + extra_compute
        latency = self.cost.latency_s * len(self.network.round_bytes)
        transfer = self.cost.transfer_seconds(self.network.data_bytes)
        return compute + latency + transfer

    def metrics(self, algorithm: str, wall_seconds: float, extra_compute: float = 0.0, **extras) -> RunMetrics:
        """Package the engine's accounting into :class:`RunMetrics`."""
        return RunMetrics(
            algorithm=algorithm,
            pt_seconds=self.simulated_pt(extra_compute),
            wall_seconds=wall_seconds,
            ds_bytes=self.network.data_bytes,
            n_messages=self.network.data_message_count,
            n_rounds=self.n_rounds,
            ds_breakdown=self.network.breakdown(),
            per_round_compute=list(self.per_round_compute),
            extras=dict(extras),
        )
