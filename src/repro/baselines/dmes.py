"""Baseline ``dMes``: the paper's Pregel-style vertex-centric comparator.

Section 6 describes it precisely; each superstep, every site (worker):

1. **requests** the Boolean values of all variables of its virtual nodes from
   their owner sites -- whether or not anything changed (this is the
   redundant traffic that makes dMes ship ~2 orders of magnitude more than
   dGPM);
2. receives the replies and **re-evaluates all its local variables** from
   scratch (the vertex-centric model recomputes active vertices; the paper
   grants local evaluation without message passing "for a fair comparison");
3. votes to halt when nothing changed; the coordinator broadcasts STOP once
   every site votes halt in the same superstep.

One superstep spans three engine rounds (request, reply, evaluate+vote), and
falsifications travel one site-hop per superstep, so PT grows with both the
superstep count and the per-superstep full re-evaluation.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, List, Optional, Set, Tuple

from repro.core.config import DgpmConfig
from repro.core.depgraph import DependencyGraphs
from repro.core.protocol import AlgorithmSpec, per_site, run_protocol
from repro.core.state import LocalEvalState, VarKey
from repro.graph.pattern import Pattern
from repro.partition.fragmentation import Fragmentation
from repro.runtime.engine import TickResult
from repro.runtime.messages import COORDINATOR, Message, MessageKind
from repro.runtime.metrics import RunResult


class DmesSiteProgram:
    """Per-site half of dMes."""

    def __init__(
        self,
        fid: int,
        fragmentation: Fragmentation,
        query: Pattern,
        deps: DependencyGraphs,
        config: DgpmConfig,
    ) -> None:
        self.fid = fid
        self.fragment = fragmentation[fid]
        self.query = query
        self.deps = deps
        self.cost = config.cost
        self.config = config
        self.state = LocalEvalState(self.fragment, query)
        self.state.run_initial()
        self.known_false_virtual: Set[VarKey] = set()
        self.stopped = False
        self.supersteps = 0
        #: all label-compatible virtual variables (requested every superstep)
        self.virtual_vars: List[Tuple[VarKey, int]] = []
        graph = self.fragment.graph
        for v in self.fragment.virtual_nodes:
            owner = self.deps.owner_site(self.fid, v)
            for u in query.nodes():
                if query.label(u) == graph.label(v):
                    self.virtual_vars.append(((u, v), owner))

    # ------------------------------------------------------------------
    def _request_messages(self) -> List[Message]:
        # Vertex-centric fidelity: each virtual node's variables are requested
        # by "its" vertex, one message per variable -- re-sent every superstep
        # whether or not anything changed.  This is dMes's hallmark overhead.
        out = []
        for var, owner in self.virtual_vars:
            if var not in self.known_false_virtual:
                out.append(
                    Message(
                        src=self.fid, dst=owner, kind=MessageKind.VAR_REQUEST,
                        payload=[var],
                        size_bytes=self.cost.var_batch_bytes(1),
                    )
                )
        return out

    def _vote(self, changed: bool) -> Message:
        return Message(
            src=self.fid, dst=COORDINATOR, kind=MessageKind.CONTROL,
            payload=("vote", self.fid, changed),
            size_bytes=self.cost.control_flag_bytes,
        )

    # ------------------------------------------------------------------
    def on_start(self) -> TickResult:
        # Superstep 1 begins: request the values of every virtual variable.
        self.supersteps = 1
        messages = self._request_messages()
        messages.append(self._vote(True))
        return TickResult(messages=messages, halted=False)

    def on_tick(self, round_no: int, inbox: List[Message]) -> TickResult:
        """Lockstep supersteps: even rounds evaluate+vote+request, odd answer.

        Every site votes every superstep (even with nothing to report), so
        the coordinator can detect global quiescence.
        """
        if self.stopped:
            # Still answer stragglers' requests after stopping.
            return TickResult(messages=self._answer_requests(inbox), halted=True)

        saw_stop = any(
            m.kind == MessageKind.CONTROL and m.payload == "stop" for m in inbox
        )
        if saw_stop:
            self.stopped = True
            return TickResult(messages=self._answer_requests(inbox), halted=True)

        if round_no % 2 == 1:
            # Reply leg of the superstep.
            return TickResult(messages=self._answer_requests(inbox), halted=False)

        # Evaluation leg: apply received values, recompute all local variables.
        received: Dict[VarKey, bool] = {}
        for message in inbox:
            if message.kind == MessageKind.VAR_VALUES:
                received.update(message.payload)
        newly_false = [var for var, value in received.items() if not value]
        self.known_false_virtual.update(newly_false)
        before = {u: set(vs) for u, vs in self.state.local_matches().items()}
        self.state = LocalEvalState(
            self.fragment, self.query, known_false_virtual=self.known_false_virtual
        )
        self.state.run_initial()
        changed = self.state.local_matches() != before

        self.supersteps += 1
        messages = self._answer_requests(inbox) + self._request_messages()
        messages.append(self._vote(changed))
        return TickResult(messages=messages, halted=False)

    def _answer_requests(self, inbox: List[Message]) -> List[Message]:
        # One reply per request, mirroring the per-vertex request granularity.
        out = []
        for message in inbox:
            if message.kind != MessageKind.VAR_REQUEST:
                continue
            values = {
                (u, v): self.state.is_candidate(u, v) for (u, v) in message.payload
            }
            out.append(
                Message(
                    src=self.fid, dst=message.src, kind=MessageKind.VAR_VALUES,
                    payload=values,
                    size_bytes=self.cost.var_batch_bytes(len(values)),
                )
            )
        return out

    def collect(self) -> Message:
        matches = self.state.local_matches()
        payload = matches
        size = self.cost.var_batch_bytes(sum(len(vs) for vs in matches.values()))
        return Message(
            src=self.fid, dst=COORDINATOR, kind=MessageKind.RESULT,
            payload=payload, size_bytes=size,
        )


class _DmesCoordinator:
    """Counts votes; broadcasts STOP when a full superstep reports no change."""

    def __init__(self, fragmentation: Fragmentation, query: Pattern, cost) -> None:
        self.n_sites = fragmentation.n_fragments
        self.cost = cost
        self.votes: Dict[int, bool] = {}
        self.stopped = False

    def __call__(self, messages: List[Message]) -> List[Message]:
        if self.stopped:
            return []
        for message in messages:
            if message.kind == MessageKind.CONTROL and message.payload[0] == "vote":
                _, fid, changed = message.payload
                self.votes[fid] = changed
        if len(self.votes) == self.n_sites and not any(self.votes.values()):
            self.stopped = True
            return [
                Message(
                    src=COORDINATOR, dst=fid, kind=MessageKind.CONTROL,
                    payload="stop", size_bytes=self.cost.control_flag_bytes,
                )
                for fid in range(self.n_sites)
            ]
        return []


#: dMes's spec: :func:`run_dmes` runs it one-shot; no session serves it.
DMES = AlgorithmSpec(
    name="dmes",
    display_name="dMes",
    build_programs=per_site(
        lambda fid, fragmentation, query, deps, config, compiled: (
            DmesSiteProgram(fid, fragmentation, query, deps, config)
        )
    ),
    make_coordinator=_DmesCoordinator,
    extras={"supersteps": (attrgetter("supersteps"), max)},
)


def run_dmes(
    query: Pattern,
    fragmentation: Fragmentation,
    config: Optional[DgpmConfig] = None,
) -> RunResult:
    """Evaluate ``query`` with the vertex-centric dMes baseline."""
    return run_protocol(DMES, query, fragmentation, config)
