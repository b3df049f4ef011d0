"""Every reachable state of the server's admission gate, checked.

:class:`~repro.session.concurrent.ConcurrentSessionServer` admits its
callers through one :class:`~repro.session.concurrent._Gate`: a condition
variable over an immutable :class:`~repro.session.concurrent._GateState`
whose methods are pure transitions.  Each server method that touches the
gate is a straight-line sequence of those transitions with session work in
between; the scripts below are those sequences.  The explorer runs the
*production* transitions, under a model of :meth:`_Gate.step` (commit on
admit or refuse, park on wait, wake every parked caller when
:func:`~repro.session.concurrent._wakes` says so), over every reachable
(record, caller positions) state -- a depth-first search with a visited
set, never an enumeration of interleavings -- and checks on every state or
edge:

1. mutual exclusion: a write hold excludes every other hold, and the
   record counts exactly the holds in flight;
2. writer priority: no read is admitted while a writer is active or
   waiting;
3. tickets are applied in admission order, none lost and none twice (an
   inline batch is admitted by its claim), and a ticket's owner sees it
   applied only after it was;
4. ``close()`` completes only after every admitted ticket is applied, and
   nothing is admitted after it;
5. every state that is not final lets some caller move (no deadlock, no
   lost wake-up), and every final state is idle with an empty queue.

:class:`TestScriptsAreTheServer` pins the scripts to the code: each server
method, run once uncontended against a recording gate, steps through
exactly its script's transitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import pytest

from repro import ConcurrentSessionServer, partition, web_graph
from repro.bench.workloads import cyclic_pattern
from repro.graph.mutations import DeleteEdge
from repro.session.concurrent import (
    _ADMIT,
    _WAIT,
    _Gate,
    _GateState,
    _wakes,
    _WriteTicket,
)

END = -1

G = _GateState


@dataclass(frozen=True)
class Step:
    """One gate step of a script (``transition=None``: the batch applies)."""

    transition: Optional[Callable]
    #: the caller parks on "wait" (False: it refuses instead)
    wait: bool = True
    #: the transition takes the caller's ticket
    ticket: bool = False
    #: next position on admit (None: the next step) and on refuse
    admit: Optional[int] = None
    refuse: int = END


APPLY = Step(None)


class Script(NamedTuple):
    name: str
    steps: Tuple[Step, ...]
    #: positions inside a read hold / a write hold
    reading: frozenset = frozenset()
    writing: frozenset = frozenset()
    #: positions of an announced writer not yet admitted
    announced: frozenset = frozenset()


#: submit(): a hit reads on the calling thread if it needs no wait; any
#: other request is served on the pool (_serve)
INLINE_READER = Script(
    "inline reader",
    (
        Step(G.read, wait=False, refuse=2),
        Step(G.read_done, admit=END),
        Step(G.read),
        Step(G.read_done, admit=END),
    ),
    reading=frozenset({1, 3}),
)
#: _serve(), partition_snapshot(), shard_stats(), subscribe()
BLOCKING_READER = Script(
    "blocking reader",
    (Step(G.read), Step(G.read_done, admit=END)),
    reading=frozenset({1}),
)
#: apply_if_free(): claim the write hold and the drainer role at once
INLINE_WRITER = Script(
    "inline writer",
    (Step(G.write_inline, wait=False), APPLY, Step(G.inline_done, admit=END)),
    writing=frozenset({1, 2}),
)
#: _mutate(): enqueue, then either drain the queue as the drainer (each
#: take finishes the batch in hand) or wait until a drainer applied the ticket
QUEUED_WRITER = Script(
    "queued writer",
    (
        Step(G.enqueue, ticket=True),
        Step(G.claim, ticket=True),
        Step(G.take),
        Step(G.announce),
        Step(G.write),
        APPLY,
        Step(G.write_done, admit=2),
    ),
    writing=frozenset({5, 6}),
    announced=frozenset({4}),
)
#: close() on the thread backend
CLOSE = Script("close", (Step(G.close), Step(G.drained, admit=END)))


class Actor(NamedTuple):
    pc: int
    parked: bool
    #: the tickets this caller's write hold applies
    batch: Tuple[_WriteTicket, ...]


class World(NamedTuple):
    gate: _GateState
    actors: Tuple[Actor, ...]
    #: tickets in admission order, and in the order they were applied
    admitted: Tuple[_WriteTicket, ...]
    applied: Tuple[_WriteTicket, ...]
    closed_down: bool


class Violation(AssertionError):
    pass


def _check(ok: bool, prop: str, world: World, detail: str = "") -> None:
    if not ok:
        raise Violation(f"property {prop} violated {detail}: {world}")


class Explorer:
    """Depth-first search over every state ``scripts`` can reach."""

    def __init__(self, scripts: Sequence[Script]) -> None:
        self.scripts = tuple(scripts)
        self.tickets = tuple(_WriteTicket([]) for _ in self.scripts)

    def initial(self) -> World:
        actors = tuple(
            Actor(0, False, (ticket,) if script is INLINE_WRITER else ())
            for script, ticket in zip(self.scripts, self.tickets)
        )
        return World(G(), actors, (), (), False)

    def run(self) -> int:
        """Explore everything; returns the number of states reached."""
        start = self.initial()
        seen = {start}
        stack = [start]
        while stack:
            world = stack.pop()
            self._check_state(world)
            moved = False
            for i, actor in enumerate(world.actors):
                if actor.pc == END or actor.parked:
                    continue
                moved = True
                after = self.move(world, i)
                if after not in seen:
                    seen.add(after)
                    stack.append(after)
            final = all(a.pc == END for a in world.actors)
            _check(moved or final, "5", world, "(deadlock)")
            if final:
                _check(
                    world.gate == G(closed=world.gate.closed), "5", world,
                    "(final state not idle)",
                )
                _check(world.applied == world.admitted, "3", world, "(ticket lost)")
        return len(seen)

    def trace(self) -> List[str]:
        """The transitions a lone caller steps through (one path)."""
        assert len(self.scripts) == 1
        world, names = self.initial(), []
        while world.actors[0].pc != END:
            step = self.scripts[0].steps[world.actors[0].pc]
            if step.transition is not None:
                names.append(step.transition.__name__)
            world = self.move(world, 0)
            assert not world.actors[0].parked, "a lone caller parked"
        return names

    # ------------------------------------------------------------------
    def move(self, world: World, i: int) -> World:
        """Caller ``i`` takes its next step, as :meth:`_Gate.step` would."""
        script, ticket = self.scripts[i], self.tickets[i]
        actor = world.actors[i]
        step = script.steps[actor.pc]
        nxt = actor.pc + 1 if step.admit is None else step.admit
        if step.transition is None:  # the session applies the batch
            applied = world.applied + actor.batch
            _check(
                applied == world.admitted[: len(applied)], "3", world,
                f"({script.name} applies out of admission order)",
            )
            return self._with(world, i, Actor(nxt, False, actor.batch), applied=applied)
        args = (ticket,) if step.ticket else ()
        decision, new = step.transition(world.gate, *args)
        if decision == _WAIT:
            if step.wait:
                return self._with(world, i, actor._replace(parked=True))
            return self._with(world, i, actor._replace(pc=step.refuse))
        admitted, closed_down = world.admitted, world.closed_down
        if decision == _ADMIT:
            name = step.transition.__name__
            if name == "read":
                self._check_read_admission(world, i)
            elif name in ("enqueue", "write_inline"):
                _check(not closed_down, "4", world, "(admitted after close)")
                admitted += (ticket,)
            elif name == "take":
                actor = actor._replace(batch=new.applying)
            elif name == "drained":
                _check(
                    world.applied == world.admitted, "4", world,
                    "(close completed before every ticket applied)",
                )
                closed_down = True
        else:
            if step.transition is G.claim:
                _check(ticket in world.applied, "3", world, "(owner saw it early)")
            nxt = step.refuse
        actors = list(world.actors)
        actors[i] = actor._replace(pc=nxt, parked=False)
        if _wakes(world.gate, new):
            actors = [a._replace(parked=False) for a in actors]
        return world._replace(
            gate=new, actors=tuple(actors), admitted=admitted, closed_down=closed_down
        )

    @staticmethod
    def _with(world: World, i: int, actor: Actor, **changes) -> World:
        actors = list(world.actors)
        actors[i] = actor
        return world._replace(actors=tuple(actors), **changes)

    def _holders(self, world: World, kind: str) -> List[int]:
        return [
            i for i, (script, actor) in enumerate(zip(self.scripts, world.actors))
            if actor.pc in getattr(script, kind)
        ]

    def _check_state(self, world: World) -> None:
        readers = self._holders(world, "reading")
        writers = self._holders(world, "writing")
        _check(len(writers) <= 1 and not (writers and readers), "1", world)
        _check(
            world.gate.readers == len(readers) and world.gate.writer == bool(writers),
            "1", world, "(the record miscounts the holds)",
        )

    def _check_read_admission(self, world: World, reader: int) -> None:
        writers = self._holders(world, "writing") + self._holders(world, "announced")
        blocking = [i for i in writers if i != reader]
        _check(not blocking, "2", world, "(a read admitted past a writer)")


ACTOR_SETS = {
    "readers-writers-close": (
        BLOCKING_READER, INLINE_READER, QUEUED_WRITER, INLINE_WRITER, CLOSE
    ),
    "two-drainers-inline": (
        BLOCKING_READER, QUEUED_WRITER, QUEUED_WRITER, INLINE_WRITER
    ),
    "two-each-close": (
        BLOCKING_READER, BLOCKING_READER, QUEUED_WRITER, QUEUED_WRITER, CLOSE
    ),
    "inline-races-drainers-close": (
        INLINE_WRITER, INLINE_WRITER, QUEUED_WRITER, QUEUED_WRITER, CLOSE
    ),
}


@pytest.mark.parametrize("actors", list(ACTOR_SETS), ids=list(ACTOR_SETS))
def test_every_reachable_state_keeps_the_five_properties(actors):
    n_states = Explorer(ACTOR_SETS[actors]).run()
    assert n_states > 100  # the search did branch


def test_a_missing_wake_up_is_a_deadlock(monkeypatch):
    """The explorer models parking faithfully: a gate that forgets to wake
    a writer parked behind the last read is caught."""
    import repro.session.concurrent as concurrent

    wakes = concurrent._wakes

    def forgetful(old, new):
        return wakes(old, new) and not (old.readers and not new.readers)

    monkeypatch.setattr(concurrent, "_wakes", forgetful)
    monkeypatch.setitem(globals(), "_wakes", forgetful)
    with pytest.raises(Violation, match="property 5"):
        Explorer(ACTOR_SETS["two-drainers-inline"]).run()


# ----------------------------------------------------------------------
# the scripts are the server's


class _RecordingGate(_Gate):
    def __init__(self) -> None:
        super().__init__()
        self.steps: List[str] = []

    def step(self, transition, *args, **kwargs):
        self.steps.append(transition.__name__)
        return super().step(transition, *args, **kwargs)


@pytest.fixture()
def server():
    graph = web_graph(60, 240, n_labels=4, seed=5)
    frag = partition(graph, 3, seed=5)
    query = cyclic_pattern(graph, 3, 4, seed=5)
    server = ConcurrentSessionServer(frag, backend="thread", n_workers=1)
    server.run(query, algorithm="dgpm")  # cached: the next submit is a hit
    gate = server._gate = _RecordingGate()
    yield server, gate, query, list(graph.edges())
    server.close()


class TestScriptsAreTheServer:
    """Each gate-touching server method, uncontended, steps through exactly
    its script: the model cannot drift from the code."""

    def test_submit_hit(self, server):
        server, gate, query, _ = server
        assert server.submit(query, algorithm="dgpm").done()
        assert gate.steps == Explorer([INLINE_READER]).trace()

    def test_serve(self, server):
        server, gate, query, _ = server
        server._serve(query, "dgpm", None)
        assert gate.steps == Explorer([BLOCKING_READER]).trace()

    def test_apply_if_free(self, server):
        server, gate, _, edges = server
        assert server.apply_if_free([DeleteEdge(*edges[0])]) is not None
        assert gate.steps == Explorer([INLINE_WRITER]).trace()

    def test_mutate_as_the_drainer(self, server):
        server, gate, _, edges = server
        server.delete_edge(*edges[0])
        assert gate.steps == Explorer([QUEUED_WRITER]).trace()

    def test_close(self, server):
        server, gate, _, _ = server
        server.close()
        assert gate.steps == Explorer([CLOSE]).trace()
        assert gate._state == G(closed=True)
