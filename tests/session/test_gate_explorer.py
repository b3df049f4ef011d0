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
edge.  A caller parked on an interruptible step (``apply()`` waiting for
its write hold) may also be interrupted there, in any state it is parked
in, as Ctrl-C would; an interrupt is never counted as a way out of a
deadlock.  The checks:

1. mutual exclusion: a write hold excludes every other hold, and the
   record counts exactly the holds in flight;
2. writer priority: no read is admitted while a writer is active or
   waiting;
3. every admitted write (a blocking writer admitted by its announcement, an
   inline batch by its hold) applies exactly once, before its caller
   returns, unless its caller is interrupted while parked for the hold and
   withdraws it;
4. ``close()`` completes only after every admitted write applied, and no
   write is admitted once the gate is closed;
5. every state that is not final lets some caller move (no deadlock), no
   parked caller's step would admit it (no lost wake-up: a caller parked
   while it could proceed waits for some unrelated gate change), and every
   final state is idle.

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
from repro.session.concurrent import _ADMIT, _WAIT, _Gate, _GateState, _wakes

END = -1

G = _GateState


@dataclass(frozen=True)
class Step:
    """One gate step of a script (``transition=None``: the batch applies)."""

    transition: Optional[Callable]
    #: the caller parks on "wait" (False: it refuses instead)
    wait: bool = True
    #: next position on admit (None: the next step) and on refuse
    admit: Optional[int] = None
    refuse: int = END
    #: next position of a caller interrupted while parked here (None: the
    #: step is not interrupted)
    interrupt: Optional[int] = None


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
#: apply_if_free(): the write hold, only on an idle gate
INLINE_WRITER = Script(
    "inline writer",
    (Step(G.write_inline, wait=False), APPLY, Step(G.write_done, admit=END)),
    writing=frozenset({1, 2}),
)
#: apply(): announce, wait for the write hold, apply, release; an interrupt
#: while parked for the hold withdraws the announcement
BLOCKING_WRITER = Script(
    "blocking writer",
    (
        Step(G.announce),
        Step(G.write, interrupt=4),
        APPLY,
        Step(G.write_done, admit=END),
        Step(G.withdraw, admit=END),
    ),
    writing=frozenset({2, 3}),
    announced=frozenset({1, 4}),
)
#: close(): flip the flag, then take the last write hold
CLOSE = Script(
    "close",
    (Step(G.close), Step(G.drained), Step(G.write_done, admit=END)),
    writing=frozenset({2}),
)

#: the scripts whose write hold applies a batch
WRITERS = (INLINE_WRITER, BLOCKING_WRITER)


class Actor(NamedTuple):
    pc: int
    parked: bool


class World(NamedTuple):
    gate: _GateState
    actors: Tuple[Actor, ...]
    #: the callers whose write was admitted, and those whose batch applied
    admitted: frozenset
    applied: frozenset


class Violation(AssertionError):
    pass


def _check(ok: bool, prop: str, world: World, detail: str = "") -> None:
    if not ok:
        raise Violation(f"property {prop} violated {detail}: {world}")


class Explorer:
    """Depth-first search over every state ``scripts`` can reach."""

    def __init__(self, scripts: Sequence[Script]) -> None:
        self.scripts = tuple(scripts)

    def initial(self) -> World:
        actors = tuple(Actor(0, False) for _ in self.scripts)
        return World(G(), actors, frozenset(), frozenset())

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
                if actor.pc == END:
                    continue
                if actor.parked:
                    after = self.interrupt(world, i)
                    if after is None:
                        continue
                else:
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
    def interrupt(self, world: World, i: int) -> Optional[World]:
        """Parked caller ``i`` is interrupted, if its step allows it: its
        transition never committed, so only its position changes."""
        target = self.scripts[i].steps[world.actors[i].pc].interrupt
        if target is None:
            return None
        return self._with(world, i, Actor(target, False))

    def move(self, world: World, i: int) -> World:
        """Caller ``i`` takes its next step, as :meth:`_Gate.step` would."""
        script = self.scripts[i]
        actor = world.actors[i]
        step = script.steps[actor.pc]
        nxt = actor.pc + 1 if step.admit is None else step.admit
        if step.transition is None:  # the session applies the batch
            _check(
                i in world.admitted and i not in world.applied, "3", world,
                f"({script.name} applies a write not admitted, or twice)",
            )
            return self._with(world, i, Actor(nxt, False), applied=world.applied | {i})
        decision, new = step.transition(world.gate)
        if decision == _WAIT:
            if step.wait:
                return self._with(world, i, actor._replace(parked=True))
            return self._with(world, i, actor._replace(pc=step.refuse))
        admitted = world.admitted
        if decision == _ADMIT:
            name = step.transition.__name__
            if name == "read":
                self._check_read_admission(world, i)
            elif name in ("announce", "write_inline"):
                _check(not world.gate.closed, "4", world, "(admitted after close)")
                admitted |= {i}
            elif name == "withdraw":
                _check(
                    i in admitted and i not in world.applied, "3", world,
                    f"({script.name} withdraws a write not pending)",
                )
                admitted -= {i}
            elif name == "drained":
                _check(
                    world.applied == world.admitted, "4", world,
                    "(close completed before every write applied)",
                )
        else:
            nxt = step.refuse
        if nxt == END and script in WRITERS:
            _check(
                (i in world.applied) == (i in admitted), "3", world,
                f"({script.name} returned before its write applied)",
            )
        actors = list(world.actors)
        actors[i] = actor._replace(pc=nxt, parked=False)
        if _wakes(world.gate, new):
            actors = [a._replace(parked=False) for a in actors]
        return world._replace(gate=new, actors=tuple(actors), admitted=admitted)

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
        for script, actor in zip(self.scripts, world.actors):
            if actor.parked:
                step = script.steps[actor.pc]
                _check(
                    step.transition(world.gate)[0] == _WAIT, "5", world,
                    f"(lost wake-up: {script.name} parked on "
                    f"{step.transition.__name__})",
                )
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
        BLOCKING_READER, INLINE_READER, BLOCKING_WRITER, INLINE_WRITER, CLOSE
    ),
    "two-drainers-inline": (
        BLOCKING_READER, BLOCKING_WRITER, BLOCKING_WRITER, INLINE_WRITER
    ),
    "two-each-close": (
        BLOCKING_READER, BLOCKING_READER, BLOCKING_WRITER, BLOCKING_WRITER, CLOSE
    ),
    "inline-races-drainers-close": (
        INLINE_WRITER, INLINE_WRITER, BLOCKING_WRITER, BLOCKING_WRITER, CLOSE
    ),
    # a writer interrupted while it bars readers from the read hold
    "interrupted-writer-readers": (
        BLOCKING_READER, BLOCKING_READER, INLINE_READER, BLOCKING_WRITER
    ),
    "interrupted-writers-close": (
        BLOCKING_READER, BLOCKING_WRITER, BLOCKING_WRITER, CLOSE
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


def test_a_forgotten_withdraw_wake_up_is_caught(monkeypatch):
    """A gate that forgets to wake the readers parked behind an announced
    writer when it withdraws (interrupted while parked) is caught: the
    readers would wait for the other readers to finish, for nothing."""
    import repro.session.concurrent as concurrent

    wakes = concurrent._wakes

    def forgetful(old, new):
        withdrawn = new == old._replace(writers_waiting=old.writers_waiting - 1)
        return wakes(old, new) and not withdrawn

    monkeypatch.setattr(concurrent, "_wakes", forgetful)
    monkeypatch.setitem(globals(), "_wakes", forgetful)
    with pytest.raises(Violation, match="property 5 violated .lost wake-up"):
        Explorer(ACTOR_SETS["interrupted-writer-readers"]).run()


def test_an_interrupt_is_no_way_out_of_a_deadlock():
    """A writer whose hold never comes is a deadlock, although a parked
    writer may always be interrupted: interrupts model Ctrl-C, not a
    scheduler, so they never count as progress."""

    def never(gate):
        return _WAIT, gate

    steps = list(BLOCKING_WRITER.steps)
    steps[1] = Step(never, interrupt=steps[1].interrupt)
    stuck = BLOCKING_WRITER._replace(name="stuck writer", steps=tuple(steps))
    with pytest.raises(Violation, match=r"property 5 violated \(deadlock\)"):
        Explorer([BLOCKING_READER, stuck]).run()


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
        """A lone apply() takes its own write hold: three gate steps."""
        server, gate, _, edges = server
        server.apply([DeleteEdge(*edges[0])])
        assert gate.steps == Explorer([BLOCKING_WRITER]).trace()
        assert len(gate.steps) == 3

    def test_interrupted_apply(self, server):
        """apply() interrupted while parked for its write hold (here behind
        a read hold) steps through its script's interrupt path."""
        server, gate, _, edges = server

        class Interrupt(BaseException):
            pass

        class Interrupted(type(gate._cond)):
            def wait(self, timeout=None):
                raise Interrupt

        gate._cond = Interrupted()
        with gate.reading():
            with pytest.raises(Interrupt):
                server.apply([DeleteEdge(*edges[0])])
        announce, write = BLOCKING_WRITER.steps[:2]
        withdraw = BLOCKING_WRITER.steps[write.interrupt]
        path = [s.transition.__name__ for s in (announce, write, withdraw)]
        assert gate.steps == ["read", *path, "read_done"]
        assert gate._state == G() and server.stamp == 0

    def test_close(self, server):
        server, gate, _, _ = server
        server.close()
        assert gate.steps == Explorer([CLOSE]).trace()
        assert gate._state == G(closed=True)
