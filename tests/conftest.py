"""Shared fixtures for the test suite."""

from __future__ import annotations

import pickle
import random
import zlib

import pytest

from repro.core.depgraph import DependencyGraphs
from repro.core.incremental import IncrementalMatchState, RepairCost
from repro.graph.digraph import DiGraph
from repro.graph.pattern import Pattern
from repro.partition.fragmentation import fragment_graph
from repro.session.cache import CacheEntry


@pytest.fixture
def rng_seed(request) -> int:
    """Deterministic per-test seed derived from the test's node id.

    Every parametrized case gets its own seed (the node id includes the
    parameters), the derivation is stable across processes (unlike ``hash``
    of a string, which is salted), and the seed is printed so a failure can
    be replayed exactly: ``random.Random(<printed seed>)``.
    """
    seed = zlib.crc32(request.node.nodeid.encode("utf-8"))
    print(f"[rng] {request.node.nodeid} seed={seed}")
    return seed


@pytest.fixture
def rng(rng_seed) -> random.Random:
    """A :class:`random.Random` seeded per test via ``rng_seed``.

    Use this instead of bare ``random.Random(0)`` in randomized/metamorphic
    suites: failures replay from the printed seed, and distinct tests stop
    sharing (and silently depending on) one hard-coded stream.
    """
    return random.Random(rng_seed)


class _TouchOnLoad:
    """Unpickling this creates the file at ``path``."""

    def __init__(self, path: str) -> None:
        self.path = path

    def __reduce__(self):
        return (open, (self.path, "w"))


@pytest.fixture
def pickle_bomb(tmp_path):
    """``(pickle bytes, sentinel path)``: whoever ``pickle.loads`` the bytes
    creates the sentinel, so its absence proves nobody did."""
    sentinel = tmp_path / "unpickled"
    return pickle.dumps(_TouchOnLoad(str(sentinel))), sentinel


@pytest.fixture
def triangle_graph() -> DiGraph:
    """A 3-cycle A -> B -> C -> A with one dangling D node."""
    return DiGraph(
        {"a": "A", "b": "B", "c": "C", "d": "D"},
        [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")],
    )


@pytest.fixture
def triangle_query() -> Pattern:
    """The pattern matching the 3-cycle."""
    return Pattern({"qa": "A", "qb": "B", "qc": "C"}, [("qa", "qb"), ("qb", "qc"), ("qc", "qa")])


@pytest.fixture
def chain_graph() -> DiGraph:
    """A labeled chain x0 -> x1 -> ... -> x5 with alternating labels."""
    labels = {f"x{i}": ("E" if i % 2 == 0 else "O") for i in range(6)}
    edges = [(f"x{i}", f"x{i+1}") for i in range(5)]
    return DiGraph(labels, edges)


def random_instance(seed: int, max_nodes: int = 25, labels: str = "ABC"):
    """A (graph, pattern) pair used by randomized tests."""
    rng = random.Random(seed)
    n = rng.randint(2, max_nodes)
    graph = DiGraph({i: rng.choice(labels) for i in range(n)})
    for _ in range(rng.randint(0, 4 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            graph.add_edge(u, v)
    qn = rng.randint(1, 4)
    pattern = Pattern(
        {i: rng.choice(labels) for i in range(qn)},
        [(rng.randrange(qn), rng.randrange(qn)) for _ in range(rng.randint(0, 2 * qn))],
    )
    return graph, pattern


def web_1k_query() -> Pattern:
    """The 4-node cyclic pattern behind every protocol literal recorded on
    ``web_graph(1000, 5000, seed=3)`` (``GOLDEN["web_1k", *]`` and 483 /
    19,104 / 3).  It is what ``cyclic_pattern(graph, 4, 6, seed=1)`` returned
    when those literals were recorded; spelled out so that a change to the
    workload generator cannot move the instance under them."""
    return Pattern(
        {"q0": "dom2", "q1": "dom13", "q2": "dom1", "q3": "dom1"},
        [("q0", "q1"), ("q0", "q2"), ("q1", "q2"), ("q2", "q0"), ("q2", "q3"), ("q3", "q2")],
    )


def cache_entry(result) -> CacheEntry:
    """A table entry around an opaque ``result`` (for cache unit tests)."""
    return CacheEntry(result=result, query=None, algorithm="")


def warm_entries(session) -> list:
    """The session's cached entries holding a warm incremental state, least
    recently served first."""
    return [entry for _, entry in session._cache.items() if entry.warm is not None]


class PatchedState:
    """Drives ``IncrementalMatchState.apply`` by its contract -- patch the
    fragmentation, patch ``deps``, hand over the delta -- on a private copy
    of ``fragmentation`` (the caller's graph stays the oracle's to mutate)."""

    def __init__(self, query, fragmentation, config=None) -> None:
        graph = fragmentation.graph.copy()
        owners = {v: fragmentation.owner(v) for v in graph.nodes()}
        self.fragmentation = fragment_graph(graph, owners)
        self.deps = DependencyGraphs(self.fragmentation)
        self.state = IncrementalMatchState(query, self.fragmentation, self.deps, config)
        self.query, self.relation = query, self.state.relation

    def mutate(self, op: str, *args) -> RepairCost:
        """``op`` names the fragmentation's mutator: ``"delete_edge"``, ..."""
        delta = getattr(self.fragmentation, op)(*args)
        self.deps.apply_delta(delta)
        return self.state.apply(delta)
