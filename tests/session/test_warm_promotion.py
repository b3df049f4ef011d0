"""Warm states are built by the first write that needs them, never by a read.

Count-based and deterministic (no clocks): a spy on
``IncrementalMatchState.__init__`` counts every bootstrap fixpoint the
session pays.  Read-only traffic must pay none, however many hot patterns
rotate through however few slots; a relevant mutation pays one per affected
entry among the ``max_warm_states`` most recently served hot ones, once.
"""

from __future__ import annotations

import pytest

from repro import SimulationSession, partition, simulation, web_graph
from repro.bench.workloads import cyclic_pattern
from repro.core.incremental import (
    IncrementalMatchState,
    edge_update_may_change_answer,
)
from repro.graph.mutations import AddNode, DeleteEdge, InsertEdge
from repro.graph.pattern import Pattern
from tests.conftest import warm_entries

N_PATTERNS = 32


@pytest.fixture()
def built(monkeypatch):
    """The queries whose warm state was constructed, in order."""
    constructed = []
    original = IncrementalMatchState.__init__

    def spy(self, query, *args, **kwargs):
        constructed.append(query)
        original(self, query, *args, **kwargs)

    monkeypatch.setattr(IncrementalMatchState, "__init__", spy)
    return constructed


def _distinct_patterns(session, graph, n):
    """``n`` matching patterns with pairwise different cache keys."""
    patterns, digests, seed = [], set(), 0
    while len(patterns) < n:
        q = cyclic_pattern(graph, 3, 4, seed=seed)
        seed += 1
        digest = session.canonical_form_of(q).digest
        if digest not in digests:
            digests.add(digest)
            patterns.append(q)
    return patterns


def _edge_with_labels(graph, pair):
    return next(
        (u, v)
        for u, v in graph.edges()
        if (graph.label(u), graph.label(v)) == pair
    )


def test_reads_build_nothing_and_the_first_relevant_write_promotes(built):
    graph = web_graph(1000, 5000, n_labels=6, seed=7)
    session = SimulationSession(partition(graph, 4, seed=7)).warm()
    patterns = _distinct_patterns(session, graph, N_PATTERNS)

    # (a) 32 hot patterns rotating over 8 slots, reads only: no fixpoint.
    for _ in range(5):
        for q in patterns:
            assert session.run(q).relation == simulation(q, graph)
    assert session.stats.cache_misses == N_PATTERNS
    assert built == [] and len(warm_entries(session)) == 0
    assert session.stats.entries_promoted == 0

    # (b) one relevant delete: exactly the affected entries among the 8 most
    # recently served hot ones are promoted; the other affected ones go.
    slots = patterns[-session.max_warm_states:]

    def affected(queries, pair):
        return [q for q in queries if edge_update_may_change_answer(q, *pair)]

    # The label pair most of the eight carry (six of them here).
    pair = max(
        sorted({(q.label(a), q.label(b)) for q in slots for a, b in q.edges()}),
        key=lambda pair: len(affected(slots, pair)),
    )
    promoted = affected(slots, pair)
    evicted = affected(patterns[:-len(slots)], pair)
    assert len(promoted) > 1 and evicted
    u, v = _edge_with_labels(graph, pair)
    before = {id(q): session.run(q).relation for q in slots}
    outcome = session.apply([DeleteEdge(u, v)])[0]
    assert [id(q) for q in built] == [id(q) for q in promoted]
    assert session.stats.entries_promoted == len(promoted) == len(warm_entries(session))
    assert outcome.cache_evicted == len(evicted)
    assert outcome.cache_kept + outcome.cache_repaired == N_PATTERNS - len(evicted)
    for q in slots:
        served = session.run(q)
        assert served.relation == simulation(q, graph)
        assert served.metrics.extras.get("cache_hit") == 1.0
        changed = served.relation != before[id(q)]
        assert (served.metrics.extras.get("maintained", 0) >= 1) == changed

    # (c) the re-insert and ten more relevant pairs repair through the
    # states the first write built: no construction, no further eviction.
    session.apply([InsertEdge(u, v)])
    for _ in range(10):
        u, v = _edge_with_labels(graph, pair)
        for op in (DeleteEdge, InsertEdge):
            session.apply([op(u, v)])
            for q in promoted:
                served = session.run(q)
                assert served.relation == simulation(q, graph)
                assert served.metrics.extras.get("cache_hit") == 1.0
    assert len(built) == len(promoted)
    assert session.stats.entries_evicted == len(evicted)
    assert session.stats.entries_promoted == len(promoted)

    # (d) a mutation no cached query can see promotes (and evicts) nothing.
    session.apply([AddNode("fresh", "zz-unused")])
    session.apply([AddNode("fresher", "zz-unused")])
    session.apply([InsertEdge("fresh", "fresher")])
    assert len(built) == len(promoted)
    assert session.stats.entries_evicted == len(evicted)
    assert session.stats.invalidations == 0


@pytest.mark.parametrize("max_warm_states", [0, 1])
def test_few_or_no_slots_serve_hits_and_relevant_writes(max_warm_states, built):
    """Regression: ``max_warm_states=0`` crashed the second identical query
    (``popitem`` on the empty warm set); 0 means "never build a state"."""
    graph = web_graph(200, 800, n_labels=3, seed=6)
    session = SimulationSession(
        partition(graph, 2, seed=6), max_warm_states=max_warm_states
    )
    q = Pattern({"a": "dom0", "b": "dom1"}, [("a", "b")])
    session.run(q)
    assert session.run(q).metrics.extras.get("cache_hit") == 1.0
    edge = _edge_with_labels(graph, ("dom0", "dom1"))
    [outcome] = session.apply([DeleteEdge(*edge)])
    assert len(built) == len(warm_entries(session)) == max_warm_states
    assert outcome.cache_evicted == 1 - max_warm_states
    assert session.run(q).relation == simulation(q, graph)
    assert session.run(q).metrics.extras.get("cache_hit") == 1.0
