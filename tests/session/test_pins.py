"""A standing query pins its cache entry, and its repair delta is the PUSH.

``ConcurrentSessionServer.subscribe`` pins the entry that served the
baseline (``SimulationSession.pin``): warm outside ``max_warm_states``,
never the LRU's victim, and every repair records its change set on the pin.
So an answer-changing batch costs a subscription no query run, no relation
materialized or compared and no site re-merge -- held here by spies and
counters, since the serving benchmark cannot see it.  Also here: the cap on
subscriptions, and the pin across the maintenance that drops cache entries
(a lapsed ``dgpmd`` / ``dgpmt`` precondition, a rebalance), after which
the next PUSH still folds to the oracle.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Set

import pytest

from repro import ConcurrentSessionServer, partition, simulation, web_graph
from repro.bench.workloads import cyclic_pattern
from repro.core.incremental import IncrementalMatchState
from repro.core.state import LocalEvalState
from repro.errors import Overloaded
from repro.graph.mutations import DeleteEdge, InsertEdge
from repro.net.client import connect
from repro.net.server import serve_in_thread
from repro.session import concurrent
from repro.session.session import SimulationSession
from repro.simulation.matchrel import MatchRelation
from tests.session.test_shape_dispatch import TWO_CYCLE, alternating_dag, small_tree

TIMEOUT = 60.0


def _sets(relation) -> Dict[object, Set[object]]:
    return {q: set(vs) for q, vs in relation.as_dict().items()}


class _Folded:
    """A subscriber's view: the baseline with every push folded over it."""

    def __init__(self, baseline) -> None:
        self.view = _sets(baseline.relation)
        self.stamps: List[int] = []

    def __call__(self, _sub_id, stamp, added, removed) -> None:
        self.stamps.append(stamp)
        for q, v in removed:
            self.view[q].remove(v)
        for q, v in added:
            assert v not in self.view[q]
            self.view[q].add(v)


def _subscribe(server, query, algorithm="auto"):
    """Subscribe with a folding callback; returns ``(sub_id, folded)``."""
    folded: List[_Folded] = []
    sub_id, baseline = server.subscribe(
        query, lambda *push: folded[0](*push), algorithm=algorithm
    )
    folded.append(_Folded(baseline))
    return sub_id, folded[0]


def _answer_changing_instance():
    """A graph, its 3-way cut, a query and an edge whose deletion changes
    -- without emptying -- the query's answer."""
    graph = web_graph(150, 600, n_labels=5, seed=17)
    query = cyclic_pattern(graph, 3, 4, seed=0)
    before = simulation(query, graph)
    for u, v in sorted(graph.edges()):
        trial = graph.copy()
        trial.remove_edge(u, v)
        after = simulation(query, trial)
        if after and after != before:
            return graph, partition(graph, 3, seed=17), query, (u, v)
    raise AssertionError("no answer-changing edge in the fixture graph")


def _pinned_entry(server, sub_id):
    pin = server._subs[sub_id][1]
    assert server.session._cache.holds(pin.key.key, pin.entry)
    return pin.entry


# ----------------------------------------------------------------------
# the cost of a batch to a subscription
# ----------------------------------------------------------------------
def test_a_batch_costs_a_subscription_no_run_no_diff_no_merge(monkeypatch):
    """N answer-changing batches under a subscribed-only query: no protocol
    run, no eviction, no promotion, no ``session.run`` from the notifier, no
    relation materialized or compared, and no site merge -- the warm
    state's maintained relation and its change sets carry it all."""
    graph, frag, query, edge = _answer_changing_instance()
    n = 8
    ops = [(InsertEdge if i % 2 else DeleteEdge)(*edge) for i in range(n)]
    calls: Counter = Counter()

    def spy(owner, name):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[f"{owner.__name__}.{name}"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    with ConcurrentSessionServer(frag, backend="thread", n_workers=1) as server:
        sub_id, folded = _subscribe(server, query)
        entry = _pinned_entry(server, sub_id)
        assert entry.warm is not None and entry.pins
        before = server.stats.snapshot()
        for owner, name in [
            (SimulationSession, "run"),
            (SimulationSession, "run_key"),
            (SimulationSession, "pin"),
            (MatchRelation, "as_dict"),
            (MatchRelation, "as_relation"),
            (MatchRelation, "__eq__"),
            (LocalEvalState, "local_matches"),  # the 16-site re-merge
            (IncrementalMatchState, "bootstrap"),
        ]:
            spy(owner, name)
        for op in ops:
            server.apply([op])
        monkeypatch.undo()
        after = server.stats.snapshot()
        assert _pinned_entry(server, sub_id) is entry
    assert calls == Counter()
    assert after.cache_misses == before.cache_misses  # no protocol run
    assert after.cache_evictions == before.cache_evictions
    assert after.entries_evicted == before.entries_evicted
    assert after.entries_promoted == before.entries_promoted
    assert after.entries_repaired - before.entries_repaired == n
    assert folded.stamps == list(range(1, n + 1))
    assert folded.view == _sets(simulation(query, graph))


# ----------------------------------------------------------------------
# what a pin holds the entry out of
# ----------------------------------------------------------------------
def test_a_pinned_entry_is_outside_the_lru_and_the_warm_budget():
    graph, frag, query, edge = _answer_changing_instance()
    others = [cyclic_pattern(graph, 3, 3, seed=s) for s in range(1, 6)]
    with ConcurrentSessionServer(
        frag, backend="thread", cache_size=2, max_warm_states=0
    ) as server:
        sub_id, folded = _subscribe(server, query)
        entry = _pinned_entry(server, sub_id)
        assert entry.warm is not None  # no slot, still warm
        for other in others:
            server.run(other)
        assert server.stats.cache_evictions >= len(others) - 1
        assert _pinned_entry(server, sub_id) is entry
        server.apply([DeleteEdge(*edge)])
        assert folded.stamps == [1]
        assert folded.view == _sets(simulation(query, graph))
        assert server.unsubscribe(sub_id)
        assert entry.pins == ()


def test_subscriptions_past_the_cap_are_refused(monkeypatch):
    graph, frag, query, _edge = _answer_changing_instance()
    monkeypatch.setattr(concurrent, "MAX_SUBSCRIPTIONS", 3)
    with ConcurrentSessionServer(frag, backend="thread") as server:
        ids = [_subscribe(server, query)[0] for _ in range(3)]
        entry = _pinned_entry(server, ids[0])
        with pytest.raises(Overloaded):
            server.subscribe(query, lambda *push: None)
        assert sorted(server._subs) == ids
        assert len(entry.pins) == 3  # the refused one left no pin behind
        server.unsubscribe(ids[0])
        _subscribe(server, query)  # room again
    with serve_in_thread(frag, backend="thread") as srv:
        with connect(srv.address, timeout=TIMEOUT) as client:
            subs = [client.subscribe(query) for _ in range(3)]
            with pytest.raises(Overloaded):
                client.subscribe(query)
            assert client.run(query).relation == simulation(query, graph)
            for sub in subs:
                sub.close()


# ----------------------------------------------------------------------
# maintenance that drops the pinned entry
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "build, algorithm",
    [
        (lambda: (alternating_dag(), TWO_CYCLE, (3, 0)), "auto"),
        (lambda: (alternating_dag(), TWO_CYCLE, (3, 0)), "dgpmd"),
        (small_tree, "auto"),
        (small_tree, "dgpmt"),
    ],
    ids=["dgpmd-auto", "dgpmd", "dgpmt-auto", "dgpmt"],
)
def test_a_lapsed_precondition_re_pins_and_pushes_the_oracle(build, algorithm):
    """The write that takes away the driver's precondition evicts the pinned
    entry; the subscription is evaluated afresh (by ``auto`` when the named
    driver no longer applies), pinned again, and every push folds to the
    oracle at its stamp -- also back across the reverse write."""
    frag, query, (u, v) = build()
    graph = frag.graph
    with ConcurrentSessionServer(frag, backend="thread") as server:
        sub_id, folded = _subscribe(server, query, algorithm)
        first = _pinned_entry(server, sub_id)
        assert first.algorithm in ("dgpmd", "dgpmt")
        server.apply([InsertEdge(u, v)])  # the shape flips: the entry lapses
        assert folded.view == _sets(simulation(query, graph))
        again = _pinned_entry(server, sub_id)
        assert again is not first and again.warm is not None
        server.apply([DeleteEdge(u, v)])
        assert folded.view == _sets(simulation(query, graph))
        assert folded.stamps == sorted(set(folded.stamps))
        assert _pinned_entry(server, sub_id).warm is not None


def test_a_rebalance_under_a_live_subscription():
    graph, frag, query, edge = _answer_changing_instance()
    with ConcurrentSessionServer(frag, backend="thread") as server:
        sub_id, folded = _subscribe(server, query)
        server.apply([DeleteEdge(*edge)])
        assert folded.stamps == [1]
        server.rebalance("repartition", traffic={})
        server.apply([InsertEdge(*edge)])  # re-pinned afresh, diffed from the view
        assert folded.stamps == [1, 2]
        assert folded.view == _sets(simulation(query, graph))
        pinned = _pinned_entry(server, sub_id)
        assert pinned.warm is not None
        misses = server.stats.cache_misses
        server.apply([DeleteEdge(*edge)])  # and repaired again from here on
        assert folded.stamps == [1, 2, 3]
        assert folded.view == _sets(simulation(query, graph))
        assert _pinned_entry(server, sub_id) is pinned
        assert server.stats.cache_misses == misses
