"""Warm-state insertion: re-open the pairs an edge can revive, nothing else.

Drives :meth:`IncrementalMatchState.apply` directly (``PatchedState``: always
warm, so every insert runs the insertion repair) and checks, after *every*
step, the answer against the oracle and the state invariants later
repairs rely on: exact successor counters, and virtual copies that agree
with their owners.  Small graphs take the bootstrap fallback often; the
padded ones stay on the targeted path.
"""

from __future__ import annotations

import random
from unittest import mock

import pytest

from repro import SimulationSession, partition, simulation, web_graph
from repro.bench.workloads import cyclic_pattern
from repro.core.depgraph import DependencyGraphs
from repro.core.incremental import IncrementalMatchState
from repro.graph.digraph import DiGraph
from repro.graph.mutations import DeleteEdge, InsertEdge
from repro.graph.pattern import Pattern
from repro.partition.fragmentation import fragment_graph
from tests.conftest import PatchedState, warm_entries

N_CORE, N_FRAGMENTS, N_STEPS, N_PADDING = 14, 3, 60, 60


def _instance(rng: random.Random, padding: int):
    """A 14-node / 2-label / 3-fragment graph (plus isolated padding nodes,
    which only widen the fallback threshold) and a random 2-4-node pattern."""
    n = N_CORE + padding
    graph = DiGraph({i: rng.choice("AB") for i in range(n)})
    for _ in range(rng.randint(10, 40)):
        graph.add_edge(rng.randrange(N_CORE), rng.randrange(N_CORE))
    assignment = {i: i % N_FRAGMENTS for i in range(n)}
    qn = rng.randint(2, 4)
    edges = {(rng.randrange(qn), rng.randrange(qn)) for _ in range(rng.randint(1, 2 * qn))}
    query = Pattern({i: rng.choice("AB") for i in range(qn)}, sorted(edges))
    return graph, fragment_graph(graph, assignment), query


def _check(session: PatchedState, graph: DiGraph, context):
    """Oracle + counter + copy invariants; returns the (checked) relation."""
    query = session.query
    relation = session.relation()
    assert relation == simulation(query, graph), context
    parented = [q for q in query.nodes() if query.parents(q)]
    programs = session.state.programs
    for fid, program in programs.items():
        state, fragment = program.state, program.fragment
        for b in parented:
            for x in fragment.local_nodes:
                succ = fragment.graph.successors(x)
                expected = sum(1 for s in succ if s in state.sim[b])
                assert state.count[(x, b)] == expected, (context, fid, x, b)
            for v in fragment.virtual_nodes:
                if graph.label(v) == query.label(b):
                    owner = programs[fragment.owner_of_virtual(v)].state
                    assert (v in state.sim[b]) == (v in owner.sim[b]), (context, fid, v, b)
    return relation


def _pairs(relation) -> set:
    """The relation's pairs before the emptiness collapse."""
    return {(q, v) for q in relation.query_nodes() for v in relation.raw_matches_of(q)}


def _audit_changes(cost, before, after, context) -> None:
    """The repair's change set is exactly the answer's net change: every
    pair once, none a virtual copy's, none re-opened and falsified again."""
    old, new = _pairs(before), _pairs(after)
    assert sorted(cost.added, key=repr) == sorted(new - old, key=repr), context
    assert sorted(cost.removed, key=repr) == sorted(old - new, key=repr), context


def _churn(rng: random.Random, padding: int) -> set:
    """One 60-step delete/insert sequence; returns the insert strategies seen."""
    graph, frag, query = _instance(rng, padding)
    session = PatchedState(query, frag)
    relation = _check(session, graph, "initial")
    strategies = set()
    for step in range(N_STEPS):
        u, v = rng.randrange(N_CORE), rng.randrange(N_CORE)
        before = relation
        if graph.has_edge(u, v):
            cost = session.mutate("delete_edge", u, v)
            graph.remove_edge(u, v)
        else:
            cost = session.mutate("insert_edge", u, v)
            strategies.add(cost.strategy)
            graph.add_edge(u, v)
        relation = _check(session, graph, (step, u, v))
        _audit_changes(cost, before, relation, (step, u, v))
    return strategies


def _run_suite(seed: int, n_sequences: int = 6) -> set:
    strategies = set()
    for i in range(n_sequences):
        for padding in (0, N_PADDING):
            strategies |= _churn(random.Random(f"{seed}/{i}/{padding}"), padding)
    return strategies


@pytest.mark.parametrize("case", range(8))
def test_every_step_matches_the_oracle_and_keeps_the_state_exact(case, rng_seed):
    # Both sides of the fallback, and the no-seed case (""), were exercised.
    assert _run_suite(rng_seed) == {"", "targeted", "bootstrap"}


# ---------------------------------------------------------------------------
# seeded mutants: each drops one obligation of the repair and must be caught
# ---------------------------------------------------------------------------
def _shipped_stays_marked(real):
    def reopen(self, q, x):
        shipped = self.programs[self.fragmentation.owner(x)].shipped
        was = (q, x) in shipped
        real(self, q, x)
        if was:
            shipped.add((q, x))
    return reopen


def _watchers_not_reopened(real):
    def reopen(self, q, x):
        with mock.patch.object(DependencyGraphs, "watcher_sites", lambda *_: set()):
            real(self, q, x)
    return reopen


def _closure_ignores_query_parents(real):
    def revivable(self, delta):
        region = real(self, delta)
        query = self.query
        seeds = {
            (a, delta.u)
            for a, b in query.edges()
            if (query.label(a), query.label(b)) == (delta.u_label, delta.v_label)
        }
        return region and [pair for pair in region if pair in seeds]
    return revivable


@pytest.mark.parametrize(
    "method, mutant",
    [
        ("_reopen", _shipped_stays_marked),
        ("_reopen", _watchers_not_reopened),
        ("_revivable", _closure_ignores_query_parents),
    ],
)
def test_seeded_mutants_fail_the_suite(method, mutant, monkeypatch):
    real = getattr(IncrementalMatchState, method)
    monkeypatch.setattr(IncrementalMatchState, method, mutant(real))
    with pytest.raises(AssertionError):
        for seed in range(8):
            _run_suite(seed)


def test_a_stale_virtual_candidacy_is_not_in_the_change_set():
    """Falsifications of a parentless query node never ship, so a virtual
    copy of such a pair can stay true after its owner falsified it.  Removing
    the node must not report the pair: it was never in the answer."""
    graph = DiGraph({"x": "A", "y": "B", "u": "A", "w": "A"})
    graph.add_edge("x", "y")
    graph.add_edge("w", "u")  # u: a virtual copy at fragment 1
    frag = fragment_graph(graph, {"x": 0, "y": 0, "u": 0, "w": 1})
    query = Pattern({"a": "A", "b": "B"}, [("a", "b")])
    session = PatchedState(query, frag)
    copy = session.state.programs[1].state
    assert "u" in copy.sim["a"] and not session.state.programs[0].state.is_candidate("a", "u")
    before = session.relation()
    cost = session.mutate("remove_node", "u")
    graph.remove_node("u")
    after = _check(session, graph, "remove u")
    _audit_changes(cost, before, after, "remove u")
    assert (cost.added, cost.removed) == ((), ())


# ---------------------------------------------------------------------------
# wrong answer at the parent commit: a label-irrelevant insert that created
# the source fragment's first virtual copy of v never added the copy to sim
# ---------------------------------------------------------------------------
def _first_copy_instance():
    nodes = {"u1": "X", "u2": "A", "v": "B"}
    # isolated; enough label-compatible pairs that one revival stays targeted
    nodes.update({f"p{i}": "A" for i in range(10)})
    graph = DiGraph(nodes)
    frag = fragment_graph(graph, {n: int(n == "v") for n in nodes})
    return graph, frag, Pattern({"a": "A", "b": "B"}, [("a", "b")])


def test_first_virtual_copy_from_an_irrelevant_insert_is_a_candidate():
    graph, frag, query = _first_copy_instance()
    session = PatchedState(query, frag)
    assert session.mutate("insert_edge", "u1", "v").strategy == ""
    update = session.mutate("insert_edge", "u2", "v")
    assert (update.strategy, update.n_reopened) == ("targeted", 1)
    graph.add_edge("u1", "v")
    graph.add_edge("u2", "v")
    assert session.relation() == simulation(query, graph)
    assert session.relation().as_dict() == {"a": {"u2"}, "b": {"v"}}


def test_first_virtual_copy_through_a_warm_session_entry():
    graph, frag, query = _first_copy_instance()
    graph.add_edge("u2", "v")  # a witness edge to delete, so the entry turns warm
    frag = fragment_graph(graph, {n: int(n == "v") for n in graph.nodes()})
    session = SimulationSession(frag)
    session.run(query)
    session.run(query)
    session.apply([DeleteEdge("u2", "v")])  # promotes; v leaves the source's Fi.O
    assert len(warm_entries(session)) == 1
    session.apply([InsertEdge("u1", "v")])
    session.apply([InsertEdge("u2", "v")])
    served = session.run(query)
    assert served.metrics.extras.get("cache_hit") == 1.0
    assert served.relation == simulation(query, graph)
    assert served.relation.as_dict() == {"a": {"u2"}, "b": {"v"}}


# ---------------------------------------------------------------------------
# the serving benchmark's shape: counters stand in for the frozen instrument
# ---------------------------------------------------------------------------
def test_benchmark_shaped_reinsert_is_targeted_and_small(monkeypatch):
    graph = web_graph(1000, 5000, seed=7)
    session = SimulationSession(partition(graph, 16, 7, vf_ratio=0.25))
    query = cyclic_pattern(graph, 4, 6, seed=3)
    before = simulation(query, graph)
    matched = before.as_dict()
    # As benchmarks/serving picks them: u's only witness for a query edge.
    witness = next(
        (u, targets[0])
        for a, b in query.edges()
        for u in sorted(matched[a])
        for targets in [[v for v in graph.successors(u) if v in matched[b]]]
        if len(targets) == 1
    )
    session.run(query)
    session.run(query)
    session.apply([DeleteEdge(*witness)])  # promotes the entry (one bootstrap)
    assert len(warm_entries(session)) == 1
    without = simulation(query, graph)
    assert without.is_match and without != before

    bootstraps, costs = [], []
    real_bootstrap = IncrementalMatchState.bootstrap
    real_apply = IncrementalMatchState.apply
    monkeypatch.setattr(
        IncrementalMatchState, "bootstrap",
        lambda self: bootstraps.append(self) or real_bootstrap(self),
    )
    monkeypatch.setattr(
        IncrementalMatchState, "apply",
        lambda self, delta: costs.append(real_apply(self, delta)) or costs[-1],
    )
    for _ in range(3):
        assert session.apply([InsertEdge(*witness)])[0].cache_repaired == 1
        assert session.run(query).relation == simulation(query, graph) == before
        assert session.apply([DeleteEdge(*witness)])[0].cache_repaired == 1
        assert session.run(query).relation == simulation(query, graph) == without
    assert bootstraps == []
    inserts, deletes = costs[0::2], costs[1::2]
    assert [cost.strategy for cost in inserts] == ["targeted"] * 3
    assert all(0 < cost.n_reopened <= 32 for cost in inserts)
    assert all(cost.changed and cost.n_reopened == 0 for cost in deletes)
    assert session.stats.entries_promoted == 1 and session.stats.entries_evicted == 0
