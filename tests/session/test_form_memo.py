"""The session's canonical-form memo, keyed by a pattern's positional shape.

The serving benchmark cannot see the mechanism (a hit is a hit either way),
so it is pinned by counts: a spy on the ``canonical_form`` the session calls
counts every from-scratch canonicalization.  A renamed resubmission (fresh
names, same node order: what every request off the wire is) pays none, a
first sight pays one, and an isomorphic pattern in another node order pays
one and still hits the cached answer.  A Hypothesis property checks that a
memoized form is the form a from-scratch canonicalization gives, including
for the symmetric patterns a small permutation budget leaves ``exact=False``.
"""

from __future__ import annotations

import random
import sys
import threading
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import SimulationSession, partition, simulation, web_graph
from repro.bench.workloads import cyclic_pattern
from repro.graph.pattern import Pattern
from repro.session import session as session_module
from repro.session.cache import canonical_form


@pytest.fixture(scope="module")
def instance():
    graph = web_graph(150, 600, n_labels=5, seed=17)
    return graph, partition(graph, 3, seed=17)


@pytest.fixture()
def canonicalized(monkeypatch):
    """Every pattern the session canonicalizes from scratch, in order."""
    seen = []

    def spy(query, interner=None):
        seen.append(query)
        return canonical_form(query, interner)

    monkeypatch.setattr(session_module, "canonical_form", spy)
    return seen


def _renamed(query: Pattern, names, order=None) -> Pattern:
    """``query`` under ``names`` (one per node, in node order), its nodes
    enumerated by ``order`` (positions; default: unchanged)."""
    nodes = list(query.nodes())
    rename = dict(zip(nodes, names))
    order = range(len(nodes)) if order is None else order
    return Pattern(
        {rename[nodes[i]]: query.label(nodes[i]) for i in order},
        [(rename[a], rename[b]) for a, b in query.edges()],
    )


def _answer(relation, query: Pattern):
    return {u: relation.matches_of(u) for u in query.nodes()}


def test_a_renamed_resubmission_is_not_canonicalized_again(instance, canonicalized):
    graph, frag = instance
    session = SimulationSession(frag)
    query = cyclic_pattern(graph, 4, 5, seed=3)
    n = query.n_nodes
    miss = session.run(query)
    assert len(canonicalized) == 1  # first sight

    for serial in range(3):
        fresh = _renamed(query, [1_000_000 + 8 * serial + i for i in range(n)])
        result = session.run(fresh)
        assert result.metrics.extras["cache_hit"] == 1.0
        assert replace(result.metrics, extras={}) == replace(miss.metrics, extras={})
        assert _answer(result.relation, fresh) == _answer(simulation(fresh, graph), fresh)
    assert len(canonicalized) == 1  # three hits, no second canonicalization


def test_another_node_order_is_canonicalized_once_and_hits(instance, canonicalized):
    graph, frag = instance
    session = SimulationSession(frag)
    query = cyclic_pattern(graph, 4, 5, seed=3)
    session.run(query)
    n = query.n_nodes
    reordered = _renamed(query, [f"r{i}" for i in range(n)], order=range(n)[::-1])
    assert list(reordered.nodes()) != [f"r{i}" for i in range(n)]

    result = session.run(reordered)
    assert len(canonicalized) == 2
    assert result.metrics.extras["cache_hit"] == 1.0
    assert (session.stats.cache_misses, len(session._cache)) == (1, 1)
    oracle = simulation(reordered, graph)
    assert _answer(result.relation, reordered) == _answer(oracle, reordered)

    session.run(_renamed(reordered, [f"s{i}" for i in range(n)]))
    assert len(canonicalized) == 2  # that order's shape is remembered too


def test_the_memo_is_bounded(instance):
    _, frag = instance
    session = SimulationSession(frag)
    for k in range(5000):  # 5000 distinct shapes: four labels in base 9
        digits = [k // 9**i % 9 for i in range(4)]
        session.canonical_form_of(
            Pattern({i: f"L{d}" for i, d in enumerate(digits)}, [(0, 1)])
        )
    assert 0 < len(session._form_memo) <= session_module.FORM_MEMO_SIZE


@st.composite
def shapes(draw):
    """Up to six nodes over two labels: symmetric shapes are frequent."""
    n = draw(st.integers(min_value=1, max_value=6))
    labels = draw(st.lists(st.sampled_from("AB"), min_size=n, max_size=n))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.sets(pairs, max_size=2 * n))
    return Pattern(dict(enumerate(labels)), sorted(edges))


@given(
    shapes(),
    st.sampled_from([1, 2, 5040]),
    st.randoms(use_true_random=False),
)
@example(  # a directed triangle: one class of three, inexact on a budget of 1
    Pattern({0: "A", 1: "A", 2: "A"}, [(0, 1), (1, 2), (2, 0)]), 1, random.Random(0)
)
@settings(max_examples=150, deadline=None)
def test_a_memoized_form_is_the_from_scratch_form(instance, query, budget, rng):
    """With one pattern memoized, a renaming of it (a memo hit) and a copy
    with one edge flipped (a different shape) each get the digest and
    ``exact`` of a from-scratch canonicalization, and an order that agrees
    with that one position-wise on labels and edges.  Budgets 1 and 2
    leave every symmetric pattern ``exact=False``."""
    _, frag = instance
    session = SimulationSession(frag)

    def budgeted(q, interner):
        return canonical_form(q, interner, max_candidates=budget)

    nodes = list(query.nodes())
    flip = (rng.choice(nodes), rng.choice(nodes))
    flipped = Pattern(
        {u: query.label(u) for u in nodes}, sorted(set(query.edges()) ^ {flip})
    )
    renamed = _renamed(query, rng.sample(range(10**6), len(nodes)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(session_module, "canonical_form", budgeted)
        session.canonical_form_of(query)
        memoized = [session.canonical_form_of(p) for p in (renamed, flipped)]

    for pattern, form in zip((renamed, flipped), memoized):
        scratch = budgeted(pattern, session.labels)
        assert (form.digest, form.exact) == (scratch.digest, scratch.exact)
        assert [pattern.label(u) for u in form.order] == [
            pattern.label(u) for u in scratch.order
        ]

        def edges_by_position(order):
            at = {u: i for i, u in enumerate(order)}
            return {(at[a], at[b]) for a, b in pattern.edges()}

        assert edges_by_position(form.order) == edges_by_position(scratch.order)


def test_threads_share_the_memo_without_a_lock(instance, monkeypatch):
    """Eight threads, a 1 µs switch interval and a memo of 16 shapes that
    24 shapes keep clearing: every form is the from-scratch one, and the
    memo is within its bound once the threads are done."""
    _, frag = instance
    session = SimulationSession(frag)
    monkeypatch.setattr(session_module, "FORM_MEMO_SIZE", 16)
    pool = [
        Pattern({i: "AB"[k >> i & 1] for i in range(3)}, [(0, 1), (k % 3, 2)])
        for k in range(48)
    ]
    expected = [canonical_form(q, session.labels).digest for q in pool]
    wrong, errors = [], []

    def reader(seed):
        rng = random.Random(seed)
        try:
            for _ in range(400):
                k = rng.randrange(len(pool))
                renamed = _renamed(pool[k], rng.sample(range(10**6), 3))
                if session.canonical_form_of(renamed).digest != expected[k]:
                    wrong.append(k)
        except Exception as exc:  # reported below; a thread must not die silently
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(s,)) for s in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert (errors, wrong) == ([], [])
    assert len(session._form_memo) <= 16
