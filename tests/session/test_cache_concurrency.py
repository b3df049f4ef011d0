"""Cache-layer concurrency and canonical-key property tests.

Two halves of one satellite:

* Hypothesis properties of :func:`canonical_query_key` / :func:`canonical_form`:
  isomorphic relabelings/reorderings of a pattern hash identically, edge
  perturbations that break isomorphism never collide (verified against a
  brute-force isomorphism oracle, feasible at pattern sizes), and equal
  digests always come with a label/edge-preserving order correspondence.
* Concurrent hammering of :class:`LruResultCache` and :class:`LabelInterner`:
  parallel get/put/evict never loses an entry untracked, never corrupts
  stats or hit counts, and get-or-compute is single-flight.
"""

from __future__ import annotations

import itertools
import random
import threading
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.pattern import Pattern
from repro.session.cache import (
    LabelInterner,
    LruResultCache,
    canonical_form,
    canonical_query_key,
)
from tests.conftest import cache_entry

LABELS = "AB"


# ----------------------------------------------------------------------
# canonical key properties
# ----------------------------------------------------------------------

@st.composite
def patterns(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=n, max_size=n))
    n_edges = draw(st.integers(min_value=0, max_value=2 * n))
    edges = {
        (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))
        for _ in range(n_edges)
    }
    return Pattern({f"n{i}": labels[i] for i in range(n)},
                   [(f"n{a}", f"n{b}") for a, b in edges])


def _renamed(query: Pattern, rng: random.Random) -> Pattern:
    """An isomorphic copy: nodes renamed, node/edge enumeration reshuffled."""
    nodes = list(query.nodes())
    fresh = [f"m{i}" for i in range(len(nodes))]
    rng.shuffle(fresh)
    rename = dict(zip(nodes, fresh))
    items = [(rename[u], query.label(u)) for u in nodes]
    rng.shuffle(items)
    edges = [(rename[a], rename[b]) for a, b in query.edges()]
    rng.shuffle(edges)
    return Pattern(dict(items), edges)


def _isomorphic(p: Pattern, q: Pattern) -> bool:
    """Brute-force label-preserving digraph isomorphism (|Vq| <= 5 here)."""
    if p.n_nodes != q.n_nodes or p.n_edges != q.n_edges:
        return False
    pn, qn = list(p.nodes()), list(q.nodes())
    p_edges = set(p.edges())
    q_edges = set(q.edges())
    for perm in itertools.permutations(qn):
        mapping = dict(zip(pn, perm))
        if all(p.label(u) == q.label(mapping[u]) for u in pn) and {
            (mapping[a], mapping[b]) for a, b in p_edges
        } == q_edges:
            return True
    return False


class TestCanonicalKeyProperties:
    @given(patterns(), st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_isomorphic_relabelings_hash_identically(self, query, seed):
        other = _renamed(query, random.Random(seed))
        assert canonical_query_key(query) == canonical_query_key(other)

    @given(patterns(), st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_edge_perturbations_do_not_collide(self, query, seed):
        """Flip one edge; unless the result is genuinely isomorphic (checked
        by brute force), the digests must differ."""
        rng = random.Random(seed)
        nodes = list(query.nodes())
        u, v = rng.choice(nodes), rng.choice(nodes)
        edges = set(query.edges())
        edges ^= {(u, v)}  # add or remove (u, v)
        perturbed = Pattern({w: query.label(w) for w in nodes}, sorted(edges))
        keys_equal = canonical_query_key(query) == canonical_query_key(perturbed)
        assert keys_equal == _isomorphic(query, perturbed)

    @given(patterns(), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_equal_digests_ship_a_valid_correspondence(self, query, seed):
        """The orders behind two equal digests really are an isomorphism --
        the property the session's hit-translation relies on."""
        other = _renamed(query, random.Random(seed))
        fq, fo = canonical_form(query), canonical_form(other)
        assert fq.digest == fo.digest and fq.exact and fo.exact
        mapping = dict(zip(fq.order, fo.order))
        assert all(query.label(u) == other.label(mapping[u]) for u in fq.order)
        assert {(mapping[a], mapping[b]) for a, b in query.edges()} == set(
            other.edges()
        )

    def test_interner_keeps_digests_stable(self):
        interner = LabelInterner()
        a = Pattern({"x": "A", "y": "B"}, [("x", "y")])
        b = Pattern({"p": "A", "q": "B"}, [("p", "q")])
        assert canonical_query_key(a, interner) == canonical_query_key(b, interner)

    def test_symmetry_budget_fallback_is_deterministic(self):
        """A pattern too symmetric for the budget still keys deterministically
        (same bytes in -> same digest), just without rename-invariance."""
        big = {f"s{i}": "A" for i in range(9)}
        q1 = Pattern(big)  # 9! permutations > budget, no edges to refine
        q2 = Pattern(dict(big))
        f1 = canonical_form(q1)
        assert not f1.exact
        assert f1.digest == canonical_form(q2).digest


# ----------------------------------------------------------------------
# concurrent hammering
# ----------------------------------------------------------------------

N_THREADS = 8
OPS_PER_THREAD = 300


class TestLruCacheHammer:
    def test_parallel_put_get_evict_loses_no_entry(self):
        """Unique keys from N threads: afterwards every key is accounted for
        exactly once (still cached, aged out by the LRU, or popped), every
        entry's hit count equals the lookups that found it, and so does the
        hit counter."""
        cache = LruResultCache(max_entries=32)
        entries: dict = {}
        found: list = []
        popped: list = []
        corrupt: list = []
        barrier = threading.Barrier(N_THREADS)

        def worker(tid: int) -> None:
            rng = random.Random(tid)
            barrier.wait(timeout=60)
            for i in range(OPS_PER_THREAD):
                key = (tid, i)
                entries[key] = cache_entry(key)  # result == key: corruption shows
                cache.put(key, entries[key])
                probe = (rng.randrange(N_THREADS), rng.randrange(OPS_PER_THREAD))
                got = cache.get(probe)
                if got is not None:
                    found.append(probe)  # list.append is atomic
                    if got.result != probe:
                        corrupt.append((probe, got.result))
                if rng.random() < 0.1:
                    gone = cache.pop(
                        (rng.randrange(N_THREADS), rng.randrange(OPS_PER_THREAD))
                    )
                    if gone is not None:
                        popped.append(gone.result)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive(), "cache hammer deadlocked"

        assert not corrupt, f"cross-key corruption: {corrupt[:3]}"
        assert len(cache) <= 32
        remaining = {key for key, _ in cache.items()}
        assert len(popped) == len(set(popped)), "one entry popped twice"
        assert remaining.isdisjoint(popped)
        # Overflow evictions (not pops) are the counted ones.
        assert len(remaining) + len(popped) + cache.stats.evictions == len(entries), (
            "a key vanished untracked"
        )
        # A failed get() counts nothing (the get_or_compute serving the
        # miss would); the hit bump happens under the lock that found the
        # entry, so none is lost.
        assert cache.stats.misses == 0
        assert cache.stats.hits == len(found)
        lookups = Counter(found)
        assert all(entry.hits == lookups[key] for key, entry in entries.items())

    def test_get_or_compute_is_single_flight(self):
        cache = LruResultCache(max_entries=8)
        calls: list = []
        gate = threading.Event()
        barrier = threading.Barrier(N_THREADS)

        started = threading.Event()

        def compute():
            calls.append(1)  # list.append is atomic
            started.set()
            gate.wait(timeout=60)  # hold everyone in the coalescing window
            return cache_entry("value")

        outcomes: list = []

        def worker():
            barrier.wait(timeout=60)
            outcomes.append(cache.get_or_compute(("k",), compute))

        threads = [threading.Thread(target=worker) for _ in range(N_THREADS)]
        for t in threads:
            t.start()
        # Let the one computer enter, give waiters a beat to pile up, open up.
        assert started.wait(timeout=60)
        gate.set()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive(), "get_or_compute deadlocked"
        assert len(calls) == 1, "compute ran more than once"
        assert len({id(entry) for entry, _ in outcomes}) == 1
        assert outcomes[0][0].result == "value"
        assert sum(1 for _, was_hit in outcomes if not was_hit) == 1
        assert cache.stats.misses == 1
        assert cache.stats.hits == outcomes[0][0].hits == N_THREADS - 1

    def test_disabled_cache_computes_in_parallel(self):
        """max_entries=0 must not serialize identical queries: both computes
        run concurrently (the in-barrier proves overlap -- a serialized
        implementation would time the barrier out)."""
        cache = LruResultCache(max_entries=0)
        inside = threading.Barrier(2)
        results: list = []

        def compute():
            inside.wait(timeout=30)  # both threads must be in compute at once
            return cache_entry("v")

        def worker():
            results.append(cache.get_or_compute(("k",), compute))

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive(), "disabled cache serialized the computes"
        assert [entry.result for entry, _ in results] == ["v", "v"]
        assert all(not was_hit for _, was_hit in results)

    def test_get_or_compute_failure_lets_next_caller_take_over(self):
        cache = LruResultCache(max_entries=8)
        attempts: list = []
        lock = threading.Lock()

        def compute():
            with lock:
                attempts.append(1)
                first = len(attempts) == 1
            if first:
                raise ValueError("flaky backend")
            return cache_entry("value")

        errors: list = []
        values: list = []
        barrier = threading.Barrier(4)

        def worker():
            barrier.wait(timeout=60)
            try:
                values.append(cache.get_or_compute(("k",), compute)[0].result)
            except ValueError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
        assert len(errors) == 1, "exactly the failing computer sees the error"
        assert values == ["value"] * 3
        assert cache.get(("k",)).result == "value"


class TestLabelInternerHammer:
    def test_concurrent_interning_allocates_bijective_ids(self):
        interner = LabelInterner()
        labels = [f"label-{i}" for i in range(200)]
        seen: dict = {}
        seen_lock = threading.Lock()
        barrier = threading.Barrier(N_THREADS)

        def worker(tid: int) -> None:
            rng = random.Random(tid)
            order = labels[:]
            rng.shuffle(order)
            barrier.wait(timeout=60)
            for label in order:
                ident = interner.intern(label)
                with seen_lock:
                    prior = seen.setdefault(label, ident)
                assert prior == ident, "interner id changed across calls"

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
        ids = [seen[label] for label in labels]
        assert sorted(ids) == list(range(len(labels))), "ids not dense/bijective"
