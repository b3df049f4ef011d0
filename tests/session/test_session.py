"""Tests for the resident SimulationSession layer.

The contract under test: serving a query through a session is *exactly* the
one-shot ``run_*`` evaluation -- same relation, same metered protocol -- with
per-graph setup amortized, repeated queries answered from the LRU cache, and
any mutation of a resident graph invalidating every derived structure.
"""

from __future__ import annotations

import pytest

from repro import (
    DgpmConfig,
    SimulationSession,
    citation_dag,
    partition,
    random_tree,
    run_dgpm,
    run_dgpmd,
    run_dgpmt,
    run_dishhk,
    run_dmes,
    simulation,
    tree_partition,
    web_graph,
)
from repro.bench.workloads import cyclic_pattern, dag_pattern, tree_pattern
from repro.core.dgpm import DGPM
from repro.core.protocol import run_protocol
from repro.graph.pattern import Pattern
from repro.session import LruResultCache, canonical_query_key
from tests.conftest import cache_entry


@pytest.fixture(scope="module")
def web_instance():
    graph = web_graph(800, 4000, n_labels=12, seed=3)
    frag = partition(graph, 4, seed=3, vf_ratio=0.25)
    queries = [cyclic_pattern(graph, 4, 6, seed=s) for s in range(3)]
    return graph, frag, queries


class TestParity:
    """session.run_many == fresh one-shot run_* for the served algorithms;
    the baselines, never served, answer what the session answers."""

    def test_dgpm_parity(self, web_instance):
        graph, frag, queries = web_instance
        session = SimulationSession(frag)
        served = session.run_many(queries, algorithm="dgpm")
        for query, result in zip(queries, served):
            fresh = run_dgpm(query, frag)
            assert result.relation == fresh.relation
            assert result.relation == simulation(query, graph)
            assert result.metrics.ds_bytes == fresh.metrics.ds_bytes
            assert result.metrics.n_messages == fresh.metrics.n_messages

    def test_dmes_parity(self, web_instance):
        graph, frag, queries = web_instance
        session = SimulationSession(frag)
        served = session.run_many(queries[:2], algorithm="dgpm")
        for query, result in zip(queries, served):
            fresh = run_dmes(query, frag)
            assert fresh.metrics.algorithm == "dMes"
            assert result.relation == fresh.relation
            assert fresh.metrics.ds_bytes == run_dmes(query, frag).metrics.ds_bytes

    def test_dishhk_parity(self, web_instance):
        graph, frag, queries = web_instance
        session = SimulationSession(frag)
        served = session.run_many(queries[:2], algorithm="dgpm")
        for query, result in zip(queries, served):
            fresh = run_dishhk(query, frag)
            assert fresh.metrics.algorithm == "disHHK"
            assert result.relation == fresh.relation
            assert fresh.metrics.ds_bytes == run_dishhk(query, frag).metrics.ds_bytes

    def test_dgpmd_parity(self):
        graph = citation_dag(600, 2400, seed=5)
        frag = partition(graph, 4, seed=5)
        queries = [dag_pattern(graph, diameter=2, n_nodes=5, n_edges=6, seed=s) for s in (0, 1)]
        session = SimulationSession(frag)
        served = session.run_many(queries, algorithm="dgpmd")
        for query, result in zip(queries, served):
            fresh = run_dgpmd(query, frag)
            assert result.relation == fresh.relation
            assert result.relation == simulation(query, graph)
            assert result.metrics.ds_bytes == fresh.metrics.ds_bytes

    def test_dgpmt_parity(self):
        tree = random_tree(120, seed=2)
        frag = tree_partition(tree, 4, seed=2)
        queries = [tree_pattern(tree, n_nodes=3, seed=s) for s in (0, 1)]
        session = SimulationSession(frag)
        served = session.run_many(queries, algorithm="dgpmt")
        for query, result in zip(queries, served):
            fresh = run_dgpmt(query, frag)
            assert result.relation == fresh.relation
            assert result.relation == simulation(query, tree)

    def test_auto_dispatch(self, web_instance):
        _, frag, queries = web_instance
        session = SimulationSession(frag)
        assert session.run(queries[0]).metrics.algorithm == "dGPM"
        tree = random_tree(60, seed=1)
        tsession = SimulationSession(tree_partition(tree, 3, seed=1))
        q = Pattern({"q": tree.label(0)})
        assert tsession.run(q).metrics.algorithm == "dGPMt"

    def test_random_streams_match_oracle(self, rng):
        for trial in range(4):
            n = rng.randint(30, 80)
            graph = web_graph(n, 4 * n, n_labels=6, seed=trial)
            frag = partition(graph, rng.randint(2, 5), seed=trial)
            session = SimulationSession(frag)
            for s in range(2):
                try:
                    query = cyclic_pattern(graph, 3, 4, seed=s)
                except Exception:
                    continue
                result = session.run(query, algorithm="dgpm")
                assert result.relation == simulation(query, graph)


class TestCaching:
    def test_cache_hit_metrics_reported(self, web_instance):
        _, frag, queries = web_instance
        session = SimulationSession(frag)
        first = session.run(queries[0], algorithm="dgpm")
        second = session.run(queries[0], algorithm="dgpm")
        assert "cache_hit" not in first.metrics.extras
        assert second.metrics.extras["cache_hit"] == 1.0
        assert second.relation == first.relation
        assert session.stats.queries_served == 2
        assert session.stats.cache_hits == 1
        assert session.stats.cache_misses == 1
        assert session.stats.hit_rate == pytest.approx(0.5)

    def test_canonical_key_ignores_enumeration_order(self):
        a = Pattern({"x": "A", "y": "B"}, [("x", "y"), ("y", "x")])
        b = Pattern({"y": "B", "x": "A"}, [("y", "x"), ("x", "y")])
        assert canonical_query_key(a) == canonical_query_key(b)

    def test_isomorphic_rename_hits_and_translates(self, web_instance):
        """A renamed isomorphic query is a cache hit, and the served relation
        is keyed by the *hitting* pattern's node names."""
        graph, frag, queries = web_instance
        session = SimulationSession(frag)
        q = queries[0]
        session.run(q, algorithm="dgpm")
        nodes = list(q.nodes())
        rename = {u: ("client", i) for i, u in enumerate(nodes)}
        renamed = Pattern(
            {rename[u]: q.label(u) for u in nodes},
            [(rename[a], rename[b]) for a, b in q.edges()],
        )
        served = session.run(renamed, algorithm="dgpm")
        assert served.metrics.extras.get("cache_hit") == 1.0
        assert session.stats.cache_hits == 1
        assert served.relation == simulation(renamed, graph)

    def test_lru_eviction(self):
        cache = LruResultCache(max_entries=2)
        cache.put(("a",), cache_entry("ra"))
        cache.put(("b",), cache_entry("rb"))
        assert cache.get(("a",)).result == "ra"  # refreshes 'a'
        cache.put(("c",), cache_entry("rc"))  # evicts 'b'
        assert cache.get(("b",)) is None
        assert cache.get(("a",)).result == "ra"
        assert cache.get(("a",)).hits == 3  # bumped by the lookup that found it
        assert cache.stats.evictions == 1

    def test_cache_disabled(self, web_instance):
        _, frag, queries = web_instance
        session = SimulationSession(frag, cache_size=0)
        session.run(queries[0], algorithm="dgpm")
        again = session.run(queries[0], algorithm="dgpm")
        assert "cache_hit" not in again.metrics.extras
        assert session.stats.cache_hits == 0


class TestInvalidation:
    def test_mutation_invalidates_and_stays_correct(self):
        graph = web_graph(300, 1200, n_labels=8, seed=9)
        frag = partition(graph, 3, seed=9)
        query = cyclic_pattern(graph, 3, 4, seed=1)
        session = SimulationSession(frag)
        before = session.run(query, algorithm="dgpm")
        assert before.relation == simulation(query, graph)

        # Mutate a resident fragment: drop a local edge from both the base
        # graph and the fragment copy (keeps the fragmentation consistent).
        target = None
        for f in frag:
            for u, v in f.graph.edges():
                if u in f.local_nodes and v in f.local_nodes:
                    target = (f, u, v)
                    break
            if target:
                break
        assert target is not None
        f, u, v = target
        f.graph.remove_edge(u, v)
        graph.remove_edge(u, v)

        after = session.run(query, algorithm="dgpm")
        assert session.stats.invalidations == 1
        assert "cache_hit" not in after.metrics.extras  # cache was cleared
        assert after.relation == simulation(query, graph)
        fresh = run_protocol(DGPM, query, frag)
        assert after.relation == fresh.relation

    def test_inconsistent_mutation_fails_loudly(self):
        """A mutation that breaks the fragmentation invariants must raise,
        not be answered from stale boundary tables."""
        from repro.errors import FragmentationError

        graph = web_graph(200, 800, n_labels=6, seed=6)
        frag = partition(graph, 2, seed=6)
        query = cyclic_pattern(graph, 3, 4, seed=0)
        session = SimulationSession(frag)
        session.run(query, algorithm="dgpm")
        # Relabel a node in the base graph only: fragment copies go stale.
        victim = next(iter(frag[0].local_nodes))
        graph.add_node(victim, "mutated-label")
        with pytest.raises(FragmentationError):
            session.run(query, algorithm="dgpm")

    def test_explicit_invalidate_clears_cache(self):
        graph = web_graph(200, 800, n_labels=6, seed=4)
        frag = partition(graph, 2, seed=4)
        query = cyclic_pattern(graph, 3, 4, seed=0)
        session = SimulationSession(frag)
        session.run(query, algorithm="dgpm")
        session.invalidate()
        again = session.run(query, algorithm="dgpm")
        assert "cache_hit" not in again.metrics.extras
        assert session.stats.invalidations == 1


class TestSessionSurface:
    def test_unknown_algorithm_raises(self, web_instance):
        _, frag, queries = web_instance
        session = SimulationSession(frag)
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="unknown algorithm"):
            session.run(queries[0], algorithm="nonsense")

    def test_dgpmnopt_alias_disables_optimizations(self, web_instance):
        """dGPMNOpt is dGPM on a session built with both optimizations off;
        the label comes from the spec, not from an algorithm name."""
        graph, frag, queries = web_instance
        nopt = SimulationSession(frag, config=DgpmConfig().without_optimizations())
        result = nopt.run(queries[0], algorithm="dgpm")
        assert result.metrics.algorithm == "dGPMNOpt"
        assert result.relation == simulation(queries[0], graph)
        plain = SimulationSession(frag).run(queries[0], algorithm="dgpm")
        assert plain.metrics.algorithm == "dGPM"
        assert plain.relation == result.relation

    def test_dgpmd_precondition_skips_deps_build(self, web_instance):
        _, frag, queries = web_instance  # cyclic graph, cyclic query
        from repro.errors import PatternError

        session = SimulationSession(frag)
        with pytest.raises(PatternError):
            session.run(queries[0], algorithm="dgpmd")
        assert session._deps is None  # precondition failed before deps built

    def test_warm_builds_structures(self, web_instance):
        _, frag, _ = web_instance
        session = SimulationSession(frag).warm()
        assert session.deps is session.deps  # cached, same object

    def test_label_interning(self, web_instance):
        _, frag, _ = web_instance
        session = SimulationSession(frag)
        alphabet = frag.graph.label_alphabet()
        assert len(session.labels) >= len(alphabet)
        first = session.labels.intern(next(iter(alphabet)))
        assert session.labels.intern(next(iter(alphabet))) == first
