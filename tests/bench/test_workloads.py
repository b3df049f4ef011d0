"""Tests for the benchmark workload generators."""

import os
import subprocess
import sys

import pytest

from repro.bench.workloads import cyclic_pattern, dag_pattern, tree_pattern
from repro.errors import WorkloadError
from repro.graph import algorithms
from repro.graph.generators import citation_dag, random_tree, web_graph
from repro.simulation import simulation


@pytest.fixture(scope="module")
def web():
    return web_graph(1200, 6000, seed=2)


@pytest.fixture(scope="module")
def citation():
    return citation_dag(1200, 3000, seed=2)


class TestCyclicPattern:
    @pytest.mark.parametrize("seed", range(6))
    def test_always_matches(self, web, seed):
        q = cyclic_pattern(web, 5, 10, seed=seed)
        assert simulation(q, web).is_match

    @pytest.mark.parametrize("seed", range(6))
    def test_is_cyclic(self, web, seed):
        q = cyclic_pattern(web, 5, 10, seed=seed)
        assert not q.is_dag()

    def test_respects_node_target(self, web):
        q = cyclic_pattern(web, 6, 9, seed=1)
        assert q.n_nodes == 6

    def test_edges_close_to_target(self, web):
        q = cyclic_pattern(web, 5, 10, seed=1)
        assert 5 <= q.n_edges <= 10

    def test_deterministic(self, web):
        assert cyclic_pattern(web, 5, 10, seed=4) == cyclic_pattern(web, 5, 10, seed=4)

    def test_acyclic_graph_rejected(self, citation):
        with pytest.raises(WorkloadError):
            cyclic_pattern(citation, 5, 10, seed=1)


class TestDagPattern:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_exact_diameter(self, citation, d):
        q = dag_pattern(citation, d, 9, 13, seed=d)
        assert q.diameter() == d
        assert q.is_dag()

    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_always_matches(self, citation, d):
        q = dag_pattern(citation, d, 9, 13, seed=d)
        assert simulation(q, citation).is_match

    def test_node_target_met_when_spine_allows(self, citation):
        q = dag_pattern(citation, 3, 8, 11, seed=1)
        assert q.n_nodes == 8

    def test_impossible_diameter_rejected(self):
        shallow = citation_dag(50, 60, seed=1, n_layers=2)
        deepest = max(algorithms.topological_ranks(shallow).values())
        with pytest.raises(WorkloadError):
            dag_pattern(shallow, deepest + 5, 9, 13, seed=1, tries=50)


class TestTreePattern:
    def test_matches_and_is_tree_shaped(self):
        tree = random_tree(300, seed=3)
        q = tree_pattern(tree, 4, seed=3)
        assert q.n_nodes == 4
        assert q.is_dag()
        assert simulation(q, tree).is_match

    def test_too_large_rejected(self):
        tree = random_tree(5, seed=3)
        with pytest.raises(WorkloadError):
            tree_pattern(tree, 50, seed=3, tries=10)


_DIGEST_SCRIPT = """
import hashlib
from repro.bench.workloads import cyclic_pattern, dag_pattern, tree_pattern
from repro.graph.generators import citation_dag, random_tree, web_graph

web, citation = web_graph(1200, 6000, seed=2), citation_dag(1200, 3000, seed=2)
patterns = [
    cyclic_pattern(web, 8, 16, seed=1),          # duplicates and trims
    cyclic_pattern(web, 5, 10, seed=4),
    dag_pattern(citation, 2, 9, 13, seed=41),    # short spine: mostly duplicates
    dag_pattern(citation, 6, 9, 13, seed=6),
    tree_pattern(random_tree(300, seed=3), 4, seed=3),
]
shapes = [
    ([(u, q.label(u)) for u in q.nodes()], list(q.edges())) for q in patterns
]
print(hashlib.sha256(repr(shapes).encode()).hexdigest())
"""


def test_patterns_do_not_depend_on_the_string_hash_seed():
    """Duplicated query nodes are ``("dup", k)`` tuples, so any set of them
    iterates in an order salted per process; the generated pattern -- node
    order and edge order included -- must not follow it."""
    digests = set()
    for hash_seed in ("0", "1", "2"):
        env = {
            **os.environ,
            "PYTHONHASHSEED": hash_seed,
            "PYTHONPATH": os.pathsep.join(sys.path),
        }
        out = subprocess.run(
            [sys.executable, "-c", _DIGEST_SCRIPT],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        digests.add(out.stdout.strip())
    assert len(digests) == 1
