"""Unit tests for pattern queries."""

import pytest

from repro.errors import PatternError
from repro.graph.pattern import Pattern


class TestConstruction:
    def test_empty_pattern_rejected(self):
        with pytest.raises(PatternError):
            Pattern({})

    def test_edge_with_unknown_node_rejected(self):
        with pytest.raises(PatternError):
            Pattern({"a": "A"}, [("a", "b")])

    def test_shape_and_size(self):
        q = Pattern({"a": "A", "b": "B"}, [("a", "b"), ("b", "a")])
        assert q.shape == (2, 2)
        assert q.size == 4
        assert q.n_nodes == 2
        assert q.n_edges == 2

    def test_labels_and_children(self):
        q = Pattern({"a": "A", "b": "B"}, [("a", "b")])
        assert q.label("a") == "A"
        assert q.children("a") == ["b"]
        assert q.parents("b") == ["a"]
        assert "a" in q
        assert "z" not in q


class TestDagProperties:
    def test_cycle_is_not_dag(self):
        q = Pattern({"a": "A", "b": "B"}, [("a", "b"), ("b", "a")])
        assert not q.is_dag()

    def test_ranks_on_dag(self):
        q = Pattern({"a": "A", "b": "B", "c": "C"}, [("a", "b"), ("b", "c")])
        assert q.topological_ranks() == {"c": 0, "b": 1, "a": 2}

    def test_ranks_on_cyclic_raises(self):
        q = Pattern({"a": "A", "b": "B"}, [("a", "b"), ("b", "a")])
        with pytest.raises(PatternError):
            q.topological_ranks()

    def test_nodes_by_rank_groups(self):
        q = Pattern(
            {"a": "A", "b": "B", "c": "C", "d": "D"},
            [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
        )
        groups = q.nodes_by_rank()
        assert groups[0] == ["d"]
        assert sorted(groups[1]) == ["b", "c"]
        assert groups[2] == ["a"]

    def test_diameter(self):
        q = Pattern({"a": "A", "b": "B", "c": "C"}, [("a", "b"), ("b", "c")])
        assert q.diameter() == 2

    def test_label_alphabet(self):
        q = Pattern({"a": "A", "b": "B", "c": "A"})
        assert q.label_alphabet() == {"A", "B"}

    def test_equality(self):
        q1 = Pattern({"a": "A", "b": "B"}, [("a", "b")])
        q2 = Pattern({"a": "A", "b": "B"}, [("a", "b")])
        q3 = Pattern({"a": "A", "b": "B"}, [("b", "a")])
        assert q1 == q2
        assert q1 != q3
