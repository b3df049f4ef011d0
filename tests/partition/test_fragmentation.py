"""Unit tests for fragments and fragmentations (Section 2.2)."""

import ast
import pickle
from pathlib import Path

import pytest

from repro.errors import FragmentationError
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_labeled_graph
from repro.partition.fragmentation import MutationDelta, fragment_graph, replay
from repro.runtime.costmodel import DEFAULT_COST


@pytest.fixture
def small_graph() -> DiGraph:
    return DiGraph(
        {1: "A", 2: "B", 3: "C", 4: "A", 5: "B"},
        [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (2, 4)],
    )


@pytest.fixture
def small_frag(small_graph):
    return fragment_graph(small_graph, {1: 0, 2: 0, 3: 1, 4: 1, 5: 1})


class TestFragmentGraph:
    def test_partition_of_v(self, small_frag):
        assert small_frag[0].local_nodes == frozenset({1, 2})
        assert small_frag[1].local_nodes == frozenset({3, 4, 5})

    def test_virtual_nodes_definition(self, small_frag):
        # F0.O: out-neighbours of {1,2} outside = {3, 4}
        assert small_frag[0].virtual_nodes == frozenset({3, 4})
        # F1.O: out-neighbours of {3,4,5} outside = {1}
        assert small_frag[1].virtual_nodes == frozenset({1})

    def test_in_nodes_definition(self, small_frag):
        assert small_frag[0].in_nodes == frozenset({1})
        assert small_frag[1].in_nodes == frozenset({3, 4})

    def test_union_of_o_equals_union_of_i(self, small_frag):
        all_o = frozenset().union(*(f.virtual_nodes for f in small_frag))
        all_i = frozenset().union(*(f.in_nodes for f in small_frag))
        assert all_o == all_i

    def test_fragment_stores_no_virtual_out_edges(self, small_frag):
        for frag in small_frag:
            for v in frag.virtual_nodes:
                assert frag.graph.successors(v) == []

    def test_crossing_edges(self, small_frag):
        # (3, 4) stays inside fragment 1, so only three edges cross
        assert set(small_frag.crossing_edges()) == {(2, 3), (2, 4), (5, 1)}
        assert small_frag.n_crossing_edges == 3

    def test_vf_and_ratios(self, small_frag):
        assert small_frag.virtual_nodes() == {1, 3, 4}
        assert small_frag.n_virtual_nodes == 3
        assert small_frag.vf_ratio == pytest.approx(3 / 5)
        assert small_frag.ef_ratio == pytest.approx(3 / 6)

    def test_owner_lookup(self, small_frag):
        assert small_frag.owner(1) == 0
        assert small_frag.owner(4) == 1
        with pytest.raises(FragmentationError):
            small_frag.owner(99)

    def test_largest_fragment(self, small_frag):
        assert small_frag.largest_fragment.fid == 1

    def test_fragment_size_measure(self, small_frag):
        f0 = small_frag[0]
        # |V0| = 2 locals; E0 = edges out of locals = (1,2),(2,3),(2,4) = 3
        assert f0.n_local_nodes == 2
        assert f0.n_edges == 3
        assert f0.size == 5

    def test_owner_of_virtual(self, small_frag):
        assert small_frag[0].owner_of_virtual(3) == 1
        assert small_frag[1].owner_of_virtual(1) == 0

    def test_serialized_bytes_positive(self, small_frag):
        assert small_frag[0].local_serialized_bytes(DEFAULT_COST) > 0


class TestValidation:
    def test_valid_fragmentation_passes(self, small_frag):
        small_frag.validate()

    def test_random_fragmentations_validate(self):
        g = random_labeled_graph(120, 500, seed=3)
        for n in (2, 5, 9):
            frag = fragment_graph(g, {v: v % n for v in g.nodes()})
            frag.validate()

    def test_incomplete_assignment_rejected(self, small_graph):
        with pytest.raises(FragmentationError):
            fragment_graph(small_graph, {1: 0, 2: 0})

    def test_empty_fragment_rejected(self, small_graph):
        with pytest.raises(FragmentationError):
            fragment_graph(small_graph, {1: 0, 2: 0, 3: 0, 4: 0, 5: 2})

    def test_foreign_node_rejected(self, small_graph):
        assignment = {1: 0, 2: 0, 3: 1, 4: 1, 5: 1, 99: 0}
        with pytest.raises(FragmentationError):
            fragment_graph(small_graph, assignment)


class TestConnectedFragments:
    def test_connected_check_true(self):
        g = DiGraph({1: "A", 2: "B", 3: "C", 4: "D"}, [(1, 2), (3, 4)])
        frag = fragment_graph(g, {1: 0, 2: 0, 3: 1, 4: 1})
        assert frag.has_connected_fragments()

    def test_connected_check_false(self):
        g = DiGraph({1: "A", 2: "B", 3: "C", 4: "D"}, [(1, 2), (3, 4)])
        frag = fragment_graph(g, {1: 0, 3: 0, 2: 1, 4: 1})
        assert not frag.has_connected_fragments()


class TestInPlaceMutation:
    """The mutation API must keep every Section-2.2 invariant per update."""

    def test_delete_local_edge(self, small_frag):
        delta = small_frag.delete_edge(1, 2)  # both in fragment 0
        assert delta.kind == "delete" and not delta.crossing
        assert not small_frag.graph.has_edge(1, 2)
        assert not small_frag[0].graph.has_edge(1, 2)
        small_frag.validate()

    def test_delete_crossing_edge_updates_boundary_sets(self, small_frag):
        # (2, 3) is the only edge from fragment 0 into node 3.
        delta = small_frag.delete_edge(2, 3)
        assert delta.crossing and delta.virtual_dropped and delta.in_dropped
        assert 3 not in small_frag[0].virtual_nodes
        assert 3 not in small_frag[0].graph  # pruned, not left dangling
        assert 3 not in small_frag[1].in_nodes
        small_frag.validate()

    def test_delete_keeps_shared_virtual(self):
        g = DiGraph(
            {1: "A", 2: "A", 3: "B"}, [(1, 3), (2, 3)]
        )
        frag = fragment_graph(g, {1: 0, 2: 0, 3: 1})
        frag.delete_edge(1, 3)
        # 3 is still reached from node 2 of fragment 0.
        assert 3 in frag[0].virtual_nodes
        assert 3 in frag[1].in_nodes
        frag.validate()

    def test_insert_crossing_edge_creates_boundary_metadata(self, small_frag):
        # Node 5 is not yet pointed at from fragment 0, nor from outside
        # fragment 1, so this crossing edge creates both boundary entries.
        delta = small_frag.insert_edge(1, 5)
        assert delta.crossing and delta.virtual_added and delta.in_added
        assert 5 in small_frag[0].virtual_nodes
        assert small_frag[0].owner_of_virtual(5) == 1
        assert small_frag[0].graph.label(5) == "B"
        assert 5 in small_frag[1].in_nodes
        small_frag.validate()

    def test_insert_to_existing_virtual_adds_no_metadata(self, small_frag):
        delta = small_frag.insert_edge(1, 3)  # 3 already virtual via (2, 3)
        assert delta.crossing and not delta.virtual_added
        small_frag.validate()

    def test_delete_then_reinsert_roundtrips(self, small_frag):
        before_o = set(small_frag[0].virtual_nodes)
        before_i = set(small_frag[1].in_nodes)
        small_frag.delete_edge(2, 3)
        small_frag.insert_edge(2, 3)
        assert set(small_frag[0].virtual_nodes) == before_o
        assert set(small_frag[1].in_nodes) == before_i
        small_frag.validate()

    def test_add_node_joins_fragment(self, small_frag):
        delta = small_frag.add_node(99, "Z", fid=1)
        assert delta.kind == "add_node"
        assert 99 in small_frag[1].local_nodes
        assert small_frag.owner(99) == 1
        small_frag.validate()
        small_frag.insert_edge(1, 99)  # wire it up across fragments
        assert 99 in small_frag[0].virtual_nodes
        small_frag.validate()

    def test_add_node_defaults_to_smallest_fragment(self, small_frag):
        smallest = min(small_frag, key=lambda f: f.size).fid
        delta = small_frag.add_node(77, "Z")
        assert delta.source_fid == smallest

    def test_mutation_errors(self, small_frag):
        from repro.errors import GraphError

        with pytest.raises(GraphError):
            small_frag.delete_edge(1, 3)  # not an edge
        with pytest.raises(GraphError):
            small_frag.insert_edge(1, 2)  # already present
        with pytest.raises(GraphError):
            small_frag.insert_edge(1, 404)  # unknown endpoint
        with pytest.raises(GraphError):
            small_frag.add_node(1, "A")  # already exists
        with pytest.raises(FragmentationError):
            small_frag.add_node(404, "A", fid=9)  # fragment out of range

    def test_random_mutation_sequences_stay_valid(self, rng):
        """validate() holds and patched watcher tables match rebuilt ones
        after long random delete/insert/add_node sequences."""
        from repro.core.depgraph import DependencyGraphs

        g = random_labeled_graph(40, 160, n_labels=4, seed=8)
        frag = fragment_graph(g, {v: v % 4 for v in g.nodes()})
        deps = DependencyGraphs(frag)
        for step in range(150):
            r = rng.random()
            if r < 0.5 and g.n_edges:
                edges = list(g.edges())
                delta = frag.delete_edge(*edges[rng.randrange(len(edges))])
            elif r < 0.9:
                nodes = list(g.nodes())
                u, v = rng.choice(nodes), rng.choice(nodes)
                if g.has_edge(u, v):
                    continue
                delta = frag.insert_edge(u, v)
            else:
                delta = frag.add_node(("fresh", step), f"L{rng.randrange(4)}")
            deps.apply_delta(delta)
            frag.validate()
            fresh = DependencyGraphs(frag)
            assert deps.watchers == fresh.watchers, step
            assert deps.owners == fresh.owners, step

    def test_shard_replay_keeps_copies_equal_to_the_parent(self, rng):
        """Pickled shards -- one of every fragment, one of a subset -- fed
        each delta through ``FragmentShard.apply_delta`` equal the parent's
        fragments after every op of a random stream of all four kinds."""
        g = random_labeled_graph(30, 90, n_labels=3, seed=5)
        frag = fragment_graph(g, {v: v % 4 for v in g.nodes()})
        shards = [
            pickle.loads(pickle.dumps(frag.extract_shard(fids)))
            for fids in ((0, 1, 2, 3), (1, 3))
        ]

        def view(fragment):
            graph = fragment.graph
            return (
                fragment.local_nodes,
                fragment.virtual_nodes,
                fragment.in_nodes,
                dict(fragment._virtual_owner),
                {node: graph.label(node) for node in graph.nodes()},
                set(graph.edges()),
            )

        kinds = set()
        for step in range(160):
            r = rng.random()
            nodes = list(g.nodes())
            if r < 0.4 and g.n_edges:
                edges = list(g.edges())
                delta = frag.delete_edge(*edges[rng.randrange(len(edges))])
            elif r < 0.75:
                u, v = rng.choice(nodes), rng.choice(nodes)
                if g.has_edge(u, v):
                    continue
                delta = frag.insert_edge(u, v)
            elif r < 0.88:
                delta = frag.add_node(
                    ("fresh", step), f"L{rng.randrange(3)}", fid=rng.randrange(4)
                )
            else:
                delta = frag.remove_node(rng.choice(nodes))
            kinds.add(delta.kind)
            frag.validate()
            for shard in shards:
                shard.apply_delta(delta)
                for fid in shard.fids:
                    assert view(shard[fid]) == view(frag[fid]), (step, fid)
        assert kinds == {"delete", "insert", "add_node", "remove_node"}


class TestReplay:
    """``replay`` is the one fragment patch every holder of fragments runs."""

    def test_a_fid_the_mapping_does_not_hold_is_skipped(self, small_graph):
        """A crossing insert replayed over the target fragment alone adds
        ``v`` to its ``Fi.I`` and touches nothing of the source's."""
        parent = fragment_graph(small_graph, {1: 0, 2: 0, 3: 1, 4: 1, 5: 1})
        target_only = fragment_graph(small_graph, {1: 0, 2: 0, 3: 1, 4: 1, 5: 1})
        source_before = target_only[0].graph.edges()
        delta = parent.insert_edge(1, 5)
        assert delta.crossing and delta.in_added
        replay({1: target_only[1]}, delta)
        assert target_only[1].in_nodes == parent[1].in_nodes
        assert 5 in target_only[1].in_nodes
        assert set(target_only[0].graph.edges()) == set(source_before)
        assert 5 not in target_only[0].virtual_nodes

    def test_remove_node_replays_its_cascade_then_the_node(self, small_graph):
        """A composite delta replayed over fresh copies leaves them equal to
        the parent: every cascaded edge deletion, then the node drop."""
        owners = {1: 0, 2: 0, 3: 1, 4: 1, 5: 1}
        parent = fragment_graph(small_graph, owners)
        copy = fragment_graph(small_graph.copy(), owners)
        delta = parent.remove_node(4)
        assert delta.kind == "remove_node" and len(delta.cascade) == 3
        replay({fid: copy[fid] for fid in (0, 1)}, delta)
        for fid in (0, 1):
            assert copy[fid].local_nodes == parent[fid].local_nodes
            assert copy[fid].virtual_nodes == parent[fid].virtual_nodes
            assert copy[fid].in_nodes == parent[fid].in_nodes
            assert set(copy[fid].graph.edges()) == set(parent[fid].graph.edges())
            assert set(copy[fid].graph.nodes()) == set(parent[fid].graph.nodes())

    def test_an_unknown_kind_is_refused(self, small_frag):
        delta = MutationDelta("rename", 1, 2, 0, 0, "A", "B")
        with pytest.raises(FragmentationError, match="rename"):
            replay({0: small_frag[0], 1: small_frag[1]}, delta)

    def test_fragment_metadata_helpers_are_called_only_inside_replay(self):
        """No site of ``src/`` edits a fragment's boundary sets except
        through ``replay``."""
        import repro

        helpers = {
            "_add_local_node",
            "_drop_local_node",
            "_add_virtual_node",
            "_drop_virtual_node",
            "_add_in_node",
            "_drop_in_node",
        }
        callers = set()
        for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for func in ast.walk(tree):
                if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for node in ast.walk(func):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in helpers
                    ):
                        callers.add((path.name, func.name))
        assert callers == {("fragmentation.py", "replay")}
