"""Encoded match sets live on the relation they encode: coherence, lifetime.

A :class:`MatchRelation` carries one cell per query node in which the wire
codec leaves that node's encoded match set, so a cached answer is encoded
once however often -- and under however many renamings -- it is sent.  There
is no key and no invalidation step; what makes that sound is object
lifetime, and that is what these tests hold: a repaired answer is a new
relation (stale bytes have nowhere to come from), renamed views share sets
and cells, concurrent first encodes agree, pickling drops the cells, and a
session that never meets a socket never fills one.
"""

from __future__ import annotations

import pickle
import sys
import threading

import pytest

from repro import SimulationSession, partition, simulation, web_graph
from repro.bench.workloads import cyclic_pattern
from repro.graph.mutations import DeleteEdge
from repro.graph.pattern import Pattern
from repro.net import SessionClient, codec, protocol, serve_in_thread
from repro.runtime.metrics import RunMetrics
from repro.simulation.matchrel import MatchRelation

from tests.net.test_codec import ref_encode

METRICS = RunMetrics("dgpm", 0.0, 0.0, 0, 0, 0)


def _renamed(query: Pattern, prefix: str) -> Pattern:
    """``query`` under fresh node names: isomorphic, so a cache hit."""
    name = {u: f"{prefix}{i}" for i, u in enumerate(query.nodes())}
    return Pattern(
        {name[u]: query.label(u) for u in query.nodes()},
        [(name[a], name[b]) for a, b in query.edges()],
    )


def _cells(relation: MatchRelation) -> list:
    return [relation._cells[u][0] for u in relation.query_nodes()]


@pytest.fixture()
def instance():
    """A graph, its fragmentation, a matching query and an edge whose
    deletion changes -- without emptying -- the query's answer."""
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


class TestCoherence:
    @pytest.mark.parametrize("mutant", [False, True])
    def test_a_repaired_answer_is_never_served_from_the_old_bytes(
        self, instance, monkeypatch, mutant
    ):
        """run -> hit -> answer-changing delete -> hit, over a real ingress.
        The seeded mutant hands the old relation's cells to the repaired one
        -- the bug an explicit invalidation step could have -- and must be
        caught: this is what "the relation is new, so its cells are empty"
        buys."""
        graph, frag, query, edge = instance
        if mutant:
            real = SimulationSession._store

            def carrying_the_cells(entry, relation):
                old = entry.result.relation
                real(entry, relation)
                object.__setattr__(entry.result.relation, "_cells", old._cells)

            monkeypatch.setattr(
                SimulationSession, "_store", staticmethod(carrying_the_cells)
            )
        with serve_in_thread(frag, backend="thread", n_workers=2) as srv:
            with SessionClient(*srv.address, timeout=60.0) as client:
                first = client.run(query, algorithm="dgpm")  # fills the cells
                again = client.run(_renamed(query, "n"), algorithm="dgpm")
                assert again.metrics.extras["cache_hit"] == 1.0
                assert first.relation == simulation(query, graph)
                client.apply([DeleteEdge(*edge)])
                repaired = client.run(query, algorithm="dgpm")
                assert repaired.stamp == 1
                assert repaired.metrics.extras["cache_hit"] == 1.0
                assert repaired.metrics.extras["maintained"] == 1.0
                oracle = simulation(query, graph)  # the server's graph, patched
                assert oracle != first.relation
                assert (repaired.relation == oracle) is not mutant


class TestSharing:
    def test_two_renamings_encode_each_match_set_once(self, instance, monkeypatch):
        graph, frag, query, _ = instance
        session = SimulationSession(frag)
        stored = session.run(query, algorithm="dgpm").relation
        views = [
            session.run(_renamed(query, prefix), algorithm="dgpm").relation
            for prefix in ("a", "b")
        ]
        set_encodes = []
        real = codec._encode_int_set

        def counting(out, items, depth):
            set_encodes.append(items)
            return real(out, items, depth)

        monkeypatch.setattr(codec, "_encode_int_set", counting)
        bodies = [codec.encode(protocol.RunReply(view, METRICS, 0)) for view in views]
        n = len(list(query.nodes()))
        assert len(set_encodes) == n  # the first view's; the second spliced all
        assert bodies == [
            ref_encode(protocol.RunReply(view, METRICS, 0)) for view in views
        ]
        codec.encode(protocol.SubscribeReply(1, 0, stored))  # the stored one too
        assert len(set_encodes) == n

    def test_translate_shares_the_sets_by_identity(self):
        relation = MatchRelation("uvw", {"u": {1, 2}, "v": {3}, "w": set()})
        view = relation.renamed(("w", "u", "v"), ("c", "a", "b"))
        assert list(view.query_nodes()) == ["c", "a", "b"]
        for old, new in zip("wuv", "cab"):
            assert view.raw_matches_of(new) is relation.raw_matches_of(old)
            assert view._cells[new] is relation._cells[old]
        assert view == MatchRelation("cab", {"a": {1, 2}, "b": {3}})
        assert not view and not relation
        assert relation.renamed(("u", "v", "w"), ("u", "v", "w")) is relation
        with pytest.raises(AttributeError, match="immutable"):
            view._matches = {}

    def test_eight_threads_first_encoding_one_relation_agree(self):
        """The cell fill is a benign race: every thread that loses it wrote,
        or read, bytes equal to the winner's."""
        relation = MatchRelation(
            range(6), {u: range(u, 4000 + u, 3) for u in range(6)}
        )
        frame = protocol.RunReply(relation, METRICS, 0)
        expected = ref_encode(frame)
        codec.encode(None)  # registry first: this test is about the cells
        barrier, bodies = threading.Barrier(8), []

        def first_encode():
            barrier.wait(30)
            bodies.append(codec.encode(frame))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=first_encode) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert bodies == [expected] * 8
        assert codec.encode(frame) == expected


class TestLifetime:
    def test_an_encoded_relation_pickles_as_if_it_never_was(self):
        """The sharded worker link pickles relations: the cells must neither
        ship nor break the frozen restore."""
        sets = {"a": {1, 2, 3}, "b": set(range(100))}
        encoded, fresh = MatchRelation("ab", sets), MatchRelation("ab", sets)
        codec.encode(protocol.SubscribeReply(1, 0, encoded))
        assert None not in _cells(encoded)
        assert pickle.dumps(encoded) == pickle.dumps(fresh)
        revived = pickle.loads(pickle.dumps(encoded))
        assert revived == encoded and _cells(revived) == [None, None]
        with pytest.raises(AttributeError, match="immutable"):
            revived._is_match = False

    def test_cells_take_no_part_in_equality_hash_or_repr(self):
        sets = {"a": {1, 2, 3}, "b": set(range(100))}
        encoded, fresh = MatchRelation("ab", sets), MatchRelation("ab", sets)
        codec.encode(protocol.SubscribeReply(1, 0, encoded))
        assert encoded == fresh and hash(encoded) == hash(fresh)
        assert repr(encoded) == repr(fresh)

    def test_a_session_that_never_meets_the_wire_fills_no_cell(self, instance):
        graph, frag, query, edge = instance
        session = SimulationSession(frag)
        served = [
            session.run(query, algorithm="dgpm"),
            session.run(query, algorithm="dgpm"),
            session.run(_renamed(query, "n"), algorithm="dgpm"),
        ]
        session.apply([DeleteEdge(*edge)])
        served.append(session.run(query, algorithm="dgpm"))
        assert served[-1].metrics.extras["maintained"] == 1.0
        for result in served:
            assert set(_cells(result.relation)) == {None}
