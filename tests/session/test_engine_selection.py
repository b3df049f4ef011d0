"""Engine selection and up-front argument validation on the session.

Covers the ``run(algorithm=)`` contract: a bad name is rejected before any
protocol work, with the valid names spelled out; the engine is the
session's, fixed at construction (a request names only what to compute);
and the compiled-CSR cache is reused across queries and recompiles exactly
the fragments a mutation touched.
"""

import dataclasses

import pytest

from repro import ConcurrentSessionServer, simulation
from repro.core import dispatch
from repro.core.dgpm import DGPM
from repro.errors import ReproError
from repro.graph.digraph import DiGraph
from repro.graph.mutations import DeleteEdge
from repro.graph.pattern import Pattern
from repro.partition.fragmentation import fragment_graph
from repro.session import SimulationSession


@pytest.fixture
def fragmentation():
    graph = DiGraph(
        {0: "A", 1: "B", 2: "A", 3: "C", 4: "B"},
        [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (4, 2)],
    )
    return fragment_graph(graph, {0: 0, 1: 0, 2: 1, 3: 1, 4: 1})


@pytest.fixture
def query():
    return Pattern({"x": "A", "y": "B"}, [("x", "y")])


#: names a session refuses: a typo, the baselines (one-shot ``run_*`` only)
#: and the retired dGPMNOpt alias (``config=without_optimizations()`` now)
REFUSED = ("nope", "dmes", "dishhk", "match", "dgpmnopt")
KNOWN = "(known: auto, dgpm, dgpmd, dgpmt)"


def test_unknown_algorithm_rejected_up_front(fragmentation, query):
    session = SimulationSession(fragmentation)
    for name in REFUSED:
        with pytest.raises(ReproError) as err:
            session.run(query, algorithm=name)
        # the error lists exactly the served names, not just the rejection
        assert str(err.value) == f"unknown algorithm {name!r} {KNOWN}"
    assert session.stats.queries_served == 0  # rejected before any serving


def test_unknown_algorithm_rejected_by_the_sharded_backend(fragmentation, query):
    with ConcurrentSessionServer(fragmentation, backend="sharded", n_workers=2) as server:
        for name in REFUSED:
            with pytest.raises(ReproError) as err:
                server.run(query, algorithm=name)
            assert str(err.value) == f"unknown algorithm {name!r} {KNOWN}"
        assert server.run(query, algorithm="dgpm").relation == simulation(
            query, fragmentation.graph
        )


def test_constructor_rejects_unknown_default_engine(fragmentation):
    with pytest.raises(ReproError, match="unknown engine 'columnar'.*dict.*array"):
        SimulationSession(fragmentation, engine="columnar")


def test_array_and_dict_sessions_agree(fragmentation, query):
    pytest.importorskip("numpy")
    dict_answer = SimulationSession(fragmentation).run(query, algorithm="dgpm")
    session = SimulationSession(fragmentation, engine="ARRAY")
    assert session.engine == "array"
    assert session.run(query, algorithm="dgpm").relation == dict_answer.relation


def test_compiled_cache_reused_and_recompiled_per_touched_fragment(
    fragmentation, query
):
    pytest.importorskip("numpy")
    session = SimulationSession(fragmentation, cache_size=0, engine="array")
    session.run(query, algorithm="dgpm")
    compiled = session.compiled_fragments()
    base = compiled.compilations
    assert base == fragmentation.n_fragments
    session.run(query, algorithm="dgpm")
    assert compiled.compilations == base  # resident snapshots were reused

    old = {frag.fid: compiled.get(frag.fid) for frag in fragmentation}
    session.apply([DeleteEdge(0, 1)])  # intra-fragment edge of fragment 0
    assert session.compiled_fragments() is compiled  # maintained, not dropped
    stale = [
        fid for fid, entry in old.items()
        if not entry.is_fresh(session.fragmentation[fid])
    ]
    assert stale
    session.run(query, algorithm="dgpm")
    assert compiled.compilations == base + len(stale)


def test_requested_engine_reaches_build_program(fragmentation, query, monkeypatch):
    """The session's in-process evaluation hands its engine on:
    ``build_programs`` sees the session's compiled-CSR cache under ``array``
    and None under ``dict`` -- once per host, with every site of the host."""
    pytest.importorskip("numpy")
    seen = []

    def recording(fids, fragmentation, query, deps, config, compiled):
        seen.append((fids, compiled))
        return DGPM.build_programs(fids, fragmentation, query, deps, config, compiled)

    spec = dataclasses.replace(DGPM, build_programs=recording)
    monkeypatch.setitem(dispatch.ALGORITHMS, "dgpm", spec)
    session = SimulationSession(fragmentation)
    session.run(query, algorithm="dgpm")
    assert seen == [([0, 1], None)] and session._compiled is None
    session = SimulationSession(fragmentation, engine="array")
    session.run(query, algorithm="dgpm")
    assert seen[1:] == [([0, 1], session.compiled_fragments())]
