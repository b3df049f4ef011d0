"""Unit tests for the array engine's compilation layer.

Covers the pieces underneath :class:`~repro.core.arraystate.ArrayEvalState`:
the CSR kernels, :meth:`DiGraph.dense_csr`, the per-fragment columnar
snapshot (freshness, per-label caches, global ids), the host snapshot dGPM
evaluates over (blocks, delivery table, rebuilds), what the fused dGPM
program reports to its host (per-round compute, one RESULT per site), the
array engine's golden accounting, and the numpy-less failure mode.
End-to-end answer parity lives in ``tests/core/test_property_engines.py``.
"""

import sys

import pytest

import repro.core.arraycompile as ac
from repro import partition, web_graph
from repro.bench.workloads import cyclic_pattern
from repro.core import DgpmConfig
from repro.core.depgraph import DependencyGraphs
from repro.core.dgpm import DGPM
from repro.core.protocol import local_host, run_protocol
from repro.graph.digraph import DiGraph
from repro.graph.examples import (
    example8_graph,
    figure1,
    figure1_fragmentation,
    figure1_query,
    figure2,
)
from repro.partition.fragmentation import fragment_graph
from repro.runtime.engine import SyncEngine
from repro.runtime.messages import DATA_KINDS, MessageKind
from repro.runtime.network import Network
from repro.session.cache import LabelInterner
from repro.simulation import simulation
from tests.conftest import web_1k_query

np = pytest.importorskip("numpy")


def small_graph() -> DiGraph:
    return DiGraph(
        {0: "A", 1: "B", 2: "A", 3: "C", 4: "B"},
        [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (4, 2), (0, 2)],
    )


def small_fragmentation():
    return fragment_graph(small_graph(), {0: 0, 1: 0, 2: 1, 3: 1, 4: 1})


# ----------------------------------------------------------------------
# CSR kernels
# ----------------------------------------------------------------------

def test_dense_csr_round_trips_adjacency(rng):
    n = 30
    graph = DiGraph({i: "AB"[i % 2] for i in range(n)})
    for _ in range(4 * n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v)
    nodes, index, fwd_ip, fwd_ix, rev_ip, rev_ix = graph.dense_csr()
    assert sorted(nodes) == sorted(graph.nodes())
    for i, node in enumerate(nodes):
        assert index[node] == i
        succ = {nodes[j] for j in fwd_ix[fwd_ip[i]:fwd_ip[i + 1]]}
        pred = {nodes[j] for j in rev_ix[rev_ip[i]:rev_ip[i + 1]]}
        assert succ == set(graph.successors(node))
        assert pred == set(graph.predecessors(node))


def test_gather_csr_matches_slicing(rng):
    graph = DiGraph({i: "A" for i in range(20)})
    for _ in range(60):
        u, v = rng.randrange(20), rng.randrange(20)
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v)
    _, _, indptr, indices, _, _ = graph.dense_csr()
    rows = np.asarray([0, 7, 7, 19, 3], dtype=np.int64)
    flat, counts = ac.gather_csr(indptr, indices, rows)
    expected = [indices[indptr[r]:indptr[r + 1]] for r in rows.tolist()]
    assert counts.tolist() == [len(e) for e in expected]
    assert flat.tolist() == [x for e in expected for x in e.tolist()]


def test_gather_csr_all_empty_rows():
    indptr = np.zeros(4, dtype=np.int64)  # 3 nodes, no edges
    indices = np.empty(0, dtype=np.int64)
    flat, counts = ac.gather_csr(indptr, indices, np.asarray([0, 2], dtype=np.int64))
    assert flat.size == 0
    assert counts.tolist() == [0, 0]


def test_segment_any_and_sum_match_python(rng):
    counts = np.asarray([rng.randrange(4) for _ in range(12)], dtype=np.int64)
    values = np.asarray(
        [rng.random() < 0.3 for _ in range(int(counts.sum()))], dtype=bool
    )
    segments, pos = [], 0
    for c in counts.tolist():
        segments.append(values[pos:pos + c])
        pos += c
    assert ac.segment_any(values, counts).tolist() == [
        bool(seg.any()) for seg in segments
    ]
    indptr = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(counts, dtype=np.int64))
    )
    assert ac.segment_sum_full(values, indptr).tolist() == [
        int(seg.sum()) for seg in segments
    ]


# ----------------------------------------------------------------------
# CompiledFragment
# ----------------------------------------------------------------------

def test_compiled_fragment_masks_and_labels():
    fragmentation = small_fragmentation()
    interner = LabelInterner()
    for frag in fragmentation:
        cf = ac.CompiledFragment(frag, interner)
        for i, v in enumerate(cf.nodes):
            assert cf.labels[i] == interner.intern(frag.graph.label(v))
            assert cf.local_mask[i] == (v in frag.local_nodes)
            assert cf.virtual_mask[i] == (v in frag.virtual_nodes)
            assert cf.in_mask[i] == (v in frag.in_nodes)


def test_label_row_and_count_col_cached_and_correct():
    fragmentation = small_fragmentation()
    interner = LabelInterner()
    frag = fragmentation[0]
    cf = ac.CompiledFragment(frag, interner)
    for label in ("A", "B", "C"):
        lab = interner.intern(label)
        row = cf.label_row(lab)
        assert cf.label_row(lab) is row  # cached, not rebuilt
        assert row.tolist() == [
            frag.graph.label(v) == label for v in cf.nodes
        ]
        col = cf.count_col(lab)
        assert cf.count_col(lab) is col
        assert col.tolist() == [
            sum(1 for w in frag.graph.successors(v) if frag.graph.label(w) == label)
            for v in cf.nodes
        ]


def test_is_fresh_tracks_graph_version():
    fragmentation = small_fragmentation()
    cf = ac.CompiledFragment(fragmentation[0], LabelInterner())
    assert cf.is_fresh(fragmentation[0])
    fragmentation.delete_edge(0, 1)  # intra-fragment edge of fragment 0
    assert not cf.is_fresh(fragmentation[0])


def test_compiled_fragmentation_recompiles_only_stale_fragments():
    fragmentation = small_fragmentation()
    deps = DependencyGraphs(fragmentation)
    compiled = ac.CompiledFragmentation(fragmentation).warm(deps)
    assert compiled.compilations == fragmentation.n_fragments
    assert compiled.host_builds == 1
    compiled.warm(deps)  # nothing moved: every entry is still fresh
    assert compiled.compilations == fragmentation.n_fragments
    assert compiled.host_builds == 1

    old = {frag.fid: compiled.get(frag.fid) for frag in fragmentation}
    old_host = compiled.host([0, 1], deps)
    deps.apply_delta(fragmentation.delete_edge(2, 3))  # both endpoints in fragment 1
    stale = [
        fid for fid, entry in old.items()
        if not entry.is_fresh(fragmentation[fid])
    ]
    assert stale  # the mutation must invalidate at least its own fragment
    compiled.warm(deps)
    assert compiled.compilations == fragmentation.n_fragments + len(stale)
    for fid in stale:
        assert compiled.get(fid) is not old[fid]
    for frag in fragmentation:
        if frag.fid not in stale:
            assert compiled.get(frag.fid) is old[frag.fid]
    # a replaced member rebuilds the host snapshot: concatenation, no compile
    host = compiled.host([0, 1], deps)
    assert host is not old_host and compiled.host_builds == 2
    assert [m for m in host.members] == [compiled.get(0), compiled.get(1)]
    assert compiled.compilations == fragmentation.n_fragments + len(stale)


def test_standalone_compiled_fragment_has_no_gids():
    fragmentation = small_fragmentation()
    cf = ac.CompiledFragment(fragmentation[0], LabelInterner())
    assert cf.gids is None  # global ids only exist under a shared cache


# ----------------------------------------------------------------------
# HostSnapshot
# ----------------------------------------------------------------------

def three_site_fragmentation():
    graph = DiGraph(
        {i: "ABC"[i % 3] for i in range(9)},
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 0),
         (0, 4), (4, 8), (2, 6), (7, 1), (3, 3)],
    )
    return fragment_graph(graph, {i: i % 3 for i in range(9)})


def test_host_snapshot_blocks_mirror_members_and_share_gids():
    fragmentation = three_site_fragmentation()
    deps = DependencyGraphs(fragmentation)
    compiled = ac.CompiledFragmentation(fragmentation)
    host = compiled.host([2, 0, 1], deps)  # block order is the order asked for
    assert host.fids == (2, 0, 1)
    assert host.n_nodes == sum(compiled.get(fid).n_nodes for fid in host.fids)
    gid_of = {}
    for k, fid in enumerate(host.fids):
        cf = compiled.get(fid)
        lo = host.starts[k]
        assert host.starts[k + 1] - lo == cf.n_nodes
        for i, v in enumerate(cf.nodes):
            row = lo + i
            assert host.nodes[row] == v and host.row_of(fid, v) == row
            assert host.site_of[row] == k
            # one global id per node, no matter how many blocks hold a copy
            assert gid_of.setdefault(v, int(host.gids[row])) == int(cf.gids[i])
            for name in ("labels", "local_mask", "virtual_mask", "in_mask"):
                assert getattr(host, name)[row] == getattr(cf, name)[i]
            for side in ("fwd", "rev"):
                indptr = getattr(host, side + "_indptr")
                indices = getattr(host, side + "_indices")
                mine = getattr(cf, side + "_indices")[
                    getattr(cf, side + "_indptr")[i]:getattr(cf, side + "_indptr")[i + 1]
                ]
                # same neighbours, shifted: no edge leaves a block
                assert indices[indptr[row]:indptr[row + 1]].tolist() == (mine + lo).tolist()
        assert host.row_of(fid, "no such node") is None
    assert sorted(gid_of.values()) == list(range(len(compiled.gid_map)))
    lab = compiled.interner.intern("A")
    assert host.label_row(lab).tolist() == [
        fragmentation.graph.label(v) == "A" for v in host.nodes
    ]
    assert host.count_col(lab).tolist() == [
        c for fid in host.fids for c in compiled.get(fid).count_col(lab).tolist()
    ]


def test_delivery_table_reaches_the_watcher_copies_and_tracks_deps_version():
    fragmentation = three_site_fragmentation()
    deps = DependencyGraphs(fragmentation)
    compiled = ac.CompiledFragmentation(fragmentation)
    for grouping in ([[0, 1, 2]], [[0], [1], [2]], [[1], [2, 0]]):
        n_in_rows = 0
        for fids in grouping:
            host = compiled.host(fids, deps)
            assert compiled.host(fids, deps) is host  # cached until something moves
            for row, v in enumerate(host.nodes):
                fid = host.fids[host.site_of[row]]
                copies = host.deliver_rows[
                    host.deliver_indptr[row]:host.deliver_indptr[row + 1]
                ]
                if not host.in_mask[row]:
                    assert copies.size == 0 and row not in host.external
                    continue
                n_in_rows += 1
                reached = []
                for copy in copies.tolist():
                    # a co-located watcher's *virtual copy of the same node*
                    assert host.nodes[copy] == v and host.virtual_mask[copy]
                    reached.append(host.fids[host.site_of[copy]])
                away = host.external.get(row, ())
                assert set(away).isdisjoint(fids)
                assert sorted([*reached, *away]) == sorted(deps.watcher_sites(fid, v))
            deps.version += 1  # what apply_delta does on any watcher patch
            assert compiled.host(fids, deps) is not host
        assert n_in_rows == sum(len(frag.in_nodes) for frag in fragmentation)


def test_a_crossing_delete_that_only_drops_a_marker_reroutes_the_host():
    """Deleting one of two crossing edges into a node from *different*
    fragments leaves the target's graph alone -- only a watcher goes."""
    fragmentation = three_site_fragmentation()
    deps = DependencyGraphs(fragmentation)
    compiled = ac.CompiledFragmentation(fragmentation)
    host = compiled.host([0, 1, 2], deps)
    row = host.row_of(1, 4)  # node 4 lives in fragment 1; 3 (f0) and 0 (f0) point at it
    assert sorted(deps.watcher_sites(1, 4)) == [0]
    before = compiled.compilations
    deps.apply_delta(fragmentation.delete_edge(3, 4))
    deps.apply_delta(fragmentation.delete_edge(0, 4))  # the last one: marker dropped
    assert not deps.watcher_sites(1, 4)
    rebuilt = compiled.host([0, 1, 2], deps)
    assert rebuilt is not host
    assert compiled.compilations > before  # the source side (and the marker's) recompiled
    row = rebuilt.row_of(1, 4)
    assert not rebuilt.in_mask[row]
    assert rebuilt.deliver_indptr[row] == rebuilt.deliver_indptr[row + 1]
    assert rebuilt.row_of(0, 4) is None  # the virtual copy is gone


def test_reader_threads_rebuild_a_stale_host_snapshot_exactly_once():
    """The compute threads of a server share one cache under the read lock:
    after a mutation they all ask for the host snapshot at once."""
    import threading

    graph = web_graph(400, 2000, seed=4)
    fragmentation = partition(graph, 8)
    deps = DependencyGraphs(fragmentation)
    fids = [frag.fid for frag in fragmentation]
    compiled = ac.CompiledFragmentation(fragmentation).warm(deps)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_no in range(5):
            u, v = next(iter(fragmentation[round_no].graph.edges()))
            deps.apply_delta(fragmentation.delete_edge(u, v))
            n_stale = sum(
                not compiled._compiled[fid].is_fresh(fragmentation[fid]) for fid in fids
            )
            counts = (compiled.compilations, compiled.host_builds)
            start = threading.Barrier(8)
            seen = []

            def read():
                start.wait(timeout=10)
                seen.append(compiled.host(fids, deps))

            threads = [threading.Thread(target=read) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert len(seen) == 8 and len(set(map(id, seen))) == 1
            assert compiled.compilations == counts[0] + n_stale
            assert compiled.host_builds == counts[1] + 1
    finally:
        sys.setswitchinterval(interval)


# ----------------------------------------------------------------------
# the fused dGPM program, as its host sees it
# ----------------------------------------------------------------------

def test_fused_program_reports_a_share_of_its_own_step_time_and_one_result_per_site():
    import time

    graph = web_graph(300, 1500, seed=5)
    fragmentation = partition(graph, 6)
    query = cyclic_pattern(graph, 4, 6, seed=2)
    deps = DependencyGraphs(fragmentation)
    config = DgpmConfig()
    fids = [frag.fid for frag in fragmentation]
    host = local_host(
        DGPM, fids, fragmentation, query, deps, config,
        ac.CompiledFragmentation(fragmentation),
    )
    (program,) = set(host.programs.values())  # one object under every fid
    assert sorted(host.programs) == fids

    shares, measured = [], []
    for name in ("on_start", "on_tick"):
        step = getattr(program, name)

        def recorded(*args, step=step):
            result = step(*args)
            shares.append(result.slowest_share)
            return result

        setattr(program, name, recorded)
    post = host.post

    def timed_post(command, payload):  # the host's clock runs inside this one
        began = time.perf_counter()
        post(command, payload)
        measured.append(time.perf_counter() - began)

    host.post = timed_post
    engine = SyncEngine(dict.fromkeys(fids, host), Network(config.cost), config.cost)
    engine.run_fixpoint()
    assert engine.n_rounds > 1  # the instance does exchange falsifications
    assert len(engine.per_round_compute) == engine.n_rounds == len(measured)
    for compute, share, took in zip(engine.per_round_compute, shares, measured):
        assert 1.0 / len(fids) <= share <= 1.0  # the busiest of six sites
        assert 0.0 < compute <= took

    (results,) = engine.collect_results()  # one RESULT envelope, a row per site
    assert results.kind == MessageKind.RESULT
    assert list(results.srcs) == fids
    per_site = local_host(DGPM, fids, fragmentation, query, deps, config)
    SyncEngine(dict.fromkeys(fids, per_site), Network(config.cost), config.cost).run_fixpoint()
    for payload, size, fid in zip(results.payloads, results.sizes, fids):
        expected = per_site.programs[fid].collect()  # the dict engine's RESULT
        assert payload == expected.payload
        assert size == expected.size_bytes


#: (n_messages, ds_bytes, n_rounds, pushes, ds_breakdown) of the array engine,
#: recorded at the commit before its sites were fused into one program per
#: host -- the per-site array path that used to be the reference is gone
GOLDEN = {
    ("figure1", True): (12, 504, 2, 3, {"control": 48, "equation": 300, "query": 504, "result": 204, "rewire": 204}),
    ("figure1", False): (0, 0, 1, 0, {"query": 504, "result": 204}),
    ("example8", True): (16, 624, 4, 3, {"control": 96, "equation": 180, "query": 504, "result": 72, "rewire": 132, "var_update": 312}),
    ("example8", False): (6, 228, 5, 0, {"control": 64, "query": 504, "result": 72, "var_update": 228}),
    ("figure2_8", True): (16, 576, 2, 8, {"control": 128, "equation": 288, "query": 704, "result": 384, "rewire": 288}),
    ("figure2_8", False): (0, 0, 1, 0, {"query": 704, "result": 384}),
    ("figure2_8_open", True): (25, 900, 6, 6, {"control": 208, "equation": 216, "query": 704, "result": 192, "rewire": 216, "var_update": 468}),
    ("figure2_8_open", False): (7, 252, 8, 0, {"control": 112, "query": 704, "result": 192, "var_update": 252}),
    ("web_1k", True): (328, 15384, 3, 6, {"control": 416, "equation": 2376, "query": 2944, "result": 444, "rewire": 1356, "var_update": 11652}),
    ("web_1k", False): (207, 9312, 4, 0, {"control": 352, "query": 2944, "result": 444, "var_update": 9312}),
}


def _golden_instance(name):
    if name == "figure1":
        return figure1()
    if name == "example8":
        graph = example8_graph()
        return figure1_query(), graph, figure1_fragmentation(graph)
    if name == "figure2_8":
        return figure2(8)
    if name == "figure2_8_open":
        return figure2(8, close_cycle=False)
    graph = web_graph(1000, 5000, seed=3)
    return web_1k_query(), graph, partition(graph, 16)


@pytest.mark.parametrize("name, push", sorted(GOLDEN))
def test_array_engine_accounting_matches_the_recorded_protocol(name, push):
    query, graph, fragmentation = _golden_instance(name)
    result = run_protocol(DGPM, query, fragmentation, DgpmConfig(enable_push=push), "array")
    assert result.relation == simulation(query, graph)
    m = result.metrics
    assert (
        m.n_messages, m.ds_bytes, m.n_rounds, int(m.extras["pushes"]), m.ds_breakdown
    ) == GOLDEN[name, push]


def test_a_single_host_run_sends_its_mail_as_a_few_envelopes_a_round(monkeypatch):
    """Co-located mail moves as one envelope per kind and round (VAR_UPDATE,
    EQUATION, REWIRE, CONTROL), plus the QUERY broadcast and the RESULT
    envelope; the network still counts every logical message in them."""
    query, graph, fragmentation = _golden_instance("web_1k")
    sent = []
    send = Network.send

    def counting(network, mail):
        sent.append(mail)
        send(network, mail)

    monkeypatch.setattr(Network, "send", counting)
    result = run_protocol(DGPM, query, fragmentation, DgpmConfig(enable_push=True), "array")
    m = result.metrics
    assert len(sent) <= 4 * m.n_rounds + 2
    rows = [(mail.kind, src, dst) for mail in sent for src, dst in zip(mail.srcs, mail.dsts)]
    assert sum(kind in DATA_KINDS and src != dst for kind, src, dst in rows) == m.n_messages
    assert m.n_messages == GOLDEN["web_1k", True][0]


#: the same record for push-heavy instances: every site of
#: ``web_graph(1000, 5000, seed=7)`` under a vf-ratio-0.25 partition pushes,
#: shipping 9-16 KB of equations per query; keyed by cyclic_pattern's
#: ``(n_nodes, n_edges, seed)``
PUSH_HEAVY = {
    (3, 5, 1): (671, 31584, 3, 16, {"control": 512, "equation": 9252, "query": 1920, "result": 2712, "rewire": 5340, "var_update": 16992}),
    (4, 6, 3): (1106, 56844, 5, 16, {"control": 640, "equation": 14280, "query": 2944, "result": 924, "rewire": 9108, "var_update": 33456}),
    (4, 6, 6): (1093, 53436, 4, 16, {"control": 672, "equation": 16056, "query": 2432, "result": 3360, "rewire": 9336, "var_update": 28044}),
}


@pytest.fixture(scope="module")
def push_heavy_instance():
    graph = web_graph(1000, 5000, seed=7)
    return graph, partition(graph, 16, 7, vf_ratio=0.25)


@pytest.mark.parametrize("shape", sorted(PUSH_HEAVY))
def test_push_heavy_accounting_matches_the_recorded_protocol(push_heavy_instance, shape):
    graph, fragmentation = push_heavy_instance
    n_nodes, n_edges, seed = shape
    query = cyclic_pattern(graph, n_nodes, n_edges, seed=seed)
    result = run_protocol(DGPM, query, fragmentation, DgpmConfig(), "array")
    assert result.relation == simulation(query, graph)
    m = result.metrics
    assert (
        m.n_messages, m.ds_bytes, m.n_rounds, int(m.extras["pushes"]), m.ds_breakdown
    ) == PUSH_HEAVY[shape]


# ----------------------------------------------------------------------
# numpy-less failure mode
# ----------------------------------------------------------------------

def _hide_numpy(monkeypatch):
    monkeypatch.setattr(ac, "_np", None)
    monkeypatch.setitem(sys.modules, "numpy", None)  # import raises


def test_require_numpy_without_numpy_is_one_clear_error(monkeypatch):
    _hide_numpy(monkeypatch)
    with pytest.raises(RuntimeError, match="engine='array' requires numpy"):
        ac.require_numpy()
    assert not ac.have_numpy()


def test_dict_engine_serves_without_numpy(monkeypatch):
    _hide_numpy(monkeypatch)
    from repro.graph.pattern import Pattern
    from repro.session import SimulationSession
    from repro.simulation import simulation

    graph = small_graph()
    pattern = Pattern({"x": "A", "y": "B"}, [("x", "y")])
    session = SimulationSession(small_fragmentation())  # default engine: dict
    assert session.run(pattern, algorithm="dgpm").relation == simulation(pattern, graph)
    session = SimulationSession(small_fragmentation(), engine="array")
    with pytest.raises(RuntimeError, match="requires numpy"):
        session.run(pattern, algorithm="dgpm")
