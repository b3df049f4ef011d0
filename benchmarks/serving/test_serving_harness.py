"""Self-test of the serving benchmark's own machinery (no server started).

Collected by the repository's plain ``pytest`` run; takes a few seconds.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from repro import simulation, web_graph  # noqa: E402
from repro.net import DeleteEdge  # noqa: E402

from serving_bench import harness, inputs, ladder, loadgen, report, stats, verify, workloads  # noqa: E402


# ----------------------------------------------------------------------
# the "ten samples beyond" rule
# ----------------------------------------------------------------------
def test_percentile_needs_ten_samples_beyond_it():
    assert stats.samples_needed(95) == 200
    assert stats.samples_needed(99) == 1000
    assert stats.percentile(list(range(199)), 95) is None
    assert stats.percentile(list(range(200)), 95) == 189
    assert stats.percentile(list(range(999)), 99) is None
    assert stats.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert stats.percentile([], 50) is None


# ----------------------------------------------------------------------
# open loop: latency counts from the due time
# ----------------------------------------------------------------------
def _schedule(n: int, gap: float):
    return [(i * gap, 0, SimpleNamespace(kind="query", index=i)) for i in range(n)]


def test_server_stall_shows_in_later_ops_latency():
    """A server that stalls on one op serves the next ones late; timed from
    when they were *due* they must carry that wait (timed from when the
    reply to the previous op freed the caller, the stall would vanish)."""
    lock = asyncio.Lock()

    async def send(conn, op):
        async with lock:  # one request at a time, like a held write lock
            await asyncio.sleep(0.12 if op.index == 3 else 0.001)
        return op.index

    result = asyncio.run(loadgen.open_loop(_schedule(10, 0.01), send))
    latency = [r.latency_ms for r in result.records]
    assert all(r.error is None for r in result.records)
    assert latency[2] < 30
    # ops 4..8 were due 10..50 ms into a 120 ms stall
    assert all(ms > 60 for ms in latency[4:9]), latency
    # ...while the generator itself kept its schedule
    assert max(r.late_ms for r in result.records) < 30


def test_generator_stall_shows_in_lateness():
    """When the generator's own thread is held up, ops go out late; that is
    recorded as lateness and still counted in latency from the due time."""

    async def send(conn, op):
        if op.index == 3:
            time.sleep(0.12)  # blocks the event loop itself
        return op.index

    result = asyncio.run(loadgen.open_loop(_schedule(10, 0.01), send))
    late = [r.late_ms for r in result.records]
    assert max(late[:3]) < 30
    assert late[4] > 60, late
    assert result.records[4].latency_ms >= late[4]


def test_closed_loop_replays_whole_passes():
    sent = []

    async def send(conn, op):
        sent.append(op)
        await asyncio.sleep(0.001)
        return op

    result = asyncio.run(
        loadgen.closed_loop([(i % 2, i) for i in range(7)], send, seconds=0.03)
    )
    assert len(result.records) % 7 == 0 and len(result.records) >= 14
    assert len(result.pass_rates) == len(result.records) // 7
    assert sent[:8] == [0, 1, 2, 3, 4, 5, 6, 0]  # one caller, in list order
    assert {r.conn for r in result.records} == {0, 1}


def test_floor_is_each_ops_fastest_repeat_across_both_halves():
    def half(*passes):
        records = [
            loadgen.OpRecord(op=None, conn=0, due=0.0, done=ms / 1e3)
            for one_pass in passes for ms in one_pass
        ]
        return loadgen.PhaseResult(records=records, elapsed_s=1.0, cpu_s=0.0)

    before = half([5.0, 9.0, 2.0], [4.0, 30.0, 2.5])  # a slow stretch hits op 1
    after = half([6.0, 8.0, 2.2])
    assert harness.floor_ms(3, [before, after]) == pytest.approx([4.0, 8.0, 2.0])
    before.records[2].error = "boom"  # a failed repeat times nothing
    assert harness.floor_ms(3, [before, after]) == pytest.approx([4.0, 8.0, 2.2])
    floors = [float(i) for i in range(1, 21)]
    assert stats.percentile(floors, 95, repeats=10) == 19.0  # 200 timed repeats
    assert stats.percentile(floors, 95, repeats=9) is None  # 180: too few beyond


def test_failed_op_is_recorded_not_raised():
    async def send(conn, op):
        raise RuntimeError("boom")

    result = asyncio.run(loadgen.open_loop(_schedule(2, 0.001), send))
    assert [r.error for r in result.records] == ["RuntimeError: boom"] * 2


# ----------------------------------------------------------------------
# the oracle check
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small():
    graph = web_graph(400, 2000, seed=3)
    pool = inputs.build_pool(graph, 6, seed=5)
    return graph, pool


def _reply(shape, names, graph, stamp=0):
    return SimpleNamespace(relation=simulation(shape.pattern(names), graph), stamp=stamp)


class _Corrupted:
    def __init__(self, relation, names):
        self._matches = {q: set(vs) for q, vs in relation.as_dict().items()}
        self._matches[names[0]].add("not-a-node")

    def as_dict(self):
        return self._matches


def test_oracle_check_catches_a_corrupted_relation(small):
    graph, pool = small
    op = inputs.read_op(pool, 0, 0)
    good = loadgen.OpRecord(op=op, conn=0, due=0.0, reply=_reply(pool[0], op.names, graph))
    assert verify.verify_reads(graph, pool, [good]).mismatches == 0

    bad_reply = SimpleNamespace(relation=_Corrupted(good.reply.relation, op.names), stamp=0)
    bad = loadgen.OpRecord(op=op, conn=0, due=0.0, reply=bad_reply)
    verdict = verify.verify_reads(graph, pool, [good, bad])
    assert verdict.checked == 2 and verdict.mismatches == 1


def test_oracle_check_catches_a_dropped_push(small):
    graph, pool = small
    shape, edge = next(
        (s, found[0])
        for s in pool
        if (found := inputs.critical_edges(s, inputs.answer_of(s, graph), graph))
    )
    names = shape.names("s")
    before = simulation(shape.pattern(names), graph).as_dict()
    after_graph = graph.copy()
    after_graph.remove_edge(*edge)
    after = simulation(shape.pattern(names), after_graph).as_dict()
    assert before != after, "a critical edge must change the answer"
    push = verify.Push(
        stamp=1,
        added=tuple((q, v) for q in names for v in after[q] - before[q]),
        removed=tuple((q, v) for q in names for v in before[q] - after[q]),
        arrival=0.0,
    )
    mutate = loadgen.OpRecord(
        op=inputs.WriteOp((DeleteEdge(*edge),)), conn=0, due=0.0,
        reply=[SimpleNamespace(stamp=1)],
    )

    def log(pushes):
        return verify.SubLog(
            shape=shape, names=names, baseline_stamp=0, pushes=pushes,
            baseline={q: set(vs) for q, vs in before.items()},
        )

    assert verify.verify_mutating(graph, pool, [mutate], [log([push])], 1).mismatches == 0
    dropped = verify.verify_mutating(graph, pool, [mutate], [log([])], 1)
    assert dropped.mismatches == 1 and "folded view" in dropped.problems[0]
    # an unacknowledged op leaves a hole in the stamps: that is a failure too
    assert verify.verify_mutating(graph, pool, [], [log([])], 1).mismatches >= 1


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def _tiny(name: str) -> workloads.Spec:
    return dataclasses.replace(workloads.SPECS[name], nodes=500, edges=2500)


def test_input_digest_repeats_for_a_seed_and_differs_for_another():
    spec = _tiny("sharded_mixed")
    a = workloads.build_inputs(spec, 1, 6.0)
    b = workloads.build_inputs(spec, 1, 6.0)
    c = workloads.build_inputs(spec, 2, 6.0)
    assert a.input_digest == b.input_digest
    assert a.input_digest != c.input_digest
    assert a.dataset_digest == c.dataset_digest  # the seed draws traffic only


def test_pool_is_structurally_deduplicated(small):
    _, pool = small
    assert len({shape.signature() for shape in pool}) == len(pool)
    twin = inputs.Shape(pool[0].labels[::-1], tuple(
        sorted((len(pool[0].labels) - 1 - u, len(pool[0].labels) - 1 - v) for u, v in pool[0].edges)
    ))
    assert twin.signature() == pool[0].signature()


def test_exact_mix_follows_the_weights_exactly():
    import random

    picks = inputs.exact_mix(random.Random(0), [3.0, 2.0, 1.0], 12)
    assert sorted(picks) == [0] * 6 + [1] * 4 + [2] * 2
    assert picks != sorted(picks)  # the seed orders them


def test_mutation_streams_come_in_whole_cycles():
    built = workloads.build_inputs(_tiny("sharded_mixed"), 1, 20.0)
    open_batches = [op for _, _, op in built.open_ops if op.kind == "mutate"]
    assert open_batches and len(open_batches) % (2 * built.spec.cycle_width) == 0
    graph = built.graph.copy()
    for batch in open_batches:
        inputs.apply_to_graph(graph, batch.ops)  # raises if an edge is toggled twice
    assert sorted(graph.edges()) == sorted(built.graph.edges())
    ladder_batches = [op for op in ladder.ladder_ops(built) if op.kind == "mutate"]
    assert len(ladder_batches) % (2 * built.spec.cycle_width) == 0


# ----------------------------------------------------------------------
# probes and spans
# ----------------------------------------------------------------------
def test_missing_probe_yields_null_and_is_counted():
    probes = ladder.Probes()
    probes.guard(["gone.a", "gone.b"], lambda: {"gone.a": ladder.resolve("repro.net:no_such_name")})
    probes.guard(["fine"], lambda: {"fine": 1.5})
    assert probes.values == {"gone.a": None, "gone.b": None, "fine": 1.5}
    assert probes.missing == 2
    assert "AttributeError" in probes.notes["gone.a"]


def test_layer_self_times_add_up_to_the_outer_span():
    ops = [SimpleNamespace(kind="query"), SimpleNamespace(kind="mutate")]
    outer = ladder.Rung("R3", start_ns=[1000, 9000], dur_ns=[1000, 500])
    middle = ladder.Rung("R2", start_ns=[0, 0], dur_ns=[700, 900])  # 2nd outlasts its parent
    spans, own = ladder.build_spans(
        "w", ops, [("net", outer), ("concurrent", middle)], [200, 100],
        {"query": ("core", "core.compute"), "mutate": ("partition", "partition.mutate")},
    )
    assert [sum(o.values()) for o in own] == [1000, 500]
    assert own[0] == {"net": 300, "concurrent": 500, "core": 200}
    assert own[1] == {"net": 0, "concurrent": 400, "partition": 100}
    by_id = {s["span_id"]: s for s in spans}
    for span in spans:
        if span["parent"]:
            parent = by_id[span["parent"]]
            assert parent["start_ns"] <= span["start_ns"] <= span["end_ns"] <= parent["end_ns"]


def test_final_line_holds_exactly_the_declared_metrics():
    declared = [{"name": "a_ms", "unit": "ms"}, {"name": "b_s", "unit": "s"}]
    line = json.loads(report.final_line(True, 0, 0, declared, {"a_ms": 1.25, "extra": 9.0}))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] == 1
    assert line["metrics"] == {"a_ms": {"value": 1.25, "unit": "ms"}, "b_s": {"value": None, "unit": "s"}}


def test_benchmark_json_names_what_the_harness_reports():
    with open(report.BENCHMARK_JSON) as fh:
        bench = json.load(fh)
    gated = [w["name"] for w in bench["workloads"]]
    assert gated == [name for name in workloads.SPECS if name in gated] and len(gated) >= 2
    assert "setup_s" in {m["name"] for m in bench["end_to_end"]}
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert metric["unit"] == report.unit_of(metric["name"]), metric
