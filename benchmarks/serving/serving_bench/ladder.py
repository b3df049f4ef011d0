"""The traced run: an outside-in ladder of public entry points.

Tracing cannot reach inside ``src/`` from here, so per-layer time is taken
by difference.  Some 200 ops of the workload (:func:`ladder_ops`) are replayed one
at a time against successively deeper public entry points, each on its own
identically built and warmed instance, all alive at once and taking turns
op by op (see :func:`replay_interleaved` for why):

* **R3** ``repro.net.connect().run/apply`` over loopback TCP,
* **R2** ``ConcurrentSessionServer.run/apply`` in this process,
* **R1** ``SimulationSession.run/apply``,
* **R0** what the reply itself reports: ``RunMetrics.wall_seconds`` for a
  query that ran the protocol, and for mutations the bare
  ``Fragmentation.delete_edge/insert_edge`` on a copy.

A layer's self time is its rung minus the next one down (``net`` = R3 - R2,
``concurrent`` = R2 - R1, ``session`` = R1 - R0, ``core``/``partition`` =
R0).  For the sharded workload the chain is R3 -> sharded R2 -> thread
cache-off R2 -> cache-off R1 -> R0, which adds the ``sharding`` layer.
Per op the rungs are written as nested spans to ``trace-<workload>.jsonl``;
a child longer than its parent (noise between instances) is clipped, so
self times always add up to the R3 span.

Every probe is guarded: an entry point that no longer resolves or raises
yields ``None`` and is counted in ``probes_missing``; it never aborts.
"""

from __future__ import annotations

import asyncio
import gc
import importlib
import json
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from serving_bench import harness, inputs as inputs_mod, server_proc, stats
from serving_bench.sut import ServerUnderTest
from serving_bench.workloads import CYCLE_WIDTH, Inputs

LADDER_OPS = 200


def resolve(path: str):
    """``"package.module:attr"`` -> the object; raises if it is gone."""
    module, _, attr = path.partition(":")
    return getattr(importlib.import_module(module), attr)


class Probes:
    """Metric values by name; failures become ``None`` plus a note."""

    def __init__(self) -> None:
        self.values: Dict[str, Optional[float]] = {}
        self.notes: Dict[str, str] = {}
        self.missing = 0

    def put(self, name: str, value: Optional[float], note: str = "") -> None:
        self.values[name] = value
        if note:
            self.notes[name] = note

    def guard(self, names: Sequence[str], fn: Callable[[], Dict[str, Optional[float]]]) -> None:
        """Run one probe that fills ``names``; on any error all become None."""
        try:
            found = fn()
        except Exception as exc:
            self.missing += len(names)
            for name in names:
                self.put(name, None, f"probe failed: {type(exc).__name__}: {exc}")
            return
        for name in names:
            self.put(name, found.get(name))


# ----------------------------------------------------------------------
# rungs
# ----------------------------------------------------------------------
@dataclass
class Rung:
    """Durations (ns) and replies of one replay, index-aligned with the ops."""

    name: str
    start_ns: List[int] = field(default_factory=list)
    dur_ns: List[int] = field(default_factory=list)
    replies: List[object] = field(default_factory=list)
    pushes: List[tuple] = field(default_factory=list)

    def ms(self, i: int) -> float:
        return self.dur_ns[i] / 1e6


def ladder_ops(inputs: Inputs, limit: int = LADDER_OPS) -> List[object]:
    """The ops every rung replays, one at a time.

    Read-only workloads: the first ``limit`` ops of the open-loop sequence.
    Mutating ones: the closed-loop list (one mutate batch to three reads,
    whole mutation cycles) as often as fits into ``limit`` -- the graph ends
    as it began, so the next rung replays the same ops on the same graph,
    and the write-path probes see some fifty batches where the open loop's
    first ``limit`` ops hold three."""
    if not inputs.spec.mutating:
        return [op for _, _, op in inputs.open_ops[:limit]]
    once = [op for _, op in inputs.closed_ops]
    return once * max(1, limit // len(once))


def _warm_like_setup(inputs: Inputs, run, subscribe) -> None:
    """The same set-up pass the end-to-end run does."""
    for shape in inputs.subs:
        subscribe(shape.pattern(shape.names("s")))
    for shape in inputs.warmup:
        run(shape.pattern())


@dataclass
class Target:
    """One rung's live instance: what to call, and what it collects into."""

    rung: Rung
    run: Callable
    apply: Callable
    #: the in-process server behind it (None for the TCP rungs)
    server: object = None
    timings: Dict[str, float] = field(default_factory=dict)


def tcp_target(stack: ExitStack, inputs: Inputs, name: str) -> Target:
    connect = resolve("repro.net:connect")
    server = ServerUnderTest(inputs.spec.server_args())
    stack.callback(server.stop)
    client = connect(server.address)
    stack.callback(client.close)

    def subscribe(query) -> None:
        stack.callback(client.subscribe(query).close)

    _warm_like_setup(inputs, client.run, subscribe)
    return Target(Rung(name), client.run, client.apply)


def server_target(stack: ExitStack, inputs: Inputs, name: str, subs: bool = True, **overrides) -> Target:
    """``ConcurrentSessionServer`` in this process."""
    server, timings = server_proc.build_server({**inputs.spec.server_args(), **overrides})
    stack.callback(server.close)
    rung = Rung(name)

    def subscribe(query) -> None:
        if subs:
            server.subscribe(query, lambda *delta: rung.pushes.append(delta))

    _warm_like_setup(inputs, server.run, subscribe)
    return Target(rung, server.run, server.apply, server, timings)


def session_target(stack: ExitStack, inputs: Inputs, name: str, **overrides) -> Target:
    """The bare ``SimulationSession`` (of a thread-backend server that is
    never asked anything itself)."""
    args = {**inputs.spec.server_args(), "backend": "thread", **overrides}
    server, timings = server_proc.build_server(args)
    stack.callback(server.close)
    session = server.session
    _warm_like_setup(inputs, session.run, lambda query: None)
    return Target(Rung(name), session.run, session.apply, server, timings)


def replay_interleaved(targets: Sequence[Target], ops: Sequence[object], pool) -> None:
    """Op ``i`` on every rung, then op ``i + 1`` on every rung.

    Rung after rung would be simpler, but this box has slow spells of ten
    seconds and more: one would land on a single rung and show up as a
    layer.  Interleaved, every rung meets every spell, and the per-op
    differences between rungs cancel it.
    """
    # Replies pile up as the replay goes; frozen, what is already here
    # stays out of the collector's way.
    gc.collect()
    gc.freeze()
    try:
        for op in ops:
            for target in targets:
                if op.kind == "query":
                    call, arg = target.run, pool[op.pool_index].pattern(op.names)
                else:
                    call, arg = target.apply, list(op.ops)
                start = time.perf_counter_ns()
                reply = call(arg)
                rung = target.rung
                rung.dur_ns.append(time.perf_counter_ns() - start)
                rung.start_ns.append(start)
                rung.replies.append(reply)
    finally:
        gc.unfreeze()


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def _is_hit(reply) -> bool:
    return bool(reply.metrics.extras.get("cache_hit"))


def _reported_ns(reply, kind: str) -> int:
    """R0 for a query: the run's own wall time (0 for a cache hit)."""
    if kind == "query":
        return 0 if _is_hit(reply) else int(reply.metrics.wall_seconds * 1e9)
    return 0


def build_spans(workload: str, ops, chain: List[tuple], leaf_ns: List[int], leaf: Dict[str, tuple]) -> tuple:
    """Nested spans per op from outermost to innermost rung.

    ``chain`` is ``[(layer, rung), ...]`` outermost first; ``leaf_ns`` the
    innermost (reported) duration per op and ``leaf[kind]`` its
    ``(layer, span name)``.  Returns (spans, per-op self times by layer).
    """
    spans: List[dict] = []
    self_ns: List[Dict[str, int]] = []
    for i, op in enumerate(ops):
        trace_id = f"{workload}-{i}"
        outer = chain[0][1]
        start, budget = outer.start_ns[i], outer.dur_ns[i]
        levels = [(layer, f"{layer}.{'run' if op.kind == 'query' else 'apply'}", rung.dur_ns[i]) for layer, rung in chain]
        leaf_layer, leaf_name = leaf[op.kind]
        levels.append((leaf_layer, leaf_name, leaf_ns[i]))
        parent = None
        own: Dict[str, int] = {}
        for depth, (layer, name, dur) in enumerate(levels):
            dur = min(dur, budget)  # a child never outlasts its parent
            if depth:
                start += (budget - dur) // 2  # centred: request and reply halves
            span_id = f"{trace_id}/{depth}"
            spans.append({
                "trace_id": trace_id, "span_id": span_id, "name": name,
                "parent": parent, "layer": layer, "start_ns": start,
                "end_ns": start + dur,
                "source": "measured" if depth == 0 else "ladder" if depth < len(levels) - 1 else "reported",
            })
            if depth:
                previous = levels[depth - 1][0]
                own[previous] = own.get(previous, 0) + (budget - dur)
            parent, budget = span_id, dur
        own[levels[-1][0]] = own.get(levels[-1][0], 0) + budget
        self_ns.append(own)
    return spans, self_ns


# ----------------------------------------------------------------------
# the traced run
# ----------------------------------------------------------------------
@dataclass
class Traced:
    values: Dict[str, Optional[float]]
    notes: Dict[str, str]
    probes_missing: int
    flags: List[str]
    attempted: int
    failed: int
    document: Dict[str, object]


def _median_of(values: Sequence[float]) -> Optional[float]:
    return stats.percentile(list(values), 50)


def _open_loop_part(inputs: Inputs, probes: Probes, flags: List[str]) -> tuple:
    """The workload's own open-loop phase, spans on: generator health, the
    cache hit rate and the cut, which only the served instance can tell.
    Returns (spans, attempted, problems)."""
    driven = asyncio.run(harness.drive(inputs, with_closed_loop=False))
    verdict = harness.judge(inputs, driven)
    health, health_flags = harness.generator_health(inputs, driven)
    flags += health_flags
    for name in ("loadgen.late_p95_ms", "loadgen.cpu_share", "net.query_p99_ms"):
        note = ""
        if name == "net.query_p99_ms" and health[name] is None:
            note = f"needs {stats.samples_needed(99)} samples, phase had {len(driven.opened.records)}"
        probes.put(name, health[name], note)
    probes.put("session.cache_hit_rate", driven.hit_rate())
    partition = driven.final.partition
    probes.guard(
        ["partition.crossing_edges", "partition.boundary_total"],
        lambda: {
            "partition.crossing_edges": float(partition.n_crossing_edges),
            "partition.boundary_total": float(partition.total_boundary),
        },
    )
    name = inputs.spec.name
    spans = [
        {
            "trace_id": f"{name}-open-{i}", "span_id": f"{name}-open-{i}/0",
            "name": f"client.{'run' if r.op.kind == 'query' else 'apply'}",
            "parent": None, "layer": "loadgen",
            "start_ns": int(r.due * 1e9), "end_ns": int(r.done * 1e9),
            "sent_ns": int(r.sent * 1e9), "source": "measured",
        }
        for i, r in enumerate(driven.opened.records)
    ]
    return spans, len(driven.records), verdict.problems


def run_traced(inputs: Inputs, out_dir: Path) -> Traced:
    spec = inputs.spec
    probes = Probes()
    flags: List[str] = []
    ops = ladder_ops(inputs)
    reads = [i for i, op in enumerate(ops) if op.kind == "query"]
    writes = [i for i, op in enumerate(ops) if op.kind == "mutate"]
    sharded = spec.backend == "sharded"
    probes.put("graph.gen_s", inputs.gen_s)
    spans, attempted, problems = _open_loop_part(inputs, probes, flags)

    def diff_ms(outer: Rung, inner: Rung, which: List[int]) -> Optional[float]:
        # paired per op: a hit that promotes a warm state and one that does
        # not form two modes, and a difference of medians would jump
        # between them
        return _median_of([outer.ms(i) - inner.ms(i) for i in which])

    cache_off = {"session_kwargs": {"cache_size": 0}}
    with ExitStack() as stack:
        t3 = tcp_target(stack, inputs, "R3")
        t3_quiet = tcp_target(stack, inputs, "R3-spans-off")
        t2 = server_target(stack, inputs, "R2")
        t1z = session_target(stack, inputs, "R1-cache-off", **cache_off)
        if sharded:
            t2z = server_target(stack, inputs, "R2-thread-cache-off", backend="thread", **cache_off)
            chain_targets = [("net", t3), ("sharding", t2), ("concurrent", t2z), ("session", t1z)]
        else:
            t1 = session_target(stack, inputs, "R1")
            chain_targets = [("net", t3), ("concurrent", t2), ("session", t1)]
        targets = [t3, t3_quiet] + [t for _, t in chain_targets[1:]]
        if not sharded:
            targets.append(t1z)
        bare = None
        if inputs.subs:
            bare = server_target(stack, inputs, "R2-no-subs", subs=False)
            targets.append(bare)
        replay_interleaved(targets, ops, inputs.pool)

        r3, r3_quiet, r2, r1z = t3.rung, t3_quiet.rung, t2.rung, t1z.rung
        chain = [(layer, target.rung) for layer, target in chain_targets]
        innermost = chain[-1][1]
        partition_ns = _partition_rung(probes, t1z.server, ops)
        leaf_ns = [
            _reported_ns(innermost.replies[i], op.kind) if op.kind == "query" else partition_ns.get(i, 0)
            for i, op in enumerate(ops)
        ]
        ladder_spans, _ = build_spans(
            spec.name, ops, chain, leaf_ns,
            {"query": ("core", "core.compute"), "mutate": ("partition", "partition.mutate")},
        )
        spans += ladder_spans

        # -- layer shares: unclipped sums, so that noise between instances
        # averages out instead of piling up on the positive side ----------
        total = sum(r3.dur_ns) or 1
        sums = [sum(rung.dur_ns) for _, rung in chain]
        shares: Dict[str, float] = {}
        for k, (layer, _) in enumerate(chain[:-1]):
            shares[layer] = (sums[k] - sums[k + 1]) / total
        leaf_query = sum(leaf_ns[i] for i in reads)
        leaf_mutate = sum(leaf_ns[i] for i in writes)
        shares[chain[-1][0]] = (sums[-1] - leaf_query - leaf_mutate) / total
        shares["core"] = leaf_query / total
        if writes:
            shares["partition"] = leaf_mutate / total
        for layer, share in shares.items():
            probes.put(f"{layer}.self_share", share)

        # -- net ---------------------------------------------------------
        probes.put("net.self_ms_p50", diff_ms(r3, r2, reads))
        quiet = _median_of([r3_quiet.ms(i) for i in reads])
        probes.put(
            "loadgen.trace_overhead_pct",
            diff_ms(r3, r3_quiet, reads) / quiet * 100.0 if quiet else None,
        )
        probes.guard(
            ["net.req_decode_us_p50", "net.reply_encode_us_p50", "net.reply_decode_us_p50",
             "net.reply_bytes_p50", "net.chunked_replies"],
            lambda: _codec_probe(inputs, ops, r2, reads),
        )
        if inputs.subs:
            probes.guard(["net.push_encode_us_p50", "net.push_bytes_p50"], lambda: _push_probe(r2))

        # -- concurrent --------------------------------------------------
        above, below = chain[-2][1], chain[-1][1]
        probes.put("concurrent.self_ms_p50", diff_ms(above, below, reads))
        if writes:
            probes.put("concurrent.mutate_self_ms_p50", diff_ms(above, below, writes))
        if bare is not None:
            probes.put(
                "concurrent.notify_ms_per_sub_p50",
                _median_of([(r2.ms(i) - bare.rung.ms(i)) / len(inputs.subs) for i in writes]),
            )

        # -- session -----------------------------------------------------
        if not sharded:
            r1 = chain[-1][1]
            hits = [i for i in reads if _is_hit(r1.replies[i])]
            probes.put(
                "session.hit_ms_p50", _median_of([r1.ms(i) for i in hits]),
                f"n={len(hits)} hits of {len(reads)} reads",
            )
        probes.guard(
            ["session.dispatch_ms_p50", "session.canonical_us_p50"],
            lambda: _session_probe(inputs, ops, reads),
        )
        probes.put(
            "session.miss_self_ms_p50",
            _median_of([r1z.ms(i) - r1z.replies[i].metrics.wall_seconds * 1e3 for i in reads]),
        )
        if writes:
            probes.guard(
                ["session.apply_ms_p50", "session.entries_repaired_per_mut",
                 "session.entries_kept_per_mut", "session.entries_evicted_per_mut",
                 "core.falsified_mean", "core.repair_share"],
                lambda: _apply_probe(r2, writes),
            )

        # -- core (every read of the cache-off rung ran the protocol) -----
        metrics = [r1z.replies[i].metrics for i in reads]
        walls = [m.wall_seconds * 1e3 for m in metrics]
        probes.put("core.compute_ms_p50", stats.percentile(walls, 50))
        probes.put(
            "core.compute_ms_p95", stats.percentile(walls, 95),
            "" if len(walls) >= stats.samples_needed(95) else f"needs 200 samples, ladder had {len(walls)}",
        )
        probes.put("core.rounds_mean", stats.mean(m.n_rounds for m in metrics))
        probes.put("core.messages_mean", stats.mean(m.n_messages for m in metrics))
        probes.put("core.ds_kb_mean", stats.mean(m.ds_kb for m in metrics))
        probes.put("core.pt_ms_p50", _median_of([m.pt_seconds * 1e3 for m in metrics]))
        probes.guard(["core.first_query_extra_ms"], lambda: _first_query_probe(inputs))

        # -- partition ---------------------------------------------------
        probes.put("partition.build_s", t2.timings["partition_s"])

        # -- sharding / runtime ------------------------------------------
        if sharded:
            probes.put("sharding.self_ms_p50", diff_ms(r2, chain[2][1], reads))
            probes.guard(
                ["sharding.ms_per_round_p50", "runtime.ds_kb_mean", "runtime.rounds_mean",
                 "runtime.worker_rss_mb_max", "runtime.respawns"],
                lambda: _runtime_probe(t2, reads),
            )

    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / f"trace-{spec.name}.jsonl"
    with open(trace_path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    print(f"   trace: {trace_path}  ({len(spans)} spans, {len(ops)} ladder ops)")

    document = {
        "per_layer": probes.values,
        "notes": probes.notes,
        "probes_missing": probes.missing,
        "ladder_ops": len(ops),
        "ladder_reads": len(reads),
        "ladder_writes": len(writes),
        "open_loop_samples": attempted,
        "problems": problems[:50],
        "trace_file": str(trace_path),
    }
    return Traced(
        values=probes.values, notes=probes.notes, probes_missing=probes.missing,
        flags=flags, attempted=attempted, failed=len(problems), document=document,
    )


# ----------------------------------------------------------------------
# probes
# ----------------------------------------------------------------------
def _timed_us(fn, *args) -> tuple:
    start = time.perf_counter_ns()
    out = fn(*args)
    return out, (time.perf_counter_ns() - start) / 1e3


def _codec_probe(inputs: Inputs, ops, r2: Rung, reads: List[int]) -> Dict[str, Optional[float]]:
    encode, decode = resolve("repro.net:encode"), resolve("repro.net:decode")
    run_request = resolve("repro.net.protocol:RunRequest")
    run_reply = resolve("repro.net.protocol:RunReply")
    chunk_size = resolve("repro.net.server:CHUNK_SIZE")
    req_decode, reply_encode, reply_decode, reply_bytes = [], [], [], []
    for i in reads:
        op = ops[i]
        frame = encode(run_request(query=inputs.pool[op.pool_index].pattern(op.names)))
        req_decode.append(_timed_us(decode, frame)[1])
        reply = r2.replies[i]
        data, took = _timed_us(encode, run_reply(reply.relation, reply.metrics, reply.stamp))
        reply_encode.append(took)
        reply_bytes.append(float(len(data)))
        reply_decode.append(_timed_us(decode, data)[1])
    return {
        "net.req_decode_us_p50": _median_of(req_decode),
        "net.reply_encode_us_p50": _median_of(reply_encode),
        "net.reply_decode_us_p50": _median_of(reply_decode),
        "net.reply_bytes_p50": _median_of(reply_bytes),
        "net.chunked_replies": float(sum(1 for n in reply_bytes if n > chunk_size)),
    }


def _push_probe(r2: Rung) -> Dict[str, Optional[float]]:
    encode = resolve("repro.net:encode")
    push_delta = resolve("repro.net.protocol:PushDelta")
    took, size = [], []
    for sub_id, stamp, added, removed in r2.pushes:
        data, us = _timed_us(encode, push_delta(sub_id=sub_id, stamp=stamp, added=added, removed=removed))
        took.append(us)
        size.append(float(len(data)))
    return {
        "net.push_encode_us_p50": _median_of(took),
        "net.push_bytes_p50": _median_of(size),
    }


def _session_probe(inputs: Inputs, ops, reads: List[int]) -> Dict[str, Optional[float]]:
    """``run(q)`` minus ``run(q, algorithm=<what auto resolved to>)``: the
    per-request algorithm choice.  Both are timed as cache *hits* on a
    cached session, where the choice is nearly all that is left; between
    two protocol runs the difference would drown in their noise."""
    server, _ = server_proc.build_server({**inputs.spec.server_args(), "backend": "thread"})
    cached = server.session
    dispatch, canonical = [], []
    try:
        for i in reads[:60]:
            op = ops[i]
            shape = inputs.pool[op.pool_index]
            first = cached.run(shape.pattern(op.names))
            resolved = first.metrics.algorithm.lower()
            cached.run(shape.pattern(op.names), algorithm=resolved)
            _, auto_us = _timed_us(cached.run, shape.pattern(op.names))
            _, fixed_us = _timed_us(
                lambda: cached.run(shape.pattern(op.names), algorithm=resolved)
            )
            dispatch.append((auto_us - fixed_us) / 1e3)
            canonical.append(_timed_us(cached.canonical_form_of, shape.pattern(op.names))[1])
    finally:
        server.close()
    return {
        "session.dispatch_ms_p50": _median_of(dispatch),
        "session.canonical_us_p50": _median_of(canonical),
    }


def _apply_probe(r2: Rung, writes: List[int]) -> Dict[str, Optional[float]]:
    outcomes = [stamped.outcome for i in writes for stamped in r2.replies[i]]
    per_batch_ms = [
        sum(stamped.outcome.wall_seconds for stamped in r2.replies[i]) * 1e3 for i in writes
    ]
    repaired = sum(o.cache_repaired for o in outcomes)
    evicted = sum(o.cache_evicted for o in outcomes)
    return {
        "session.apply_ms_p50": _median_of(per_batch_ms),
        "session.entries_repaired_per_mut": repaired / len(outcomes),
        "session.entries_kept_per_mut": sum(o.cache_kept for o in outcomes) / len(outcomes),
        "session.entries_evicted_per_mut": evicted / len(outcomes),
        "core.falsified_mean": sum(o.falsified for o in outcomes) / len(outcomes),
        "core.repair_share": repaired / (repaired + evicted) if repaired + evicted else None,
    }


def _first_query_probe(inputs: Inputs) -> Dict[str, Optional[float]]:
    """First query on a fresh instance minus the same query again: what is
    built lazily (CSR compile on the array engine) and so escapes set-up.
    One shot each on three fresh instances; the median."""
    args = {**inputs.spec.server_args(), "backend": "thread", "session_kwargs": {"cache_size": 0}}
    shape = inputs.pool[0]
    extra = []
    for _ in range(3):
        server, _ = server_proc.build_server(args)
        try:
            _, first_us = _timed_us(server.session.run, shape.pattern())
            again = min(_timed_us(server.session.run, shape.pattern())[1] for _ in range(3))
        finally:
            server.close()
        extra.append((first_us - again) / 1e3)
    return {"core.first_query_extra_ms": _median_of(extra)}


def _partition_rung(probes: Probes, server, ops) -> Dict[int, int]:
    """Bare fragmentation patching for each mutate batch (read-only
    workloads toggle a few random edges instead); returns ns per batch."""
    per_batch: Dict[int, int] = {}
    per_op_us: List[float] = []

    def patch() -> Dict[str, Optional[float]]:
        fragmentation = server.session.fragmentation
        batches = [(i, op.ops) for i, op in enumerate(ops) if op.kind == "mutate"]
        if not batches:
            import random

            cycle = inputs_mod.plain_cycles(fragmentation.graph, random.Random(0), 4, CYCLE_WIDTH)
            batches = [(None, batch.ops) for batch in sum(cycle, [])]
        for i, batch in batches:
            spent = 0
            for op in batch:
                method = fragmentation.delete_edge if type(op).__name__ == "DeleteEdge" else fragmentation.insert_edge
                _, us = _timed_us(method, op.u, op.v)
                per_op_us.append(us)
                spent += int(us * 1e3)
            if i is not None:
                per_batch[i] = spent
        return {"partition.mutate_us_p50": _median_of(per_op_us)}

    probes.guard(["partition.mutate_us_p50"], patch)
    return per_batch


def _runtime_probe(sharded: Target, reads: List[int]) -> Dict[str, Optional[float]]:
    r2 = sharded.rung
    metrics = [r2.replies[i].metrics for i in reads]
    per_round = [r2.ms(i) / m.n_rounds for i, m in zip(reads, metrics) if m.n_rounds]
    rss = [row["peak_rss_kb"] / 1024.0 for row in sharded.server.shard_stats()]
    return {
        "sharding.ms_per_round_p50": _median_of(per_round),
        "runtime.ds_kb_mean": stats.mean(m.ds_kb for m in metrics),
        "runtime.rounds_mean": stats.mean(m.n_rounds for m in metrics),
        "runtime.worker_rss_mb_max": max(rss),
        "runtime.respawns": float(sharded.server.respawns),
    }
