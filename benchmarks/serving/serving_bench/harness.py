"""One end-to-end run: set-up, open loop, closed loop, verification.

Requests go to the server exactly as the README shows: ``connect()`` with
v2 negotiated, ``client.run(q)``, ``client.apply([...])``,
``client.subscribe(q)``, every default left alone.
"""

from __future__ import annotations

import asyncio
import gc
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.net import connect

from serving_bench import loadgen, stats, verify
from serving_bench.sut import ServerUnderTest
from serving_bench.workloads import Inputs

#: a run is flagged when the generator, not the server, shaped the numbers
MAX_LATE_P95_MS = 5.0
MAX_CPU_SHARE = 0.5


@dataclass
class Live:
    """A started, warmed server with its two connections and standing
    subscriptions."""

    server: ServerUnderTest
    clients: List
    sub_logs: List[verify.SubLog] = field(default_factory=list)
    readers: List[asyncio.Task] = field(default_factory=list)
    setup_s: float = 0.0

    async def close(self) -> None:
        for task in self.readers:
            task.cancel()
        await asyncio.gather(*self.readers, return_exceptions=True)
        for client in self.clients:
            try:
                await client.aclose()
            except Exception:
                pass  # the server may already be gone; the kill below is what matters
        self.server.stop()


def make_send(live: Live, inputs: Inputs) -> loadgen.Send:
    pool = inputs.pool

    async def send(conn: int, op) -> object:
        client = live.clients[conn]
        if op.kind == "query":
            return await client.run(pool[op.pool_index].pattern(op.names))
        return await client.apply(list(op.ops))

    return send


async def _read_pushes(subscription, log: verify.SubLog) -> None:
    async for delta in subscription:
        log.pushes.append(
            verify.Push(
                stamp=delta.stamp,
                added=delta.added,
                removed=delta.removed,
                arrival=time.perf_counter(),
                lapsed=delta.lapsed,
            )
        )


async def set_up(inputs: Inputs) -> Live:
    """partition + server start + warm (in the subprocess), then connect,
    subscribe, and run the set-up pass.  ``setup_s`` leaves out graph
    generation, which the server reports."""
    start = time.perf_counter()
    server = ServerUnderTest(inputs.spec.server_args())
    live = Live(server=server, clients=[])
    try:
        for _ in range(2):
            live.clients.append(await connect(server.address, async_=True))
        for shape in inputs.subs:
            names = shape.names("s")
            subscription = await live.clients[1].subscribe(shape.pattern(names))
            log = verify.SubLog(
                shape=shape,
                names=names,
                baseline={q: set(vs) for q, vs in subscription.relation.as_dict().items()},
                baseline_stamp=subscription.stamp,
            )
            live.sub_logs.append(log)
            live.readers.append(asyncio.create_task(_read_pushes(subscription, log)))
        for i, shape in enumerate(inputs.warmup):
            await live.clients[i % 2].run(shape.pattern())
    except BaseException:
        await live.close()
        raise
    live.setup_s = time.perf_counter() - start - server.info["gen_s"]
    return live


def _ms(records: List[loadgen.OpRecord], kind: str) -> List[float]:
    return [r.latency_ms for r in records if r.op.kind == kind and r.error is None]


def push_lags_ms(open_records: List[loadgen.OpRecord], sub_logs: List[verify.SubLog]) -> List[float]:
    """Due time of a mutate batch -> arrival of each PUSH stamped by it."""
    due_of: Dict[int, float] = {}
    for record in open_records:
        if record.op.kind == "mutate" and record.error is None and record.reply:
            due_of[record.reply[-1].stamp] = record.due
    return [
        (push.arrival - due_of[push.stamp]) * 1e3
        for log in sub_logs
        for push in log.pushes
        if push.stamp in due_of
    ]


@dataclass
class Driven:
    """Raw outcome of the measured phases against one live server."""

    opened: loadgen.PhaseResult
    #: the closed-loop halves, before and after the open loop (or neither)
    closed: List[loadgen.PhaseResult]
    sub_logs: List[verify.SubLog]
    #: ``stats()`` replies before and after the open-loop phase, and last
    before: object
    after: object
    final: object
    peak_rss_mb: Optional[float]
    setup_s: float

    @property
    def records(self) -> List[loadgen.OpRecord]:
        return self.opened.records + [r for half in self.closed for r in half.records]

    def hit_rate(self) -> Optional[float]:
        """Result-cache hit rate over the open-loop phase alone, as the
        server counted it (subscriber diffing included).  A backend that
        answers no query from the coordinator's cache served none from it."""
        window = self.after.stats.queries_served - self.before.stats.queries_served
        hits = self.after.stats.cache_hits - self.before.stats.cache_hits
        if window:
            return hits / window
        return 0.0 if self.opened.records else None


async def drive(inputs: Inputs, with_closed_loop: bool = True) -> Driven:
    """Set up one server, run the measured phases, tear it down."""
    live = await set_up(inputs)
    # The generator decodes every reply, so its own collector would pause
    # it mid-phase -- for longer the more replies it is holding -- and the
    # pause would be billed to whichever ops were in flight.  The inputs
    # are frozen out of the collector's sight and it stays off while ops
    # are timed; nothing here lives long enough for that to cost memory.
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        send = make_send(live, inputs)
        # Half of the closed loop before the open loop and half after it:
        # the host's slow stretches last seconds, and two windows 18 s
        # apart are rarely both inside one.
        closed: List[loadgen.PhaseResult] = []
        half = inputs.closed_seconds / 2

        async def closed_half() -> None:
            if with_closed_loop:
                closed.append(await loadgen.closed_loop(inputs.closed_ops, send, half))

        await closed_half()
        before = await live.clients[0].stats()
        opened = await loadgen.open_loop(inputs.open_ops, send)
        after = await live.clients[0].stats()
        await closed_half()
        await asyncio.sleep(0.3)  # PUSH frames of the last batch may trail its reply
        final = await live.clients[0].stats()
        peak_rss = live.server.peak_rss_mb()
    finally:
        gc.enable()
        gc.unfreeze()
        await live.close()
    return Driven(
        opened=opened, closed=closed, sub_logs=live.sub_logs, before=before,
        after=after, final=final, peak_rss_mb=peak_rss, setup_s=live.setup_s,
    )


def judge(inputs: Inputs, driven: Driven) -> verify.Verdict:
    """Errors, timeouts, oracle mismatches and lapses, as one list."""
    records = driven.records
    if inputs.spec.mutating:
        verdict = verify.verify_mutating(
            inputs.graph, inputs.pool, records, driven.sub_logs, driven.final.stamp
        )
    else:
        verdict = verify.verify_reads(inputs.graph, inputs.pool, records)
    errors = [
        f"{record.op.kind}: {record.error}" for record in records if record.error
    ]
    verdict.problems[:0] = errors
    return verdict


def floor_ms(n_ops: int, halves: Sequence[loadgen.PhaseResult]) -> List[float]:
    """Per position of the closed-loop list, the shortest time (ms) that op
    took in any pass.

    Every pass sends the same ``n_ops`` ops in the same order, so position
    ``i`` of every pass is the same op on the same server state.  What the
    host adds to an op -- a busy neighbour on the core, a late wake-up --
    only ever makes it longer, and by a different amount in every run; the
    shortest of its repeats is the part that is the server's.  Percentiles
    and rates built from these floors differed by 2-10 % between runs of
    the same code where the same figures from all repeats differed by
    13-40 %.
    """
    best = [float("inf")] * n_ops
    for half in halves:
        for k, record in enumerate(half.records):
            if record.error is None:
                best[k % n_ops] = min(best[k % n_ops], record.latency_ms)
    return best  # inf: that op failed in every pass, and the run with it


def generator_health(inputs: Inputs, driven: Driven) -> tuple:
    """(health metrics, flags): did the generator, not the server, shape
    the numbers?"""
    opened = driven.opened
    late = [r.late_ms for r in opened.records]
    health = {
        "loadgen.late_p95_ms": stats.percentile(late, 95),
        "loadgen.late_max_ms": max(late, default=None),
        "loadgen.cpu_share": opened.cpu_share,
        "net.query_p99_ms": stats.percentile(_ms(opened.records, "query"), 99),
    }
    if driven.closed:
        # what the closed loop sustained, slow stretches of the host and all
        health["loadgen.closed_ops_s"] = sum(
            len(half.records) for half in driven.closed
        ) / sum(half.elapsed_s for half in driven.closed)
    flags: List[str] = []
    late_p95 = health["loadgen.late_p95_ms"]
    if late_p95 is not None and late_p95 > MAX_LATE_P95_MS:
        flags.append(f"invalid: generator ran late (p95 {late_p95:.2f} ms > {MAX_LATE_P95_MS} ms)")
    if opened.cpu_share > MAX_CPU_SHARE:
        flags.append(f"invalid: generator used {opened.cpu_share:.2f} of a CPU (> {MAX_CPU_SHARE})")
    n_batches = len([r for r in opened.records if r.op.kind == "mutate"])
    n_lags = len(push_lags_ms(opened.records, driven.sub_logs))
    if inputs.subs and n_lags < n_batches:
        flags.append(f"invalid: {n_lags} PUSH samples for {n_batches} mutate batches")
    return health, flags


@dataclass
class EndToEnd:
    metrics: Dict[str, Optional[float]]
    samples: Dict[str, int]
    health: Dict[str, Optional[float]]
    flags: List[str]
    attempted: int
    failed: int
    problems: List[str]
    durations: Dict[str, object]
    server_stats: Dict[str, object]


async def run_end_to_end(inputs: Inputs, n_setups: int = 3) -> EndToEnd:
    setups: List[float] = []
    for _ in range(n_setups - 1):
        throwaway = await set_up(inputs)
        setups.append(throwaway.setup_s)
        await throwaway.close()
    driven = await drive(inputs)
    setups.append(driven.setup_s)

    verify_start = time.perf_counter()
    verdict = judge(inputs, driven)
    verify_s = time.perf_counter() - verify_start
    attempted = len(driven.records)
    failed = verdict.mismatches

    opened, closed = driven.opened, driven.closed
    floors = floor_ms(len(inputs.closed_ops), closed)
    complete = max(floors) < float("inf")
    read_floors = [
        floor for floor, (_, op) in zip(floors, inputs.closed_ops)
        if op.kind == "query" and complete
    ]
    write_floors = [
        floor for floor, (_, op) in zip(floors, inputs.closed_ops)
        if op.kind == "mutate" and complete
    ]
    passes = sum(len(half.pass_rates) for half in closed)
    query = _ms(opened.records, "query")
    mutate = _ms(opened.records, "mutate")
    lags = push_lags_ms(opened.records, driven.sub_logs)
    metrics = {
        "setup_s": statistics.median(setups),
        "service_p50_ms": stats.percentile(read_floors, 50),
        "service_p95_ms": stats.percentile(read_floors, 95, repeats=passes),
        "mutate_service_p50_ms": stats.percentile(write_floors, 50),
        "query_p50_ms": stats.percentile(query, 50),
        "query_p95_ms": stats.percentile(query, 95),
        "mutate_p50_ms": stats.percentile(mutate, 50),
        "mutate_p95_ms": stats.percentile(mutate, 95),
        "push_lag_p50_ms": stats.percentile(lags, 50),
        "push_lag_p95_ms": stats.percentile(lags, 95),
        "throughput_ops_s": len(floors) * 1e3 / sum(floors) if complete else None,
        "peak_rss_mb": driven.peak_rss_mb,
        "failed_ops_share": failed / attempted if attempted else None,
    }
    samples = {
        "setup_s": len(setups),
        "query": len(query),
        "mutate": len(mutate),
        "push_lag": len(lags),
        "closed_ops": sum(len(half.records) for half in closed),
        "closed_passes": passes,
        "closed_reads": len(read_floors),
        "verified": verdict.checked,
    }
    health, flags = generator_health(inputs, driven)
    server_stats = {
        "session.cache_hit_rate": driven.hit_rate(),
        "final_stamp": driven.final.stamp,
        "partition": driven.final.partition,
        "session_stats": driven.final.stats,
        "backend": driven.final.backend,
    }
    durations = {
        "setup_each_s": setups,
        "open_s": opened.elapsed_s,
        "closed_s": sum(half.elapsed_s for half in closed),
        "verify_s": verify_s,
    }
    return EndToEnd(
        metrics=metrics, samples=samples, health=health, flags=flags,
        attempted=attempted, failed=failed, problems=verdict.problems,
        durations=durations, server_stats=server_stats,
    )
