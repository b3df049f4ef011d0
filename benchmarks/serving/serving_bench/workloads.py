"""The four workloads: what is served, what traffic it gets, and why.

A workload's *dataset* (data graph and pattern pool) is part of its
definition and does not depend on ``--seed``; the seed draws the *traffic*:
arrival times and the order in which requests ask for the patterns.  Run-to-run
spread over seeds therefore measures the server, not the luck of drawing a
cheap or an expensive pattern pool.

Sizes follow three rules, all of them there to keep two runs of the same
code apart by no more than the host is:

* the open-loop phase issues at least 200 queries, so that ``query_p95_ms``
  has ten samples beyond it, inside the run length the driver allows
  (``run_seconds`` in BENCHMARK.json);
* arrivals are nearly periodic (inputs.jittered_schedule) and the slowest
  request still ends before the next one on its path is due: the server is
  20-30 % busy and a request's latency is its service time, not the queue
  in front of it.  At 40-50 % a host that runs 15 % slower makes the
  latencies 30 % longer, and this host's speed moves that much by itself;
* the state the traffic leaves in the server is the same in every pass and
  under every seed: every seed sends the same multiset of requests (whole
  rounds of the pool, or an exact Zipf mix), and where writes meet cached
  answers (``churn_subs``) every cached query has a warm slot.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro import web_graph

from serving_bench import inputs

#: batches between an edge's deletion and its re-insertion in a "plain"
#: mutation cycle (a "critical" one has one batch per subscription)
CYCLE_WIDTH = 6
#: queries after every mutate batch in a closed-loop list
READS_PER_BATCH = 3
#: share of --seconds given to the open-loop phase
OPEN_SHARE = 0.5
#: share of its slot an arrival may move within (inputs.jittered_schedule)
JITTER = 0.3
GRAPH_SEED = 7
POOL_SEED = 11


@dataclass(frozen=True)
class Spec:
    name: str
    why: str
    nodes: int
    edges: int
    backend: str
    engine: str
    #: distinct patterns queried
    pool_size: int
    #: "zipf", "cyclic" or "uniform" choice of the next pattern
    popularity: str
    query_rate: float
    #: apply batches per second in the open-loop phase (0: read-only)
    mutate_rate: float = 0.0
    #: "critical": every batch changes a subscribed answer; "plain": one
    #: random edge per batch
    mutate_kind: str = ""
    n_subs: int = 0
    #: pool patterns run once during set-up (the whole pool where the
    #: result cache can hold it, a prefix where nothing stays cached anyway)
    setup_pass: int = 16
    #: False: the set-up pass runs patterns of its own, so that it leaves
    #: nothing in the result cache that the traffic will ask for
    setup_from_pool: bool = True
    #: queries in the closed-loop list of a read-only workload (a mutating
    #: one interleaves READS_PER_BATCH queries with every mutate batch)
    closed_reads: int = 128
    zipf_exponent: float = 1.1
    #: distinct mutation cycles, each leaving the graph as it found it
    n_cycles: int = 2

    @property
    def mutating(self) -> bool:
        return self.mutate_rate > 0

    @property
    def cycle_width(self) -> int:
        """Batches between an edge's deletion and its re-insertion; a
        mutation cycle is twice as long and leaves the graph as it was."""
        return self.n_subs if self.mutate_kind == "critical" else CYCLE_WIDTH

    def server_args(self) -> Dict:
        """What the server subprocess needs to rebuild the same instance."""
        return {
            "nodes": self.nodes,
            "edges": self.edges,
            "graph_seed": GRAPH_SEED,
            "backend": self.backend,
            "engine": self.engine,
        }


SPECS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            name="hot_reads",
            why=(
                "32 hot patterns fit the result cache but not the 8 warm slots: "
                "~97% hits, so net, concurrent and the session hit path do the "
                "work and core does almost none"
            ),
            nodes=3000, edges=15000, backend="thread", engine="dict",
            # A hit costs 9-23 ms here (33 ms on a slow stretch of the host)
            # and arrivals are at least 0.7/16 s = 44 ms apart.
            pool_size=32, popularity="zipf", query_rate=16.0,
            # With the issue's exponent of 1.1 some 45 % of hits re-run warm
            # promotion, which puts the *median* request on the boundary
            # between the two kinds of hit (about 10 ms and 20 ms) and makes
            # p50 jump between them from run to run.  At 1.4 it is 28 %: p50
            # is a plain hit, p95 a promoting one, and both hold still.
            zipf_exponent=1.4, setup_pass=32, closed_reads=96,
        ),
        Spec(
            name="cold_reads",
            why=(
                "cyclic over 144 distinct patterns, more than the cache of 128, "
                "so LRU never hits: every request runs the protocol on the array "
                "engine; bypasses anything cache- or wire-side"
            ),
            # 8-20 ms a request, arrivals at least 43 ms apart; the rate buys
            # two whole rounds of the pool at the driver's run length.
            nodes=1000, edges=5000, backend="thread", engine="array",
            pool_size=144, popularity="cyclic", query_rate=16.3,
            setup_pass=16, setup_from_pool=False, closed_reads=144,
        ),
        Spec(
            name="churn_subs",
            why=(
                "answer-changing mutate batches beside 2 standing subscriptions "
                "and Zipf reads: fragmentation patching, warm repair, write "
                "batching, subscriber diffing and PUSH fan-out share the server"
            ),
            # 2 subscriptions + 5 read patterns = 7 cached queries for the 8
            # warm slots.  With more (the issue's 6 + 16) a batch evicts
            # whichever entries are not warm at that moment, the next reads
            # and the next batch's subscriber diffing re-run the protocol for
            # them, and what a batch costs depends on the order of the last
            # few requests: closed-loop throughput then differed by 40 %
            # between runs of the same code.  Here every batch repairs the
            # same 7 warm states.
            #
            # A batch holds the write lock for 8-40 ms and the reads that
            # arrive meanwhile wait behind it.  Their wait is a share of
            # the batch, so where they reach into the open loop's
            # percentiles these move by twice what the host's speed does
            # (measured: at 8 batches/s one read in five waited, and
            # query_p95_ms spread by 29 % where query_p50_ms spread by 7 %).
            # At one batch in two seconds about one read in a hundred
            # waits, and the write path shows where it holds still: in the
            # closed loop, whose list is one batch to three reads.
            nodes=1000, edges=5000, backend="thread", engine="dict",
            pool_size=5, popularity="zipf", query_rate=31.0,
            mutate_rate=0.5, mutate_kind="critical", n_subs=2,
            setup_pass=5, n_cycles=4,
        ),
        Spec(
            name="sharded_mixed",
            why=(
                "the paper's site model as deployed: 2 shard workers over pipes, "
                "no result cache; coordinator-worker shipping and per-round "
                "pickling dominate"
            ),
            # 8-21 ms a query, arrivals at least 47 ms apart, whole rounds of
            # the pool.  Not among BENCHMARK.json's workloads: generator,
            # coordinator and two workers are four processes on two CPUs, and
            # what they measure there is mostly the scheduler (its timings
            # spread by 15-20 % between runs where the others spread by 5-10).
            nodes=1000, edges=5000, backend="sharded", engine="dict",
            pool_size=64, popularity="uniform", query_rate=14.8,
            mutate_rate=2.0, mutate_kind="plain",
            setup_pass=16,
        ),
    )
}


@dataclass
class Inputs:
    """Everything one run sends, fixed before the server starts."""

    spec: Spec
    seed: int
    graph: object
    gen_s: float
    #: patterns queried with ``run``
    pool: List[inputs.Shape]
    #: patterns subscribed to (empty unless the workload has subscriptions)
    subs: List[inputs.Shape]
    #: patterns run once during set-up
    warmup: List[inputs.Shape]
    #: (due offset in s, connection index, op), ascending by due offset
    open_ops: List[Tuple[float, int, object]]
    #: the closed-loop list of (connection index, op): every pass replays all
    #: of it, so every pass -- and every run -- divides the same work by its
    #: elapsed time
    closed_ops: List[Tuple[int, object]]
    closed_seconds: float
    dataset_digest: str = ""
    input_digest: str = ""


def build_dataset(spec: Spec):
    """The seed-independent part: (graph, gen_s, pool, subs, warmup, batches).

    The mutation cycles (``batches``: whole cycles, end to end) belong here,
    not to the traffic: which edges a batch toggles decides how far its
    repair cascades, so a seeded choice would make one seed's batches
    dearer than another's.
    """
    start = time.perf_counter()
    graph = web_graph(spec.nodes, spec.edges, seed=GRAPH_SEED)
    gen_s = time.perf_counter() - start
    extra = 0 if spec.setup_from_pool else spec.setup_pass
    shapes = inputs.build_pool(
        graph, spec.n_subs + spec.pool_size + extra, POOL_SEED
    )
    subs, rest = shapes[: spec.n_subs], shapes[spec.n_subs:]
    pool = rest[: spec.pool_size]
    warmup = pool[: spec.setup_pass] if spec.setup_from_pool else rest[spec.pool_size:]
    rng = random.Random(POOL_SEED)
    cycles: List[List[inputs.WriteOp]] = []
    if spec.mutate_kind == "critical":
        cycles = inputs.critical_cycles(graph, subs, rng, spec.n_cycles)
    elif spec.mutate_kind == "plain":
        cycles = inputs.plain_cycles(graph, rng, spec.n_cycles, spec.cycle_width)
    return graph, gen_s, pool, subs, warmup, [b for cycle in cycles for b in cycle]


def _query_indexes(spec: Spec, rng: random.Random, count: int, order: List[int], offset: int) -> List[int]:
    if spec.popularity == "zipf":
        weights = inputs.zipf_weights(spec.pool_size, spec.zipf_exponent)
        return inputs.exact_mix(rng, weights, count)
    if spec.popularity == "uniform":
        return inputs.exact_mix(rng, [1.0] * spec.pool_size, count)
    # cyclic: round the seeded order, continuing where the caller left off
    return [order[(offset + i) % len(order)] for i in range(count)]


def build_inputs(spec: Spec, seed: int, seconds: float) -> Inputs:
    graph, gen_s, pool, subs, warmup, batches = build_dataset(spec)
    rng = random.Random(f"{spec.name}/{seed}")
    open_seconds = seconds * OPEN_SHARE

    order = list(range(spec.pool_size))
    rng.shuffle(order)
    serial = 0

    def reads(indexes: List[int]) -> List[inputs.ReadOp]:
        nonlocal serial
        out = []
        for index in indexes:
            out.append(inputs.read_op(pool, index, serial))
            serial += 1
        return out

    # -- open loop -------------------------------------------------------
    query_due = inputs.jittered_schedule(rng, spec.query_rate, open_seconds, JITTER)
    if spec.popularity != "zipf" and len(query_due) > spec.pool_size:
        # Whole rounds of the pool: every seed then sends every pattern the
        # same number of times, and only their order differs.
        del query_due[len(query_due) // spec.pool_size * spec.pool_size:]
    query_ops = reads(_query_indexes(spec, rng, len(query_due), order, 0))
    open_ops: List[Tuple[float, int, object]] = []
    if spec.mutating:
        # Whole cycles only: the closed-loop phase starts from the graph
        # the server was built with.
        mutate_due = inputs.jittered_schedule(rng, spec.mutate_rate, open_seconds, JITTER)
        cycle_len = 2 * spec.cycle_width
        n_batches = len(mutate_due) // cycle_len * cycle_len
        open_ops += [
            (due, 0, batches[i % len(batches)])
            for i, due in enumerate(mutate_due[:n_batches])
        ]
        open_ops += [(due, 1, op) for due, op in zip(query_due, query_ops)]
    else:
        open_ops += [
            (due, i % 2, op) for i, (due, op) in enumerate(zip(query_due, query_ops))
        ]
    open_ops.sort(key=lambda item: item[0])

    # -- closed loop -----------------------------------------------------
    # Connections as in the open loop: writes on 0 and reads on 1 beside
    # them, reads alternating where there are no writes.
    closed_ops: List[Tuple[int, object]] = []
    if spec.mutating:
        picks = reads(
            _query_indexes(spec, rng, READS_PER_BATCH * len(batches), order, 0)
        )
        for k, batch in enumerate(batches):
            closed_ops.append((0, batch))
            closed_ops += [
                (1, op) for op in picks[k * READS_PER_BATCH : (k + 1) * READS_PER_BATCH]
            ]
    else:
        # cyclic: one full round of the pool, continuing the open-loop order
        picks = reads(
            _query_indexes(spec, rng, spec.closed_reads, order, len(query_ops))
        )
        closed_ops += [(i % 2, op) for i, op in enumerate(picks)]

    dataset = inputs.dataset_digest(
        graph, {"pool": pool, "subs": subs, "warmup": warmup}, batches
    )
    digest = inputs.ops_digest(
        dataset,
        {
            "open": [(round(due, 9), conn, op.key()) for due, conn, op in open_ops],
            "closed": [(conn, op.key()) for conn, op in closed_ops],
        },
    )
    return Inputs(
        spec=spec, seed=seed, graph=graph, gen_s=gen_s, pool=pool, subs=subs,
        warmup=warmup,
        open_ops=open_ops, closed_ops=closed_ops,
        closed_seconds=seconds - open_seconds,
        dataset_digest=dataset, input_digest=digest,
    )
