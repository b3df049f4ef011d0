"""Baseline ``Match``: ship everything to one site, evaluate centrally.

This is the naive algorithm of Section 3.1: data shipment is essentially
``|G|`` and response time at least the full centralized evaluation
``O((|Vq|+|V|)(|Eq|+|E|))`` -- the cost the distributed algorithms exist to
avoid.  The paper drops it from Exp-3 because a single site runs out of
memory; at our scales it runs, slowly, exactly as the plots show.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.core.config import DgpmConfig
from repro.graph.pattern import Pattern
from repro.partition.fragmentation import Fragmentation
from repro.runtime.messages import COORDINATOR, Message, MessageKind
from repro.runtime.metrics import RunMetrics, RunResult
from repro.runtime.network import Network
from repro.simulation import simulation


def run_match(
    query: Pattern,
    fragmentation: Fragmentation,
    config: Optional[DgpmConfig] = None,
) -> RunResult:
    """Ship all fragments to the coordinator; run centralized simulation."""
    config = config or DgpmConfig()
    cost = config.cost
    start = time.perf_counter()
    network = Network(cost)

    # Every site serializes its whole fragment to the coordinator.
    for frag in fragmentation:
        network.send(
            Message(
                src=frag.fid,
                dst=COORDINATOR,
                kind=MessageKind.SUBGRAPH,
                payload=frag,
                size_bytes=frag.local_serialized_bytes(cost),
            )
        )
    network.deliver()

    central_start = time.perf_counter()
    relation = simulation(query, fragmentation.graph)
    central_time = time.perf_counter() - central_start

    wall = time.perf_counter() - start
    link_time = cost.latency_s + cost.transfer_seconds(network.data_bytes)
    metrics = RunMetrics(
        algorithm="Match",
        pt_seconds=link_time + central_time,
        wall_seconds=wall,
        ds_bytes=network.data_bytes,
        n_messages=network.data_message_count,
        n_rounds=1,
        ds_breakdown=network.breakdown(),
        extras={"central_seconds": central_time},
    )
    return RunResult(relation=relation, metrics=metrics)
