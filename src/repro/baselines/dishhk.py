"""Baseline ``disHHK`` -- reconstruction of Ma et al., WWW'12 ([25]).

The reproduced paper characterizes [25] as: each site extracts the subgraph
relevant to the query, the subgraphs are "collected to a single site to form
a directly query-able graph", and matches are determined there; its response
time is ``O((|Vq|+|V|)(|Eq|+|E|))`` and data shipment
``O(|G| + 4|Vf| + |F||Q|)`` -- both functions of the whole of ``G``
(Table 1).  Our reconstruction keeps exactly those characteristics:

1. every site extracts its *label-relevant* subgraph: nodes whose label some
   query node mentions, plus all stored edges among them ([25]'s shipped
   "subgraphs" -- the ``O(|G|)`` term of its DS bound);
2. each site ships that subgraph to the coordinator;
3. the coordinator assembles the union graph and finishes with centralized
   HHK simulation restricted to it.

Correct because nodes with labels outside the query alphabet can neither
match a query node nor witness a child condition, so dropping them preserves
the maximum simulation; everything else reaches the coordinator.
"""

from __future__ import annotations

import time
from typing import Optional, Set

from repro.core.config import DgpmConfig
from repro.graph.digraph import DiGraph, Node
from repro.graph.pattern import Pattern
from repro.partition.fragmentation import Fragmentation
from repro.runtime.messages import COORDINATOR, Message, MessageKind
from repro.runtime.metrics import RunMetrics, RunResult
from repro.runtime.network import Network
from repro.simulation import simulation


def run_dishhk(
    query: Pattern,
    fragmentation: Fragmentation,
    config: Optional[DgpmConfig] = None,
) -> RunResult:
    """Candidate pruning per site, then ship-and-assemble at the coordinator."""
    config = config or DgpmConfig()
    cost = config.cost
    start = time.perf_counter()
    network = Network(cost)

    network.broadcast_query((frag.fid for frag in fragmentation), query)

    # Phase 1: parallel local candidate extraction; PT takes the slowest
    # site.  [25] ships the label-relevant subgraph (its DS bound has an
    # |G| term), so the local pass is label filtering, not refinement.
    query_labels = query.label_alphabet()
    slowest_local = 0.0
    shipped_subgraphs = []
    for frag in fragmentation:
        t0 = time.perf_counter()
        keep: Set[Node] = {
            v for v in frag.graph.nodes() if frag.graph.label(v) in query_labels
        }
        sub_nodes = {v: frag.graph.label(v) for v in keep}
        sub_edges = [
            (a, b) for a, b in frag.graph.edges() if a in keep and b in keep
        ]
        slowest_local = max(slowest_local, time.perf_counter() - t0)
        network.send(
            Message(
                src=frag.fid,
                dst=COORDINATOR,
                kind=MessageKind.SUBGRAPH,
                payload=(sub_nodes, sub_edges),
                size_bytes=cost.subgraph_bytes(len(sub_nodes), len(sub_edges)),
            )
        )
        shipped_subgraphs.append((sub_nodes, sub_edges))
    network.deliver()

    # Phase 2: assemble and finish centrally.
    central_start = time.perf_counter()
    union = DiGraph()
    for sub_nodes, _ in shipped_subgraphs:
        for node, label in sub_nodes.items():
            union.add_node(node, label)
    for _, sub_edges in shipped_subgraphs:
        for a, b in sub_edges:
            union.add_edge(a, b)
    relation = simulation(query, union)
    central_time = time.perf_counter() - central_start

    wall = time.perf_counter() - start
    link_time = 2 * cost.latency_s + cost.transfer_seconds(network.data_bytes)
    metrics = RunMetrics(
        algorithm="disHHK",
        pt_seconds=slowest_local + link_time + central_time,
        wall_seconds=wall,
        ds_bytes=network.data_bytes,
        n_messages=network.data_message_count,
        n_rounds=2,
        ds_breakdown=network.breakdown(),
        extras={"central_seconds": central_time, "slowest_local": slowest_local},
    )
    return RunResult(relation=relation, metrics=metrics)
