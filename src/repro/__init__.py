"""repro: distributed graph simulation with provable performance bounds.

A faithful, laptop-scale reproduction of

    Wenfei Fan, Xin Wang, Yinghui Wu, Dong Deng.
    "Distributed Graph Simulation: Impossibility and Possibility."
    PVLDB 7(12), 2014.

Quickstart
----------
>>> from repro import Pattern, web_graph, partition, run_dgpm, simulation
>>> g = web_graph(2000, 10000, seed=1)
>>> q = Pattern({"a": "dom0", "b": "dom1"}, [("a", "b"), ("b", "a")])
>>> frag = partition(g, n_fragments=4, seed=1)
>>> result = run_dgpm(q, frag)
>>> result.relation == simulation(q, g)     # distributed == centralized
True
>>> result.metrics.ds_kb                    # bounded by O(|Ef| |Vq|)
0.0...

Public surface
--------------
* graphs & queries: :class:`DiGraph`, :class:`Pattern`, generators
  (:func:`web_graph`, :func:`citation_dag`, :func:`random_labeled_graph`,
  :func:`random_tree`), the paper's examples in :mod:`repro.graph.examples`;
* centralized engines: :func:`simulation` (HHK), :func:`naive_simulation`,
  :func:`dag_simulation` in :mod:`repro.simulation`;
* fragmentation: :func:`fragment_graph`, :func:`partition`, partitioners and
  :func:`refine_to_vf_ratio` in :mod:`repro.partition`;
* distributed algorithms: :func:`run_dgpm` (Theorem 2), :func:`run_dgpmd`
  (Theorem 3), :func:`run_dgpmt` (Corollary 4), :func:`run_auto`, configured
  by :class:`DgpmConfig`;
* baselines: :func:`run_match`, :func:`run_dishhk`, :func:`run_dmes`;
* resident serving: :class:`SimulationSession` in :mod:`repro.session` holds
  a fragmentation and serves query streams with per-graph setup amortized
  and an LRU result cache (``session.run_many(queries)``); it is also the
  write path -- its one write call, ``session.apply(ops)`` over the typed
  ops of :mod:`repro.graph.mutations`, patches the fragmentation in place
  and maintains the caches incrementally (``O(|AFF|)`` repair for hot
  queries) instead of dropping them; the server and both network clients
  write through the same ``apply(ops)``;
* concurrent serving: :class:`ConcurrentSessionServer` fronts one session
  with many reader threads (or a pool of fragment-owning shard workers) under a
  reader-writer protocol -- queries run concurrently, each mutation batch
  applies atomically at a quiescent point, and every result carries the
  mutation stamp it observed (:mod:`repro.session.concurrent`);
* network serving: :mod:`repro.net` puts the concurrent server behind a
  TCP socket -- an asyncio ingress (:class:`~repro.net.server.
  NetworkSessionServer`) plus blocking and pipelining-asyncio clients
  speaking a length-prefixed, versioned frame protocol;
* benchmarks: the paper's experiments (Figure 6, Table 1, Theorem 1) in
  :mod:`repro.bench`, run by ``python -m repro.bench`` and committed as
  ``BENCH_PAPER.json``.
"""

from repro.baselines import run_dishhk, run_dmes, run_match
from repro.core import DgpmConfig, run_auto, run_dgpm, run_dgpmd, run_dgpmt
from repro.errors import (
    FragmentationError,
    GraphError,
    PatternError,
    ProtocolError,
    ReproError,
    TransportError,
    WireFormatError,
)
from repro.graph import DiGraph, Pattern
from repro.graph.generators import (
    citation_dag,
    random_labeled_graph,
    random_tree,
    web_graph,
)
from repro.partition import (
    Fragmentation,
    PartitionStats,
    balanced_bfs_partition,
    fragment_graph,
    hash_partition,
    min_cut_partition,
    partition_stats,
    random_partition,
    refine_to_vf_ratio,
    traffic_node_weights,
    tree_partition,
)
from repro.runtime import CostModel, RunMetrics, RunResult
from repro.session import (
    ConcurrentSessionServer,
    MutationOutcome,
    RebalanceOutcome,
    SessionStats,
    SimulationSession,
    StampedOutcome,
    StampedResult,
)
from repro.simulation import MatchRelation, dag_simulation, naive_simulation, simulation

__version__ = "1.0.0"


def partition(graph: DiGraph, n_fragments: int, seed: int = 0, vf_ratio: float | None = None) -> Fragmentation:
    """Convenience partitioner: a low-cut start, optionally refined.

    For generator graphs (contiguous integer ids with locality) a block
    partition starts with the lowest boundary ratio; other graphs fall back
    to balanced BFS regions.  ``vf_ratio`` (e.g. ``0.25``) then drives
    ``|Vf| / |V|`` toward the paper's sweep values via
    :func:`refine_to_vf_ratio` -- raising the ratio is always possible,
    lowering it only on partition-friendly graphs.
    """
    if all(isinstance(v, int) for v in graph.nodes()):
        from repro.graph.generators import contiguous_block_assignment

        frag = fragment_graph(graph, contiguous_block_assignment(graph, n_fragments))
    else:
        frag = balanced_bfs_partition(graph, n_fragments, seed=seed)
    if vf_ratio is not None:
        frag = refine_to_vf_ratio(frag, vf_ratio, seed=seed)
    return frag


__all__ = [
    "__version__",
    # errors
    "ReproError", "GraphError", "PatternError", "FragmentationError", "ProtocolError",
    "TransportError", "WireFormatError",
    # graphs & queries
    "DiGraph", "Pattern",
    "web_graph", "citation_dag", "random_labeled_graph", "random_tree",
    # centralized simulation
    "MatchRelation", "simulation", "naive_simulation", "dag_simulation",
    # fragmentation
    "Fragmentation", "fragment_graph", "partition",
    "hash_partition", "random_partition", "balanced_bfs_partition",
    "min_cut_partition", "refine_to_vf_ratio", "traffic_node_weights",
    "tree_partition", "PartitionStats", "partition_stats",
    # distributed algorithms
    "DgpmConfig", "run_dgpm", "run_dgpmd", "run_dgpmt", "run_auto",
    # resident multi-query serving (incl. the in-place mutation API)
    "SimulationSession", "SessionStats", "MutationOutcome",
    # concurrent serving front-end
    "ConcurrentSessionServer", "StampedResult", "StampedOutcome",
    "RebalanceOutcome",
    # baselines
    "run_match", "run_dishhk", "run_dmes",
    # runtime
    "CostModel", "RunMetrics", "RunResult",
]
