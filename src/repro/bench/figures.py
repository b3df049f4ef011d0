"""Experiment definitions for every table and figure of the paper.

Each ``fig6_*`` function reproduces one pair of Figure-6 panels (PT + DS) as
an :class:`~repro.bench.harness.ExperimentSeries`; :func:`table1_bounds` and
the two ``theorem1_*`` families cover Table 1, Figure 5 and Theorem 1 in the
same shape.  Sizes are laptop-scale stand-ins for the paper's datasets (a
power-law web graph for Yahoo, a layered DAG for Citation) and multiply by
the ``scale`` argument (``scale=2`` doubles every generated graph).

One deliberate deviation: the paper's Exp-3 claims dGPM's DS "is not a
function of |G|" while sweeping |G| with ``|Vf|/|V|`` fixed at 20%.
Theorem 2's bound is ``O(|Ef||Vq|)``, a function of the *partition*, so our
Exp-3 size sweep (:func:`fig6_op_synthetic_size`) holds ``|Vf|`` fixed in
absolute terms (the quantity the theorem names) -- that is the setting in
which the claimed independence from ``|G|`` is actually implied, and our
workload's constant per-candidate falsification rate makes the distinction
visible.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Tuple

from repro.baselines import run_dishhk, run_dmes, run_match
from repro.bench.harness import ExperimentSeries, Runner, run_sweep
from repro.bench.workloads import cyclic_pattern, dag_pattern, tree_pattern
from repro.core import DgpmConfig, run_dgpm, run_dgpmd, run_dgpmt
from repro.graph.digraph import DiGraph
from repro.graph.examples import figure2, figure2_two_site, figure5
from repro.graph.generators import (
    citation_dag,
    contiguous_block_assignment,
    random_labeled_graph,
    random_tree,
    web_graph,
)
from repro.graph.pattern import Pattern
from repro.partition import fragment_graph, refine_to_vf_ratio, tree_partition
from repro.partition.fragmentation import Fragmentation


def _n(base: int, scale: float) -> int:
    return max(64, int(base * scale))


#: queries per sweep point (the paper uses 20)
N_QUERY_SEEDS = 2


# ----------------------------------------------------------------------
# shared datasets (cached: sweeps reuse them across panels)
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def yahoo_graph(scale: float) -> DiGraph:
    """The Yahoo web-graph stand-in, (8k, 40k) at ``scale=1``."""
    return web_graph(_n(8000, scale), _n(40000, scale), n_labels=24, seed=7)


@functools.lru_cache(maxsize=None)
def citation_graph(scale: float) -> DiGraph:
    """The Citation DAG stand-in, (6k, 13k) at ``scale=1``."""
    return citation_dag(_n(6000, scale), _n(13000, scale), n_labels=24, seed=7)


@functools.lru_cache(maxsize=None)
def synthetic_graph(n_nodes: int, n_edges: int) -> DiGraph:
    """The paper's synthetic generator: 15 labels, locality for partitioning."""
    return random_labeled_graph(n_nodes, n_edges, n_labels=15, seed=7, locality=0.85)


@functools.lru_cache(maxsize=None)
def scalefree_boundary_graph(n_nodes: int, n_edges: int) -> DiGraph:
    """Exp-3 size-sweep graphs: boundary population fixed as |G| grows.

    A fixed link window and a fixed hub set keep the block-partition
    boundary (|Vf|) roughly constant across the size sweep -- the regime in
    which Theorem 2 implies DS independent of |G| (Figure 6(p)).
    """
    return web_graph(
        n_nodes, n_edges, n_labels=15, seed=7,
        locality=0.85, window=48, hub_cap=256,
    )


@functools.lru_cache(maxsize=None)
def partitioned(
    graph_key: str, n_fragments: int, vf_ratio: float, scale: float
) -> Fragmentation:
    graph = {"yahoo": yahoo_graph, "citation": citation_graph}[graph_key](scale)
    frag = fragment_graph(graph, contiguous_block_assignment(graph, n_fragments))
    return refine_to_vf_ratio(frag, vf_ratio, seed=3)


def _queries(graph: DiGraph, shape: Tuple[int, int], seeds: int = N_QUERY_SEEDS) -> List[Pattern]:
    return [cyclic_pattern(graph, shape[0], shape[1], seed=41 + i) for i in range(seeds)]


def _dag_queries(graph: DiGraph, d: int, shape: Tuple[int, int] = (9, 13), seeds: int = N_QUERY_SEEDS) -> List[Pattern]:
    return [dag_pattern(graph, d, shape[0], shape[1], seed=41 + i) for i in range(seeds)]


# ----------------------------------------------------------------------
# algorithm registries (per paper panel)
# ----------------------------------------------------------------------
def _general_algorithms(include_match: bool = True) -> Dict[str, Runner]:
    algs: Dict[str, Runner] = {
        "dGPM": run_dgpm,
        "disHHK": run_dishhk,
        "dGPMNOpt": lambda q, f: run_dgpm(q, f, DgpmConfig().without_optimizations()),
        "dMes": run_dmes,
    }
    if include_match:
        algs["Match"] = run_match
    return algs


def _dag_algorithms() -> Dict[str, Runner]:
    return {
        "dGPMd": run_dgpmd,
        "disHHK": run_dishhk,
        "dMes": run_dmes,
        "Match": run_match,
    }


# ----------------------------------------------------------------------
# Exp-1: dGPM on the web graph (Figure 6 a-f)
# ----------------------------------------------------------------------
def fig6_ab_vary_fragments(
    scale: float = 1.0, fragments: Tuple[int, ...] = (4, 8, 12, 16, 20)
) -> ExperimentSeries:
    """Fig 6(a)(b): PT/DS of dGPM & rivals vs |F|; |Q|=(5,10), |Vf|=25%."""
    queries = _queries(yahoo_graph(scale), (5, 10))
    instances = [
        (nf, queries, partitioned("yahoo", nf, 0.25, scale)) for nf in fragments
    ]
    return run_sweep("Fig 6(a)(b) dGPM", "|F|", instances, _general_algorithms())


def fig6_cd_vary_query(
    scale: float = 1.0,
    shapes: Tuple[Tuple[int, int], ...] = ((4, 8), (5, 10), (6, 12), (7, 14), (8, 16)),
) -> ExperimentSeries:
    """Fig 6(c)(d): PT/DS vs |Q| from (4,8) to (8,16); |F|=8, |Vf|=25%."""
    graph = yahoo_graph(scale)
    frag = partitioned("yahoo", 8, 0.25, scale)
    instances = [
        (f"({vq},{eq})", _queries(graph, (vq, eq)), frag) for vq, eq in shapes
    ]
    return run_sweep("Fig 6(c)(d) dGPM", "|Q|", instances, _general_algorithms())


def fig6_ef_vary_vf(
    scale: float = 1.0, ratios: Tuple[float, ...] = (0.25, 0.30, 0.35, 0.40, 0.45, 0.50)
) -> ExperimentSeries:
    """Fig 6(e)(f): PT/DS vs |Vf| from 25% to 50%; |F|=8, |Q|=(5,10)."""
    queries = _queries(yahoo_graph(scale), (5, 10))
    instances = [
        (f"{ratio:.2f}", queries, partitioned("yahoo", 8, ratio, scale)) for ratio in ratios
    ]
    return run_sweep("Fig 6(e)(f) dGPM", "|Vf|/|V|", instances, _general_algorithms())


# ----------------------------------------------------------------------
# Exp-2: dGPMd on the citation DAG (Figure 6 g-l)
# ----------------------------------------------------------------------
def fig6_gh_vary_diameter(
    scale: float = 1.0, diameters: Tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8)
) -> ExperimentSeries:
    """Fig 6(g)(h): PT/DS of dGPMd vs query diameter d; |F|=8, |Q|~(9,13)."""
    graph = citation_graph(scale)
    frag = partitioned("citation", 8, 0.25, scale)
    instances = [(d, _dag_queries(graph, d), frag) for d in diameters]
    return run_sweep("Fig 6(g)(h) dGPMd", "d", instances, _dag_algorithms())


def fig6_ij_vary_fragments_dag(
    scale: float = 1.0, fragments: Tuple[int, ...] = (4, 8, 12, 16, 20)
) -> ExperimentSeries:
    """Fig 6(i)(j): PT/DS of dGPMd vs |F|; d=4."""
    queries = _dag_queries(citation_graph(scale), 4)
    instances = [
        (nf, queries, partitioned("citation", nf, 0.25, scale)) for nf in fragments
    ]
    return run_sweep("Fig 6(i)(j) dGPMd", "|F|", instances, _dag_algorithms())


def fig6_kl_vary_vf_dag(
    scale: float = 1.0, ratios: Tuple[float, ...] = (0.25, 0.30, 0.35, 0.40, 0.45, 0.50)
) -> ExperimentSeries:
    """Fig 6(k)(l): PT/DS of dGPMd vs |Vf|; d=4, |F|=8."""
    queries = _dag_queries(citation_graph(scale), 4)
    instances = [
        (f"{ratio:.2f}", queries, partitioned("citation", 8, ratio, scale))
        for ratio in ratios
    ]
    return run_sweep("Fig 6(k)(l) dGPMd", "|Vf|/|V|", instances, _dag_algorithms())


# ----------------------------------------------------------------------
# Exp-3: synthetic scalability (Figure 6 m-p)
# ----------------------------------------------------------------------
def fig6_mn_synthetic_fragments(
    scale: float = 1.0, fragments: Tuple[int, ...] = (8, 12, 16, 20)
) -> ExperimentSeries:
    """Fig 6(m)(n): PT/DS vs |F| on the synthetic graph (no Match: too big)."""
    graph = synthetic_graph(_n(8000, scale), _n(32000, scale))
    queries = _queries(graph, (5, 10))
    instances = []
    for nf in fragments:
        frag = fragment_graph(graph, contiguous_block_assignment(graph, nf))
        frag = refine_to_vf_ratio(frag, 0.20, seed=3)
        instances.append((nf, queries, frag))
    return run_sweep(
        "Fig 6(m)(n) synthetic", "|F|", instances, _general_algorithms(include_match=False)
    )


def fig6_op_synthetic_size(
    scale: float = 1.0,
    sizes: Tuple[Tuple[int, int], ...] = ((2000, 8000), (4000, 16000), (6000, 24000), (8000, 32000)),
) -> ExperimentSeries:
    """Fig 6(o)(p): PT/DS vs |G| at |F|=20 with the boundary |Vf| held fixed.

    See the module docstring for why |Vf| is fixed in absolute terms: that is
    the regime in which Theorem 2 implies DS independent of |G| (the graphs
    come from :func:`scalefree_boundary_graph`, whose fixed link window and
    hub set pin the block-partition boundary across the sweep).
    """
    instances = []
    for n_nodes, n_edges in sizes:
        graph = scalefree_boundary_graph(_n(n_nodes, scale), _n(n_edges, scale))
        frag = fragment_graph(graph, contiguous_block_assignment(graph, 20))
        queries = _queries(graph, (5, 10))
        instances.append((f"({graph.n_nodes},{graph.n_edges})", queries, frag))
    return run_sweep(
        "Fig 6(o)(p) synthetic", "|G|", instances, _general_algorithms(include_match=False)
    )


# ----------------------------------------------------------------------
# Section 4.2 ablation and Section 5.2 trees
# ----------------------------------------------------------------------
def ablation_optimizations(
    scale: float = 1.0, thetas: Tuple[float, ...] = (0.05, 0.2, 1.0)
) -> ExperimentSeries:
    """dGPM vs its ablations: no-increment, no-push, and the θ sweep."""
    queries = _queries(yahoo_graph(scale), (5, 10))
    frag = partitioned("yahoo", 8, 0.25, scale)
    algorithms: Dict[str, Runner] = {
        "dGPM": run_dgpm,
        "no-incr": lambda q, f: run_dgpm(q, f, DgpmConfig(incremental=False)),
        "no-push": lambda q, f: run_dgpm(q, f, DgpmConfig(enable_push=False)),
        "dGPMNOpt": lambda q, f: run_dgpm(q, f, DgpmConfig().without_optimizations()),
    }
    for theta in thetas:
        algorithms[f"push θ={theta}"] = (
            lambda q, f, t=theta: run_dgpm(q, f, DgpmConfig(push_threshold=t))
        )
    instances = [("yahoo-sub", queries, frag)]
    return run_sweep("§4.2 ablation", "dataset", instances, algorithms)


def trees_series(
    scale: float = 1.0, fragments: Tuple[int, ...] = (4, 8, 12, 16, 20)
) -> ExperimentSeries:
    """Corollary 4: dGPMt vs dGPM on a distributed tree, sweeping |F|."""
    tree = random_tree(_n(20000, scale), n_labels=8, seed=7)
    queries = [tree_pattern(tree, 4, seed=41 + i) for i in range(N_QUERY_SEEDS)]
    algorithms: Dict[str, Runner] = {"dGPMt": run_dgpmt, "dGPM": run_dgpm, "dMes": run_dmes}
    instances = [
        (nf, queries, tree_partition(tree, nf, seed=3)) for nf in fragments
    ]
    return run_sweep("§5.2 trees", "|F|", instances, algorithms)


# ----------------------------------------------------------------------
# Table 1, Figure 5 and Theorem 1
# ----------------------------------------------------------------------
def table1_bounds(scale: float = 1.0) -> ExperimentSeries:
    """Table 1 (this work's rows), one instance per row, plus Figure 5.

    The rows carry what each stated bound is measured against: dGPM's data
    messages against ``|Ef||Vq|``, dGPMd's rounds against ``d + 1``, dGPMt's
    DS against ``O(|Q||F|)`` in at most three rounds, and the Figure-5
    message counts (12 for dGPM without push, 6 for dGPMd).
    """
    tree = random_tree(_n(5000, scale), n_labels=8, seed=7)
    q5, _, f5 = figure5()
    rows: List[Tuple[str, List[Pattern], Fragmentation, Dict[str, Runner]]] = [
        (
            "dGPM",
            _queries(yahoo_graph(scale), (5, 10), seeds=1),
            partitioned("yahoo", 8, 0.25, scale),
            {"dGPM": run_dgpm},
        ),
        (
            "dGPMd",
            _dag_queries(citation_graph(scale), 4, seeds=1),
            partitioned("citation", 8, 0.25, scale),
            {"dGPMd": run_dgpmd},
        ),
        (
            "dGPMt",
            [tree_pattern(tree, 4, seed=41)],
            tree_partition(tree, 8, seed=3),
            {"dGPMt": run_dgpmt},
        ),
        (
            "Figure 5",
            [q5],
            f5,
            {
                "no-push": lambda q, f: run_dgpm(q, f, DgpmConfig(enable_push=False)),
                "dGPMd": run_dgpmd,
            },
        ),
    ]
    series = ExperimentSeries("Table 1 and Figure 5", "row")
    for row, queries, frag, algorithms in rows:
        series.points += run_sweep(series.name, "row", [(row, queries, frag)], algorithms).points
    return series


def theorem1_rounds(sizes: Tuple[int, ...] = (4, 8, 16, 32, 64)) -> ExperimentSeries:
    """Theorem 1, family (1): |Q| and |Fm| constant, |F| = n; rounds grow with n."""
    instances = [
        (n, [query], frag)
        for n in sizes
        for query, _, frag in [figure2(n, close_cycle=False)]
    ]
    return run_sweep("Theorem 1 family (1)", "n", instances, {"dGPM": run_dgpm})


def theorem1_shipment(sizes: Tuple[int, ...] = (4, 8, 16, 32, 64)) -> ExperimentSeries:
    """Theorem 1, family (2): |Q| constant, |F| = 2; data shipment grows with n."""
    instances = [
        (n, [query], frag) for n in sizes for query, _, frag in [figure2_two_site(n)]
    ]
    return run_sweep("Theorem 1 family (2)", "n", instances, {"dGPM": run_dgpm})
