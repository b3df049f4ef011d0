"""Partitioning strategies for the experiments.

The paper randomly partitions ``G`` into fragments of controlled average size
and then *swaps nodes between fragments* to drive ``|Vf|/|V|`` (or
``|Ef|/|E|``) to a target ratio, citing the Ja-be-Ja partitioner [27]
(Section 6, "Graph fragmentation").  We implement:

* :func:`hash_partition` / :func:`random_partition` -- baseline assignments;
* :func:`balanced_bfs_partition` -- grows connected, balanced regions, which
  yields *low* boundary ratios (a good starting point for refinement);
* :func:`refine_to_vf_ratio` -- greedy swap refinement toward a target
  ``|Vf|/|V|`` from either direction (moving a boundary node next to its
  neighbours lowers the ratio; tearing an interior node away raises it);
* :func:`min_cut_partition` -- the cost-model partitioner: a
  :func:`balanced_bfs_partition` seed refined by KL-style greedy boundary
  moves that monotonically reduce (weighted) crossing-edge weight under a
  balance constraint -- the paper's PT/DS costs (Section 6, Fig 6) scale
  with ``|Fi.O| + |Fi.I|``, which this directly minimizes;
* :func:`traffic_node_weights` -- turns a per-fragment traffic snapshot
  (live :class:`~repro.session.session.SessionStats` counters, or any
  fid -> count mapping) into the node weights :func:`min_cut_partition`
  consumes, so observed hot fragments repel cuts and spread out;
* :func:`tree_partition` -- splits a rooted tree into connected subtrees,
  the precondition of dGPMt (Section 5.2).

All functions are deterministic given the ``seed``.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Dict, List, Mapping, Optional, Set

from repro.errors import FragmentationError
from repro.graph import algorithms
from repro.graph.digraph import DiGraph, Node
from repro.partition.fragmentation import Fragmentation, fragment_graph


def hash_partition(graph: DiGraph, n_fragments: int, seed: int = 0) -> Fragmentation:
    """Assign nodes to fragments pseudo-randomly but deterministically.

    Every fragment is guaranteed non-empty (requires ``|V| >= n_fragments``).
    """
    nodes = sorted(graph.nodes(), key=repr)
    if len(nodes) < n_fragments:
        raise FragmentationError("fewer nodes than fragments")
    rng = random.Random(seed)
    shuffled = nodes[:]
    rng.shuffle(shuffled)
    assignment: Dict[Node, int] = {}
    for i, node in enumerate(shuffled):
        # First n_fragments nodes seed one fragment each; rest are random.
        assignment[node] = i if i < n_fragments else rng.randrange(n_fragments)
    return fragment_graph(graph, assignment)


def random_partition(graph: DiGraph, n_fragments: int, seed: int = 0) -> Fragmentation:
    """Balanced random partition: equal-size blocks of a shuffled node list.

    This is the paper's "randomly partitioned ... controlled by the average
    size of the fragments": with ``n`` fragments, every block has
    ``|V|/n`` nodes (±1), i.e. ``size(F) = |G|/|F|``.
    """
    nodes = sorted(graph.nodes(), key=repr)
    if len(nodes) < n_fragments:
        raise FragmentationError("fewer nodes than fragments")
    rng = random.Random(seed)
    rng.shuffle(nodes)
    assignment = {node: i % n_fragments for i, node in enumerate(nodes)}
    return fragment_graph(graph, assignment)


def balanced_bfs_partition(graph: DiGraph, n_fragments: int, seed: int = 0) -> Fragmentation:
    """Grow ``n`` balanced regions by round-robin undirected BFS.

    Produces mostly-connected fragments with far fewer crossing edges than a
    random partition -- the realistic regime for geo-distributed social graphs.
    """
    nodes = sorted(graph.nodes(), key=repr)
    if len(nodes) < n_fragments:
        raise FragmentationError("fewer nodes than fragments")
    rng = random.Random(seed)
    seeds = rng.sample(nodes, n_fragments)
    assignment: Dict[Node, int] = {}
    frontiers: List[deque] = []
    capacity = len(nodes) // n_fragments + 1
    counts = [0] * n_fragments
    for fid, s in enumerate(seeds):
        assignment[s] = fid
        counts[fid] = 1
        frontiers.append(deque([s]))

    remaining = set(nodes) - set(seeds)
    progress = True
    while remaining and progress:
        progress = False
        for fid in range(n_fragments):
            if counts[fid] >= capacity:
                continue
            frontier = frontiers[fid]
            claimed: Optional[Node] = None
            while frontier and claimed is None:
                base = frontier[0]
                neighbours = list(graph.successors(base)) + list(graph.predecessors(base))
                for nxt in neighbours:
                    if nxt in remaining:
                        claimed = nxt
                        break
                if claimed is None:
                    frontier.popleft()
            if claimed is not None:
                assignment[claimed] = fid
                counts[fid] += 1
                remaining.discard(claimed)
                frontier.append(claimed)
                progress = True
    # Disconnected leftovers: round-robin to the emptiest fragments.
    for node in sorted(remaining, key=repr):
        fid = counts.index(min(counts))
        assignment[node] = fid
        counts[fid] += 1
    return fragment_graph(graph, assignment)


class _BoundaryTracker:
    """Incremental ``|Vf|`` maintenance under single-node moves.

    ``cross_in[v]`` counts predecessors of ``v`` owned by a different fragment;
    ``v ∈ Vf`` iff that count is positive.  Moving one node updates the counts
    of its neighbours in ``O(deg)``.
    """

    def __init__(self, graph: DiGraph, assignment: Dict[Node, int]) -> None:
        self.graph = graph
        self.assignment = assignment
        self.cross_in: Dict[Node, int] = {v: 0 for v in graph.nodes()}
        for u, v in graph.edges():
            if assignment[u] != assignment[v]:
                self.cross_in[v] += 1
        self.n_virtual = sum(1 for c in self.cross_in.values() if c > 0)

    def _bump(self, node: Node, delta: int) -> None:
        before = self.cross_in[node]
        after = before + delta
        self.cross_in[node] = after
        if before == 0 and after > 0:
            self.n_virtual += 1
        elif before > 0 and after == 0:
            self.n_virtual -= 1

    def move(self, node: Node, new_fid: int) -> None:
        """Reassign ``node`` and update all affected cross-in counts."""
        old_fid = self.assignment[node]
        if old_fid == new_fid:
            return
        for succ in self.graph.successors(node):
            was_cross = self.assignment[succ] != old_fid
            now_cross = self.assignment[succ] != new_fid
            if succ == node:
                continue
            if was_cross and not now_cross:
                self._bump(succ, -1)
            elif now_cross and not was_cross:
                self._bump(succ, +1)
        self.assignment[node] = new_fid
        new_cross_in = sum(
            1 for p in self.graph.predecessors(node) if self.assignment[p] != new_fid
        )
        delta = new_cross_in - self.cross_in[node]
        if delta:
            self._bump(node, delta)

    @property
    def ratio(self) -> float:
        return self.n_virtual / max(1, self.graph.n_nodes)


def refine_to_vf_ratio(
    fragmentation: Fragmentation,
    target_ratio: float,
    seed: int = 0,
    max_passes: int = 8,
    tolerance: float = 0.02,
) -> Fragmentation:
    """Move nodes between fragments until ``|Vf|/|V|`` is near ``target_ratio``.

    Emulates the paper's setup knob (Section 6): iteratively relocate nodes,
    pushing the boundary ratio toward the target -- re-uniting a boundary node
    with the fragment holding most of its neighbours lowers the ratio; exiling
    a node to a fragment with none of its neighbours raises it.  Fragment
    balance stays within a factor of two of the average.  Lowering a cut is
    only effective on locality-structured graphs (the realistic case; the
    paper relies on Ja-be-Ja [27] for the same reason).
    """
    graph = fragmentation.graph
    n = fragmentation.n_fragments
    assignment = {node: fragmentation.owner(node) for node in graph.nodes()}
    rng = random.Random(seed)
    avg = graph.n_nodes / n
    counts = [0] * n
    for fid in assignment.values():
        counts[fid] += 1
    tracker = _BoundaryTracker(graph, assignment)
    nodes = sorted(graph.nodes(), key=repr)

    for _ in range(max_passes):
        if abs(tracker.ratio - target_ratio) <= tolerance:
            break
        rng.shuffle(nodes)
        moved = 0
        for node in nodes:
            gap = tracker.ratio - target_ratio
            if abs(gap) <= tolerance:
                break
            cur = assignment[node]
            if counts[cur] <= 1:
                continue
            neigh = [
                assignment[o]
                for o in list(graph.successors(node)) + list(graph.predecessors(node))
            ]
            if gap < 0:  # need more boundary: exile
                foreign = [f for f in range(n) if f != cur and f not in neigh]
                if not foreign:
                    continue
                new_fid = rng.choice(foreign)
            else:  # need less boundary: re-unite with the majority fragment
                if not neigh:
                    continue
                new_fid = max(set(neigh), key=neigh.count)
                if new_fid == cur:
                    continue
            if counts[new_fid] + 1 > 2 * avg:
                continue
            before = tracker.n_virtual
            tracker.move(node, new_fid)
            counts[cur] -= 1
            counts[new_fid] += 1
            if gap > 0 and tracker.n_virtual > before:
                # The "lowering" move backfired; undo it.
                tracker.move(node, cur)
                counts[cur] += 1
                counts[new_fid] -= 1
            else:
                moved += 1
        if moved == 0:
            break
    return fragment_graph(graph, assignment)


def traffic_node_weights(
    fragmentation: Fragmentation, traffic
) -> Dict[Node, float]:
    """Spread per-fragment traffic counters over each fragment's local nodes.

    ``traffic`` is either a plain ``{fid: count}`` mapping or a live
    :class:`~repro.session.session.SessionStats`-like object (anything with
    ``fragment_queries`` / ``fragment_mutations`` mappings; queries and
    mutations are summed).  Every node gets weight
    ``1 + fragment_traffic / |Vi|``: a node in an untouched fragment weighs
    1, nodes of hot fragments weigh proportionally more, so
    :func:`min_cut_partition` both avoids cutting through hot regions and
    spreads them across fragments under its balance constraint.  The
    overflow key ``-1`` (counter-bound spill) is ignored -- it carries no
    placement information.
    """
    queries = getattr(traffic, "fragment_queries", None)
    if queries is not None:
        merged: Dict[int, float] = dict(queries)
        for fid, count in getattr(traffic, "fragment_mutations", {}).items():
            merged[fid] = merged.get(fid, 0) + count
        traffic = merged
    weights: Dict[Node, float] = {}
    for frag in fragmentation:
        load = traffic.get(frag.fid, 0)
        per_node = load / max(1, frag.n_local_nodes)
        for node in frag.local_nodes:
            weights[node] = 1.0 + per_node
    return weights


def min_cut_partition(
    graph: DiGraph,
    n_fragments: int,
    seed: int = 0,
    balance: float = 1.25,
    max_passes: int = 8,
    node_weights: Optional[Mapping[Node, float]] = None,
) -> Fragmentation:
    """Cut-minimizing partition: a BFS seed plus KL-style local search.

    Starts from :func:`balanced_bfs_partition` and then runs greedy
    boundary-node moves in the style of Kernighan-Lin / Ja-be-Ja [27]: each
    pass visits the boundary nodes in shuffled order and relocates a node to
    the neighbouring fragment that maximally reduces the total weight of
    crossing edges, subject to a balance constraint (no fragment's weighted
    node mass may exceed ``balance`` times the average) and to every
    fragment staying non-empty.  Only strictly improving moves are taken,
    so the final cut is never worse than the BFS seed's.

    ``node_weights`` (default: uniform) drives both the edge weights (an
    edge weighs the mean of its endpoint weights) and the balance masses;
    pass :func:`traffic_node_weights` of a live ``SessionStats`` snapshot
    to make observed query/mutation traffic repel the cut -- hot fragments
    spread out and their internal edges stop being severed.
    """
    if balance <= 1.0:
        raise FragmentationError("balance must be > 1.0 (1.0 leaves no slack to move)")
    rng = random.Random(seed)
    seed_frag = balanced_bfs_partition(graph, n_fragments, seed=rng.randrange(2**31))
    assignment = {node: seed_frag.owner(node) for node in graph.nodes()}

    weights: Dict[Node, float] = (
        {node: 1.0 for node in graph.nodes()}
        if node_weights is None
        else {node: float(node_weights.get(node, 1.0)) for node in graph.nodes()}
    )
    mass = [0.0] * n_fragments
    counts = [0] * n_fragments
    for node, fid in assignment.items():
        mass[fid] += weights[node]
        counts[fid] += 1
    cap = balance * sum(mass) / n_fragments

    def edge_weight(u: Node, v: Node) -> float:
        return (weights[u] + weights[v]) / 2.0

    nodes = sorted(graph.nodes(), key=repr)
    for _ in range(max_passes):
        rng.shuffle(nodes)
        moved = 0
        for node in nodes:
            cur = assignment[node]
            if counts[cur] <= 1:
                continue
            # Weight of edges (either direction) between `node` and each
            # adjacent fragment; self-loops never cross, so they are skipped.
            adjacent: Dict[int, float] = {}
            for other in graph.successors(node):
                if other != node:
                    fid = assignment[other]
                    adjacent[fid] = adjacent.get(fid, 0.0) + edge_weight(node, other)
            for other in graph.predecessors(node):
                if other != node:
                    fid = assignment[other]
                    adjacent[fid] = adjacent.get(fid, 0.0) + edge_weight(other, node)
            internal = adjacent.get(cur, 0.0)
            best_fid, best_external = cur, internal
            for fid in sorted(adjacent):
                if fid == cur:
                    continue
                if mass[fid] + weights[node] > cap:
                    continue
                external = adjacent[fid]
                if external > best_external:
                    best_fid, best_external = fid, external
            if best_fid == cur:
                continue
            # Moving strictly reduces the weighted cut by external - internal.
            assignment[node] = best_fid
            mass[cur] -= weights[node]
            mass[best_fid] += weights[node]
            counts[cur] -= 1
            counts[best_fid] += 1
            moved += 1
        if moved == 0:
            break
    return fragment_graph(graph, assignment)


def tree_partition(tree: DiGraph, n_fragments: int, seed: int = 0) -> Fragmentation:
    """Split a rooted directed tree into ``n`` connected subtrees.

    Repeatedly detaches the subtree rooted at a node whose subtree size is
    closest to the ideal block size, until ``n`` blocks exist.  The result
    satisfies dGPMt's precondition: every fragment is a connected subtree,
    hence has at most one in-node (its root).
    """
    root = algorithms.tree_root(tree)
    if n_fragments < 1:
        raise FragmentationError("need at least one fragment")
    if tree.n_nodes < n_fragments:
        raise FragmentationError("fewer nodes than fragments")

    # Subtree sizes via reverse BFS order.
    order: List[Node] = []
    queue = deque([root])
    while queue:
        node = queue.popleft()
        order.append(node)
        queue.extend(tree.successors(node))
    subtree_size: Dict[Node, int] = {}
    for node in reversed(order):
        subtree_size[node] = 1 + sum(subtree_size[c] for c in tree.successors(node))

    detached_roots: Set[Node] = {root}

    def block_root(node: Node) -> Node:
        cur = node
        while cur not in detached_roots:
            cur = tree.predecessors(cur)[0]
        return cur

    while len(detached_roots) < n_fragments:
        ideal = tree.n_nodes / n_fragments
        # Candidates: non-detached nodes; prefer subtree size near ideal.
        candidates = [v for v in order if v not in detached_roots]
        candidates.sort(key=lambda v: (abs(subtree_size[v] - ideal), repr(v)))
        pick = candidates[0]
        detached_roots.add(pick)
        # Shrink ancestors' effective sizes.
        cur = pick
        while cur != root and cur in tree._pred and tree.predecessors(cur):
            cur = tree.predecessors(cur)[0]
            subtree_size[cur] -= subtree_size[pick]
            if cur in detached_roots:
                break

    roots_sorted = sorted(detached_roots, key=repr)
    fid_of_root = {r: i for i, r in enumerate(roots_sorted)}
    assignment: Dict[Node, int] = {}
    for node in order:
        assignment[node] = fid_of_root[block_root(node)]
    return fragment_graph(tree, assignment)
