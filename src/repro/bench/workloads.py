"""Query workload generators.

The paper evaluates *data-selecting patterns that actually match*: 20 cyclic
patterns on Yahoo ("with conditions such as domain = '.uk'"), DAG query sets
``Q1..Q8`` with controlled diameter on Citation.  Random label soup almost
never matches a sparse labeled graph, so -- like the paper's authors -- we
derive patterns from the data graph itself, then grow them to the requested
``(|Vq|, |Eq|)`` using two *match-preserving* operations:

* **duplicate(u)**: add ``u'`` with the same label, the same out-edges and
  the same in-edges as ``u``.  Any simulation matching ``u`` also matches
  ``u'`` (same child requirements; parents' obligations are satisfied by the
  same witnesses), so matchability is preserved.
* **sibling in-edge**: for an existing query edge ``(w, u)`` and a duplicate
  ``u'`` of ``u``, add ``(w, u')``.  ``w``'s new obligation is satisfied by
  the same successor that matches ``u``.

Starting from a subgraph of ``G`` with labels copied (which matches by the
identity witness), every generated pattern is guaranteed to have a non-empty
``Q(G)`` -- tests assert this.

Targets are met exactly when reachable; otherwise the generator gets as
close as possible and the harness reports actual shapes.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import WorkloadError
from repro.graph import algorithms
from repro.graph.digraph import DiGraph, Node
from repro.graph.pattern import Pattern


class _PatternBuilder:
    """Mutable pattern under construction, with the two safe growth ops."""

    def __init__(self) -> None:
        self.labels: Dict[Node, object] = {}
        self.edges: Set[Tuple[Node, Node]] = set()
        #: duplicate classes: representative -> members
        self.siblings: Dict[Node, List[Node]] = {}
        self._fresh = 0

    # -- base construction (identity-witnessed subgraph of G) -----------
    def add_base_node(self, node: Node, label: object) -> None:
        if node not in self.labels:
            self.labels[node] = label
            self.siblings[node] = [node]

    def add_base_edge(self, u: Node, v: Node) -> None:
        self.edges.add((u, v))

    # -- growth ops ------------------------------------------------------
    def duplicate(self, u: Node) -> Node:
        """Add a clone of ``u`` (same label, in-edges and out-edges)."""
        clone = ("dup", self._fresh)
        self._fresh += 1
        self.labels[clone] = self.labels[u]
        rep = self._rep(u)
        self.siblings[rep].append(clone)
        for a, b in list(self.edges):
            if a == u:
                self.edges.add((clone, b))
            if b == u:
                self.edges.add((a, clone))
        return clone

    def _rep(self, u: Node) -> Node:
        for rep, members in self.siblings.items():
            if u in members:
                return rep
        raise WorkloadError(f"unknown pattern node {u!r}")

    def sibling_edge_candidates(self) -> List[Tuple[Node, Node]]:
        """Safe extra edges: (w, u') where (w, u) exists and u' ~ u."""
        out: List[Tuple[Node, Node]] = []
        for w, u in self.edges:
            for sib in self.siblings.get(self._rep(u), []):
                if sib != u and (w, sib) not in self.edges and w != sib:
                    out.append((w, sib))
        return out

    # -- finalize ----------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self.labels)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def build(self) -> Pattern:
        # Rename to compact string ids for readability.
        order = sorted(self.labels, key=repr)
        rename = {node: f"q{i}" for i, node in enumerate(order)}
        return Pattern(
            {rename[n]: lab for n, lab in self.labels.items()},
            [(rename[a], rename[b]) for a, b in sorted(self.edges, key=repr)],
        )


def _grow_to_shape(
    builder: _PatternBuilder,
    n_nodes: int,
    n_edges: int,
    rng: random.Random,
    protect: Optional[Set[Node]] = None,
) -> Pattern:
    """Apply duplicate / sibling-edge ops until the target shape is reached."""
    # Grow nodes by duplicating the busiest nodes (adds edges fastest).
    while builder.n_nodes < n_nodes:
        degree: Dict[Node, int] = {node: 0 for node in builder.labels}
        for a, b in builder.edges:
            degree[a] += 1
            degree[b] += 1
        ranked = sorted(degree, key=lambda node: (-degree[node], repr(node)))
        builder.duplicate(ranked[0] if rng.random() < 0.7 else rng.choice(ranked))
    # Top up edges with safe sibling in-edges.
    while builder.n_edges < n_edges:
        candidates = builder.sibling_edge_candidates()
        if not candidates:
            break
        builder.edges.add(rng.choice(sorted(candidates, key=repr)))
    # Trim surplus edges (removal only relaxes the query), protecting the
    # base cycle/spine and weak connectivity.
    protect = protect or set()
    # sorted first: ``builder.edges`` is a set whose order follows the string
    # hash of the ``"dup"`` tag, and the shuffle must not
    removable = sorted((e for e in builder.edges if e not in protect), key=repr)
    rng.shuffle(removable)
    for edge in removable:
        if builder.n_edges <= n_edges:
            break
        trial = set(builder.edges)
        trial.discard(edge)
        probe = DiGraph({n: None for n in builder.labels}, trial)
        if len(algorithms.weakly_connected_components(probe)) == 1:
            builder.edges = trial
    return builder.build()


def _rare_label_first(graph: DiGraph, rng: random.Random) -> List[Node]:
    """Graph nodes, shuffled then stably ordered by ascending label frequency.

    The paper's patterns carry selective conditions (``domain = '.uk'``);
    sampling from rare-label regions keeps candidate sets, and hence every
    algorithm's work, realistically selective.
    """
    freq: Dict[object, int] = {}
    for v in graph.nodes():
        freq[graph.label(v)] = freq.get(graph.label(v), 0) + 1
    nodes = sorted(graph.nodes(), key=repr)
    rng.shuffle(nodes)
    nodes.sort(key=lambda v: freq[graph.label(v)])
    return nodes


def _find_cycle(graph: DiGraph, rng: random.Random, max_len: int, tries: int = 400) -> Optional[List[Node]]:
    """A short directed cycle found by random walks from rare-label starts."""
    starts = _rare_label_first(graph, rng)
    for t in range(tries):
        start = starts[t % len(starts)]
        pos: Dict[Node, int] = {start: 0}
        walk = [start]
        cur = start
        for _ in range(3 * max_len):
            succ = graph.successors(cur)
            if not succ:
                break
            cur = succ[rng.randrange(len(succ))]
            if cur in pos:
                cycle = walk[pos[cur]:]
                if 2 <= len(cycle) <= max_len:
                    return cycle
                break
            pos[cur] = len(walk)
            walk.append(cur)
    return None


def cyclic_pattern(
    graph: DiGraph,
    n_nodes: int = 5,
    n_edges: int = 10,
    seed: int = 0,
) -> Pattern:
    """A cyclic pattern of ~``(n_nodes, n_edges)`` guaranteed to match ``graph``.

    Mirrors the paper's Exp-1/Exp-3 cyclic query workloads.  Raises
    :class:`~repro.errors.WorkloadError` when the graph has no short cycle.
    """
    rng = random.Random(seed)
    cycle = _find_cycle(graph, rng, max_len=max(2, n_nodes))
    if cycle is None:
        raise WorkloadError("data graph appears to have no short directed cycle")

    builder = _PatternBuilder()
    for node in cycle:
        builder.add_base_node(node, graph.label(node))
    protect: Set[Tuple[Node, Node]] = set()
    for i, node in enumerate(cycle):
        nxt = cycle[(i + 1) % len(cycle)]
        builder.add_base_edge(node, nxt)
        protect.add((node, nxt))
    # Expand with real neighbours, greedily preferring the neighbour with the
    # most induced edges to the current sample (denser patterns get closer
    # to the requested |Eq|); induced edges keep the identity witness.
    while builder.n_nodes < n_nodes:
        candidates: Dict[Node, int] = {}
        for base in list(builder.labels):
            if not isinstance(base, tuple):  # skip duplicates, none yet
                for s in graph.successors(base):
                    if s not in builder.labels:
                        candidates.setdefault(s, 0)
        if not candidates:
            break
        for cand in candidates:
            score = sum(1 for other in builder.labels if graph.has_edge(cand, other))
            score += sum(1 for other in builder.labels if graph.has_edge(other, cand))
            candidates[cand] = score
        best = max(sorted(candidates, key=repr), key=lambda c: candidates[c])
        builder.add_base_node(best, graph.label(best))
        for other in list(builder.labels):
            if graph.has_edge(best, other):
                builder.add_base_edge(best, other)
            if graph.has_edge(other, best):
                builder.add_base_edge(other, best)
    return _grow_to_shape(builder, n_nodes, n_edges, rng, protect)


def dag_pattern(
    graph: DiGraph,
    diameter: int,
    n_nodes: int = 9,
    n_edges: int = 13,
    seed: int = 0,
    tries: int = 400,
) -> Pattern:
    """A DAG pattern with exact ``diameter`` that matches the DAG ``graph``.

    Mirrors the paper's Exp-2 query sets ``Q1..Q8`` (``d = 2..8``,
    ``|Q| = (9, 13)``): a sampled directed path of length ``diameter`` is the
    spine; duplication/sibling growth fills out the shape without changing
    the diameter.
    """
    rng = random.Random(seed)
    nodes = sorted(graph.nodes(), key=repr)
    spine: Optional[List[Node]] = None
    for _ in range(tries):
        cur = nodes[rng.randrange(len(nodes))]
        path = [cur]
        while len(path) <= diameter:
            succ = graph.successors(cur)
            if not succ:
                break
            cur = succ[rng.randrange(len(succ))]
            if cur in path:
                break
            path.append(cur)
        if len(path) == diameter + 1:
            spine = path
            break
    if spine is None:
        raise WorkloadError(f"no directed path of length {diameter} found")

    builder = _PatternBuilder()
    for node in spine:
        builder.add_base_node(node, graph.label(node))
    protect: Set[Tuple[Node, Node]] = set()
    for a, b in zip(spine, spine[1:]):
        builder.add_base_edge(a, b)
        protect.add((a, b))
    pattern = _grow_to_shape(builder, n_nodes, n_edges, rng, protect)
    if not pattern.is_dag():
        raise WorkloadError("spine sampling produced a cyclic pattern")
    return pattern


def tree_pattern(
    tree: DiGraph,
    n_nodes: int = 4,
    seed: int = 0,
    tries: int = 200,
) -> Pattern:
    """A small path/branch pattern sampled from a tree (for dGPMt benches)."""
    rng = random.Random(seed)
    nodes = sorted(tree.nodes(), key=repr)
    for _ in range(tries):
        root = nodes[rng.randrange(len(nodes))]
        picked = {root}
        frontier = [root]
        while frontier and len(picked) < n_nodes:
            base = frontier.pop(rng.randrange(len(frontier)))
            for child in tree.successors(base):
                if len(picked) >= n_nodes:
                    break
                picked.add(child)
                frontier.append(child)
        if len(picked) == n_nodes:
            sub = tree.induced_subgraph(picked)
            return Pattern(sub.labels(), sub.edges())
    raise WorkloadError("could not sample a tree pattern of the requested size")
