"""Classic graph algorithms used throughout the library.

Everything here is implemented from scratch (iteratively, so deep graphs do
not hit Python's recursion limit):

* :func:`tarjan_scc` -- strongly connected components (Tarjan, 1972), used to
  detect cyclic patterns/graphs (Section 5.1 cites Tarjan for exactly this).
* :func:`is_dag`, :func:`is_tree` -- O(1) reads of the shape index that
  :class:`~repro.graph.digraph.DiGraph` maintains across mutations (algorithm
  dispatch asks on every request); :func:`topological_order` -- Kahn ordering.
* :func:`topological_ranks` -- the paper's rank ``r(u)`` (Section 5.1):
  ``r(u) = 0`` for sinks, else ``1 + max(r(child))``.
* :func:`diameter` -- the longest shortest path over the *undirected*
  reachability closure, matching the paper's use for pattern queries.
* :func:`bfs_layers`, :func:`weakly_connected_components` -- used by the
  partitioners and generators.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Sequence, Set

from repro.errors import GraphError
from repro.graph.digraph import DiGraph, Node


def tarjan_scc(graph: DiGraph) -> List[List[Node]]:
    """Strongly connected components in completion (reverse topological) order.

    Iterative Tarjan: returns a list of components; each component is a list
    of nodes.  A component appears *after* every component it points to
    (sinks first), which is the order fixpoint solvers consume.
    """
    index: Dict[Node, int] = {}
    lowlink: Dict[Node, int] = {}
    on_stack: Set[Node] = set()
    stack: List[Node] = []
    components: List[List[Node]] = []
    counter = 0

    for root in graph.nodes():
        if root in index:
            continue
        # Each work item is (node, iterator position into successors).
        work = [(root, 0)]
        while work:
            node, child_idx = work.pop()
            if child_idx == 0:
                index[node] = counter
                lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            recursed = False
            successors = graph.successors(node)
            for i in range(child_idx, len(successors)):
                child = successors[i]
                if child not in index:
                    work.append((node, i + 1))
                    work.append((child, 0))
                    recursed = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            if recursed:
                continue
            if lowlink[node] == index[node]:
                component: List[Node] = []
                while True:
                    top = stack.pop()
                    on_stack.discard(top)
                    component.append(top)
                    if top == node:
                        break
                components.append(component)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return components


def is_dag(graph: DiGraph) -> bool:
    """True iff ``graph`` has no directed cycle (all SCCs trivial, no self loop)."""
    return graph.is_acyclic()


def topological_order(graph: DiGraph) -> List[Node]:
    """Kahn topological order; raises :class:`GraphError` on a cyclic graph."""
    in_deg = {node: graph.in_degree(node) for node in graph.nodes()}
    queue = deque(node for node, deg in in_deg.items() if deg == 0)
    order: List[Node] = []
    while queue:
        node = queue.popleft()
        order.append(node)
        for child in graph.successors(node):
            in_deg[child] -= 1
            if in_deg[child] == 0:
                queue.append(child)
    if len(order) != graph.n_nodes:
        raise GraphError("graph is cyclic; no topological order exists")
    return order


def topological_ranks(graph: DiGraph) -> Dict[Node, int]:
    """The paper's rank function on a DAG (Section 5.1).

    ``r(u) = 0`` if ``u`` has no child, else ``max(r(u')) + 1`` over children
    ``u'``.  Raises :class:`GraphError` if the graph is cyclic.
    """
    ranks: Dict[Node, int] = {}
    for node in reversed(topological_order(graph)):
        children = graph.successors(node)
        ranks[node] = 0 if not children else 1 + max(ranks[c] for c in children)
    return ranks


def bfs_layers(graph: DiGraph, sources: Iterable[Node], undirected: bool = False) -> Dict[Node, int]:
    """Hop distance from ``sources`` to every reachable node.

    With ``undirected=True`` edges are traversed in both directions, which is
    what the partitioners need for growing connected regions.
    """
    dist: Dict[Node, int] = {}
    queue: deque[Node] = deque()
    for src in sources:
        if src not in graph:
            raise GraphError(f"unknown source {src!r}")
        dist[src] = 0
        queue.append(src)
    while queue:
        node = queue.popleft()
        neighbours: List[Node] = list(graph.successors(node))
        if undirected:
            neighbours.extend(graph.predecessors(node))
        for nxt in neighbours:
            if nxt not in dist:
                dist[nxt] = dist[node] + 1
                queue.append(nxt)
    return dist


def diameter(graph: DiGraph) -> int:
    """Longest shortest (directed) path in the graph -- the paper's ``d``.

    Pattern queries are tiny, so all-pairs BFS is fine.  Unreachable pairs are
    ignored (the paper's patterns are connected, where this matches the usual
    definition).
    """
    best = 0
    for source in graph.nodes():
        dist = bfs_layers(graph, [source])
        if dist:
            best = max(best, max(dist.values()))
    return best


def weakly_connected_components(graph: DiGraph) -> List[Set[Node]]:
    """Connected components of the underlying undirected graph."""
    seen: Set[Node] = set()
    components: List[Set[Node]] = []
    for node in graph.nodes():
        if node in seen:
            continue
        reached = set(bfs_layers(graph, [node], undirected=True))
        seen |= reached
        components.append(reached)
    return components


def is_tree(graph: DiGraph) -> bool:
    """True iff ``graph`` is a rooted directed tree.

    That is: exactly one node with in-degree 0 (the root), every other node
    with in-degree exactly 1, and the whole graph weakly connected.  Trees are
    the precondition of the dGPMt algorithm (Section 5.2).
    """
    return graph.is_rooted_tree()


def tree_root(graph: DiGraph) -> Node:
    """Root of a directed tree; raises :class:`GraphError` if not a tree."""
    if not is_tree(graph):
        raise GraphError("graph is not a rooted directed tree")
    return next(node for node in graph.nodes() if graph.in_degree(node) == 0)


def condensation(graph: DiGraph) -> DiGraph:
    """The DAG of strongly connected components.

    Node ``i`` of the result is component ``i`` (labeled by its index); there
    is an edge ``i -> j`` iff some edge of ``graph`` crosses from component
    ``i`` to component ``j``.
    """
    components = tarjan_scc(graph)
    component_of: Dict[Node, int] = {}
    for i, comp in enumerate(components):
        for node in comp:
            component_of[node] = i
    dag = DiGraph()
    for i in range(len(components)):
        dag.add_node(i, i)
    for u, v in graph.edges():
        cu, cv = component_of[u], component_of[v]
        if cu != cv:
            dag.add_edge(cu, cv)
    return dag


def reachable_from(graph: DiGraph, sources: Sequence[Node]) -> Set[Node]:
    """All nodes reachable from ``sources`` by directed paths (inclusive)."""
    return set(bfs_layers(graph, sources))
