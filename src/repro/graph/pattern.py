"""Pattern queries ``Q = (Vq, Eq, fv)`` (Section 2.1 of the paper).

A :class:`Pattern` is a small directed graph whose nodes carry the label that
matching data nodes must have.  It adds the query-side notions the algorithms
need:

* ``|Q| = |Vq| + |Eq|`` (the paper's query size),
* DAG detection (dGPMd requires a DAG query),
* the topological rank ``r(u)`` of query nodes (Section 5.1),
* the diameter ``d`` of the query (used in Theorem 3's bound).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Set, Tuple

from repro.errors import PatternError
from repro.graph import algorithms
from repro.graph.digraph import DiGraph, Label, Node


class Pattern:
    """A graph pattern query.

    Parameters
    ----------
    node_labels:
        Mapping ``query node -> required label`` (the function ``fv``).
    edges:
        Iterable of query edges ``(u, u')``.

    Examples
    --------
    The paper's Figure-1 query (a recommendation cycle plus a YB hub):

    >>> q = Pattern(
    ...     {"YB": "YB", "YF": "YF", "F": "F", "SP": "SP"},
    ...     [("YB", "YF"), ("YB", "F"), ("SP", "YF"), ("YF", "F"), ("F", "SP")],
    ... )
    >>> q.size
    9
    >>> q.is_dag()
    False
    """

    __slots__ = ("_graph",)

    def __init__(
        self,
        node_labels: Mapping[Node, Label],
        edges: Iterable[Tuple[Node, Node]] = (),
    ) -> None:
        if not node_labels:
            raise PatternError("a pattern must have at least one query node")
        self._graph = DiGraph(dict(node_labels))
        for u, v in edges:
            if u not in self._graph or v not in self._graph:
                raise PatternError(f"query edge ({u!r}, {v!r}) uses unknown node")
            self._graph.add_edge(u, v)

    # ------------------------------------------------------------------
    # basic structure
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """``|Vq|``."""
        return self._graph.n_nodes

    @property
    def n_edges(self) -> int:
        """``|Eq|``."""
        return self._graph.n_edges

    @property
    def size(self) -> int:
        """``|Q| = |Vq| + |Eq|``."""
        return self._graph.size

    @property
    def shape(self) -> Tuple[int, int]:
        """``(|Vq|, |Eq|)`` -- the paper writes query sizes this way, e.g. (5, 10)."""
        return (self.n_nodes, self.n_edges)

    def nodes(self) -> Iterator[Node]:
        """Iterate over query nodes."""
        return self._graph.nodes()

    def edges(self) -> Iterator[Tuple[Node, Node]]:
        """Iterate over query edges."""
        return self._graph.edges()

    def label(self, u: Node) -> Label:
        """``fv(u)``, the label a match of ``u`` must carry."""
        return self._graph.label(u)

    def children(self, u: Node) -> List[Node]:
        """Query nodes ``u'`` with an edge ``(u, u')``."""
        return self._graph.successors(u)

    def parents(self, u: Node) -> List[Node]:
        """Query nodes ``u'`` with an edge ``(u', u)``."""
        return self._graph.predecessors(u)

    def __contains__(self, u: Node) -> bool:
        return u in self._graph

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pattern):
            return NotImplemented
        return self._graph == other._graph

    def __hash__(self) -> int:
        return id(self)

    def __repr__(self) -> str:
        return f"Pattern(|Vq|={self.n_nodes}, |Eq|={self.n_edges})"

    def as_digraph(self) -> DiGraph:
        """A copy of the underlying labeled digraph."""
        return self._graph.copy()

    def label_alphabet(self) -> Set[Label]:
        """Labels mentioned by the query."""
        return self._graph.label_alphabet()

    # ------------------------------------------------------------------
    # properties the distributed algorithms dispatch on
    # ------------------------------------------------------------------
    def is_dag(self) -> bool:
        """True iff the query has no directed cycle (precondition of dGPMd)."""
        return algorithms.is_dag(self._graph)

    def topological_ranks(self) -> Dict[Node, int]:
        """The paper's rank ``r(u)`` (Section 5.1); requires a DAG query."""
        if not self.is_dag():
            raise PatternError("topological ranks are only defined for DAG patterns")
        return algorithms.topological_ranks(self._graph)

    def diameter(self) -> int:
        """The diameter ``d`` of the query (longest shortest directed path)."""
        return algorithms.diameter(self._graph)

    def nodes_by_rank(self) -> List[List[Node]]:
        """Query nodes grouped by rank, index ``r`` holds nodes with ``r(u) = r``."""
        ranks = self.topological_ranks()
        height = max(ranks.values()) if ranks else 0
        groups: List[List[Node]] = [[] for _ in range(height + 1)]
        for u, r in ranks.items():
            groups[r].append(u)
        return groups


def pattern_from_digraph(graph: DiGraph) -> Pattern:
    """Convert a labeled digraph into a :class:`Pattern` (labels become ``fv``)."""
    return Pattern(graph.labels(), graph.edges())
