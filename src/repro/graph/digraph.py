"""Node-labeled directed graphs (the paper's data graphs ``G = (V, E, L)``).

The representation is a plain adjacency-list digraph with:

* hashable node identifiers (ints in all generators, but any hashable works),
* one label per node, drawn from an arbitrary alphabet ``Sigma``,
* O(1) access to successors, predecessors, degrees, and edge membership
  (adjacency lists keep deterministic iteration order; shadow sets answer
  membership),
* cheap induced-subgraph extraction (used heavily by the fragmentation layer),
* lazy label indexes (label -> nodes, node -> successor-label counts) that are
  built on first use and *maintained in place* by edge insertions/deletions
  and node additions/removals (a relabel still drops them -- it would touch
  every predecessor's counts), so resident graphs absorbing a mutation stream
  never rescan themselves; the first-use build is race-free (double-checked
  under a per-instance lock), so concurrent readers of a quiescent graph --
  the session layer's thread backend -- never observe a half-built index,
* a third lazy index of *shape facts* (:class:`_ShapeIndex`: is the graph
  acyclic, is it a rooted tree) behind :meth:`DiGraph.is_acyclic` and
  :meth:`DiGraph.is_rooted_tree`, which algorithm dispatch reads on every
  request.  Mutations patch it in O(1): the in-degree counters always, the
  acyclicity flag whenever the answer is forced (a delete keeps a DAG a DAG,
  an insert keeps a cyclic graph cyclic, deleting an edge off the stored
  witness cycle keeps it cyclic).  Only an insert that may close a cycle in a
  DAG, or the deletion of a witness edge, leaves the flag unknown, and the
  next *reader* settles it with one early-exit DFS; a relabel leaves it alone,
* a monotonically increasing :attr:`~DiGraph.version` that mutation bumps --
  the session layer uses it to detect stale caches.

Edge labels from the paper are supported through the standard reduction the
paper itself describes (Section 2.1): insert a dummy node carrying the edge
label.  :func:`reify_edge_labels` implements that reduction.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from repro.errors import GraphError

Node = Hashable
Label = Hashable
Edge = Tuple[Node, Node]


@dataclass(slots=True)
class _ShapeIndex:
    """Maintained shape facts of one :class:`DiGraph` (see the module docstring)."""

    roots: int  #: nodes of in-degree 0
    multi_parent: int  #: nodes of in-degree > 1
    #: the graph version these facts describe; a reader rebuilds on mismatch
    version: int
    #: ``None`` = unknown: the next reader runs the cycle-finding DFS
    acyclic: Optional[bool] = None
    #: one directed cycle as ``node -> next node on it``; set iff cyclic
    witness: Optional[Dict[Node, Node]] = None


class DiGraph:
    """A node-labeled directed graph.

    Parameters
    ----------
    nodes:
        Optional mapping ``node -> label`` to pre-populate the graph.
    edges:
        Optional iterable of ``(u, v)`` pairs; endpoints must already be in
        ``nodes`` (or added first via :meth:`add_node`).

    Examples
    --------
    >>> g = DiGraph()
    >>> g.add_node(1, "A"); g.add_node(2, "B")
    >>> g.add_edge(1, 2)
    >>> sorted(g.successors(1))
    [2]
    >>> g.label(2)
    'B'
    """

    __slots__ = (
        "_labels",
        "_succ",
        "_succ_set",
        "_pred",
        "_n_edges",
        "_version",
        "_label_index",
        "_succ_label_counts",
        "_shape",
        "_index_lock",
    )

    def __init__(
        self,
        nodes: Mapping[Node, Label] | None = None,
        edges: Iterable[Edge] | None = None,
    ) -> None:
        self._labels: Dict[Node, Label] = {}
        self._succ: Dict[Node, List[Node]] = {}
        #: shadow sets mirroring ``_succ`` for O(1) membership tests
        self._succ_set: Dict[Node, Set[Node]] = {}
        self._pred: Dict[Node, List[Node]] = {}
        self._n_edges = 0
        self._version = 0
        #: lazy indexes; ``None`` until first use, dropped on invalidation
        self._label_index: Optional[Dict[Label, List[Node]]] = None
        self._succ_label_counts: Optional[Dict[Node, Dict[Label, int]]] = None
        self._shape: Optional[_ShapeIndex] = None
        #: guards the first-use builds above against concurrent readers
        self._index_lock = threading.Lock()
        if nodes:
            for node, label in nodes.items():
                self.add_node(node, label)
        if edges:
            for u, v in edges:
                self.add_edge(u, v)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: Node, label: Label) -> None:
        """Add ``node`` with ``label``; relabels if the node already exists."""
        if node not in self._labels:
            self._succ[node] = []
            self._succ_set[node] = set()
            self._pred[node] = []
            self._labels[node] = label
            self._version += 1
            if self._label_index is not None:
                self._label_index.setdefault(label, []).append(node)
            if self._succ_label_counts is not None:
                self._succ_label_counts[node] = {}
            if self._shape is not None:
                self._shape.roots += 1
                self._shape.version = self._version
            return
        if self._labels[node] == label:
            return
        self._labels[node] = label
        self._version += 1
        self._label_index = None
        # A relabel changes the successor-label counts of the predecessors.
        self._succ_label_counts = None
        if self._shape is not None:  # shape ignores labels
            self._shape.version = self._version

    def add_edge(self, u: Node, v: Node) -> None:
        """Add the directed edge ``(u, v)``.  Parallel edges are ignored."""
        if u not in self._labels:
            raise GraphError(f"edge source {u!r} is not a node")
        if v not in self._labels:
            raise GraphError(f"edge target {v!r} is not a node")
        if v in self._succ_set[u]:
            return
        self._succ[u].append(v)
        self._succ_set[u].add(v)
        self._pred[v].append(u)
        self._n_edges += 1
        self._version += 1
        if self._succ_label_counts is not None:
            per = self._succ_label_counts[u]
            lab = self._labels[v]
            per[lab] = per.get(lab, 0) + 1
        shape = self._shape
        if shape is not None:
            in_degree = len(self._pred[v])
            if in_degree == 1:
                shape.roots -= 1
            elif in_degree == 2:
                shape.multi_parent += 1
            if shape.acyclic:
                if u == v:
                    shape.acyclic, shape.witness = False, {u: u}
                elif self._succ[v] and self._pred[u]:
                    shape.acyclic = None  # may have closed a cycle through u, v
            shape.version = self._version

    def remove_edge(self, u: Node, v: Node) -> None:
        """Remove the directed edge ``(u, v)``; raises if absent."""
        try:
            self._succ[u].remove(v)
            self._pred[v].remove(u)
        except (KeyError, ValueError):
            raise GraphError(f"edge ({u!r}, {v!r}) is not in the graph") from None
        self._succ_set[u].discard(v)
        self._n_edges -= 1
        self._version += 1
        if self._succ_label_counts is not None:
            per = self._succ_label_counts[u]
            lab = self._labels[v]
            remaining = per.get(lab, 0) - 1
            if remaining > 0:
                per[lab] = remaining
            else:
                per.pop(lab, None)
        shape = self._shape
        if shape is not None:
            in_degree = len(self._pred[v])
            if in_degree == 0:
                shape.roots += 1
            elif in_degree == 1:
                shape.multi_parent -= 1
            witness = shape.witness
            if witness is not None and u in witness and witness[u] == v:
                shape.acyclic = shape.witness = None
            shape.version = self._version

    def remove_node(self, node: Node) -> None:
        """Remove ``node`` and every incident edge; raises if unknown.

        Used by the fragmentation maintenance layer to prune a virtual node
        whose last crossing edge was deleted.
        """
        if node not in self._labels:
            raise GraphError(f"unknown node {node!r}")
        for v in list(self._succ[node]):
            self.remove_edge(node, v)
        for p in list(self._pred[node]):
            self.remove_edge(p, node)
        label = self._labels.pop(node)
        del self._succ[node]
        del self._succ_set[node]
        del self._pred[node]
        self._version += 1
        if self._label_index is not None:
            # A warm index always lists the node under its label; a miss here
            # is index corruption and must fail at the corruption site.
            bucket = self._label_index[label]
            bucket.remove(node)
            if not bucket:
                del self._label_index[label]
        if self._succ_label_counts is not None:
            self._succ_label_counts.pop(node, None)
        if self._shape is not None:
            self._shape.roots -= 1  # the edge removals above left it isolated
            self._shape.version = self._version

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def __contains__(self, node: Node) -> bool:
        return node in self._labels

    def __len__(self) -> int:
        return len(self._labels)

    @property
    def n_nodes(self) -> int:
        """Number of nodes ``|V|``."""
        return len(self._labels)

    @property
    def n_edges(self) -> int:
        """Number of edges ``|E|``."""
        return self._n_edges

    @property
    def size(self) -> int:
        """``|G| = |V| + |E|``, the paper's size measure."""
        return self.n_nodes + self.n_edges

    def nodes(self) -> Iterator[Node]:
        """Iterate over all nodes."""
        return iter(self._labels)

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges as ``(u, v)`` pairs."""
        for u, targets in self._succ.items():
            for v in targets:
                yield (u, v)

    def label(self, node: Node) -> Label:
        """Return ``L(node)``."""
        try:
            return self._labels[node]
        except KeyError:
            raise GraphError(f"unknown node {node!r}") from None

    def labels(self) -> Mapping[Node, Label]:
        """Read-only view of the full labeling ``L`` (no copy; live view)."""
        return MappingProxyType(self._labels)

    def label_alphabet(self) -> Set[Label]:
        """The set of labels actually used in the graph."""
        return set(self._labels.values())

    def has_edge(self, u: Node, v: Node) -> bool:
        """True iff ``(u, v)`` is an edge (O(1) via the shadow sets)."""
        return u in self._succ_set and v in self._succ_set[u]

    def successors(self, node: Node) -> List[Node]:
        """Children of ``node`` (targets of its out-edges)."""
        try:
            return self._succ[node]
        except KeyError:
            raise GraphError(f"unknown node {node!r}") from None

    def predecessors(self, node: Node) -> List[Node]:
        """Parents of ``node`` (sources of its in-edges)."""
        try:
            return self._pred[node]
        except KeyError:
            raise GraphError(f"unknown node {node!r}") from None

    def in_degree(self, node: Node) -> int:
        """Number of in-edges of ``node``."""
        return len(self.predecessors(node))

    def nodes_with_label(self, label: Label) -> List[Node]:
        """All nodes carrying ``label``, in insertion order.

        Served from a lazy label index built on first call and maintained in
        place by node additions/removals (dropped only on relabel), so
        resident graphs answer repeated queries in O(answer).  The build is
        double-checked under :attr:`_index_lock`: concurrent first calls on a
        quiescent graph build once and never see a partial index.
        """
        if self._label_index is None:
            with self._index_lock:
                if self._label_index is None:
                    index: Dict[Label, List[Node]] = {}
                    for v, lab in self._labels.items():
                        index.setdefault(lab, []).append(v)
                    self._label_index = index
        return list(self._label_index.get(label, ()))

    def successor_label_counts(self, node: Node) -> Mapping[Label, int]:
        """``label -> |{w in succ(node) : L(w) = label}|`` for ``node``.

        Lazily computed for the whole graph on first call and patched in
        place by edge mutations (dropped only on relabel); lets per-query
        evaluation state seed its HHK counters without walking adjacency
        lists even while the graph absorbs an update stream.
        """
        if self._succ_label_counts is None:
            with self._index_lock:
                if self._succ_label_counts is None:
                    counts: Dict[Node, Dict[Label, int]] = {}
                    labels = self._labels
                    for v, succs in self._succ.items():
                        per: Dict[Label, int] = {}
                        for w in succs:
                            lab = labels[w]
                            per[lab] = per.get(lab, 0) + 1
                        counts[v] = per
                    self._succ_label_counts = counts
        try:
            return MappingProxyType(self._succ_label_counts[node])
        except KeyError:
            raise GraphError(f"unknown node {node!r}") from None

    def _shape_index(self) -> _ShapeIndex:
        """The shape index, built on first use (same double-checked build as
        the label indexes); its acyclicity flag may still be unknown."""
        shape = self._shape
        if shape is None or shape.version != self._version:
            with self._index_lock:
                shape = self._shape
                if shape is None or shape.version != self._version:
                    in_degrees = [len(preds) for preds in self._pred.values()]
                    shape = self._shape = _ShapeIndex(
                        in_degrees.count(0),
                        sum(1 for d in in_degrees if d > 1),
                        self._version,
                    )
        return shape

    def _find_cycle(self) -> Optional[Dict[Node, Node]]:
        """One directed cycle as ``node -> next node on it``; ``None`` on a DAG.

        Iterative three-colour DFS that stops at the first back edge.
        """
        succ = self._succ
        done: Set[Node] = set()
        for root in succ:
            if root in done:
                continue
            path: List[Node] = [root]
            on_path: Set[Node] = {root}
            iters = [iter(succ[root])]
            while path:
                for child in iters[-1]:
                    if child in on_path:
                        cycle = path[path.index(child):]
                        return dict(zip(cycle, cycle[1:] + cycle[:1]))
                    if child not in done:
                        path.append(child)
                        on_path.add(child)
                        iters.append(iter(succ[child]))
                        break
                else:
                    iters.pop()
                    node = path.pop()
                    on_path.discard(node)
                    done.add(node)
        return None

    def is_acyclic(self) -> bool:
        """True iff the graph has no directed cycle (self-loops count).

        O(1) unless the flag is unknown -- on first use and after one of the
        two mutations that cannot be decided in place -- where this reader
        settles it with one :meth:`_find_cycle` and keeps the witness.
        """
        shape = self._shape_index()
        if shape.acyclic is None:
            with self._index_lock:
                if shape.acyclic is None:
                    shape.witness = self._find_cycle()
                    shape.acyclic = shape.witness is None
        return bool(shape.acyclic)

    def is_rooted_tree(self) -> bool:
        """True iff the graph is a rooted directed tree.

        One node of in-degree 0, none of in-degree above 1 and no cycle: every
        other node then has exactly one parent and its parent chain can only
        end at the root, so no separate connectivity scan is needed.
        """
        shape = self._shape_index()
        return shape.roots == 1 and shape.multi_parent == 0 and self.is_acyclic()

    def shape_if_known(self) -> Tuple[Optional[bool], Optional[bool]]:
        """``(is_rooted_tree(), is_acyclic())`` as far as the shape index
        already decides them, ``None`` for each fact it does not.

        Never scans and never takes :attr:`_index_lock`: the probe for a
        caller that must not do ``O(|G|)`` work (the serving layer's inline
        cache hits).
        """
        shape = self._shape
        if shape is None or shape.version != self._version:
            return None, None
        if shape.roots != 1 or shape.multi_parent != 0:
            return False, shape.acyclic
        return shape.acyclic, shape.acyclic

    def warm_indexes(self) -> None:
        """Force all three lazy indexes now (they otherwise build on first use)."""
        if self._labels:
            self.nodes_with_label(next(iter(self._labels.values())))
            self.successor_label_counts(next(iter(self._labels)))
        self.is_acyclic()

    @property
    def version(self) -> int:
        """Mutation counter: bumped by every node/edge/label change.

        Consumers (e.g. the session layer) snapshot it to detect staleness of
        anything derived from the graph.
        """
        return self._version

    def dense_csr(self) -> tuple:
        """Columnar snapshot of the graph over dense node ids.

        Returns ``(nodes, index, fwd_indptr, fwd_indices, rev_indptr,
        rev_indices)``: ``nodes`` is a tuple mapping dense id -> node (the
        graph's insertion order, so the view is deterministic), ``index`` the
        inverse dict, and the two ``(indptr, indices)`` pairs are CSR
        adjacency (successors) and reverse CSR adjacency (predecessors) as
        numpy int64 arrays.  The snapshot is immutable and decoupled from the
        graph: later mutations do not touch it (consumers key their caches on
        :attr:`version`).

        Requires numpy (the array engine's dependency); the dict-based
        engine never calls this.
        """
        try:
            import numpy as np
        except ImportError:  # pragma: no cover - exercised via monkeypatch
            raise RuntimeError(
                "DiGraph.dense_csr requires numpy, which is not installed; "
                "install numpy or use the dict engine"
            ) from None
        nodes = tuple(self._labels)
        index = {node: i for i, node in enumerate(nodes)}
        n = len(nodes)
        fwd_indptr = np.zeros(n + 1, dtype=np.int64)
        rev_indptr = np.zeros(n + 1, dtype=np.int64)
        for i, node in enumerate(nodes):
            fwd_indptr[i + 1] = fwd_indptr[i] + len(self._succ[node])
            rev_indptr[i + 1] = rev_indptr[i] + len(self._pred[node])
        fwd_indices = np.fromiter(
            (index[w] for node in nodes for w in self._succ[node]),
            dtype=np.int64,
            count=int(fwd_indptr[-1]),
        )
        rev_indices = np.fromiter(
            (index[w] for node in nodes for w in self._pred[node]),
            dtype=np.int64,
            count=int(rev_indptr[-1]),
        )
        return nodes, index, fwd_indptr, fwd_indices, rev_indptr, rev_indices

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def induced_subgraph(self, keep: Iterable[Node]) -> "DiGraph":
        """Subgraph induced by ``keep``: those nodes and all edges among them."""
        keep_set = set(keep)
        sub = DiGraph()
        for node in keep_set:
            sub.add_node(node, self.label(node))
        for node in keep_set:
            for succ in self._succ[node]:
                if succ in keep_set:
                    sub.add_edge(node, succ)
        return sub

    def reversed(self) -> "DiGraph":
        """A new graph with every edge direction flipped."""
        rev = DiGraph()
        for node, lab in self._labels.items():
            rev.add_node(node, lab)
        for u, v in self.edges():
            rev.add_edge(v, u)
        return rev

    def copy(self) -> "DiGraph":
        """A deep structural copy."""
        return DiGraph(self._labels, self.edges())

    # ------------------------------------------------------------------
    # pickling (graphs ship to worker processes; locks cannot)
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, object]:
        return {
            slot: getattr(self, slot)
            for slot in self.__slots__
            if slot != "_index_lock"
        }

    def __setstate__(self, state: Dict[str, object]) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)
        self._index_lock = threading.Lock()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        return self._labels == other._labels and {
            (u, v) for u, v in self.edges()
        } == {(u, v) for u, v in other.edges()}

    def __hash__(self) -> int:  # graphs are mutable; identity hash
        return id(self)

    def __repr__(self) -> str:
        return f"DiGraph(n_nodes={self.n_nodes}, n_edges={self.n_edges})"


def reify_edge_labels(
    nodes: Mapping[Node, Label],
    labeled_edges: Iterable[Tuple[Node, Node, Label]],
) -> DiGraph:
    """Build a node-labeled graph from edge-labeled input.

    Implements the paper's reduction (Section 2.1): each labeled edge
    ``(u, v, ell)`` becomes ``u -> dummy -> v`` where the dummy node carries
    label ``ell``.  Unlabeled edges (``ell is None``) stay direct.
    """
    graph = DiGraph(nodes)
    counter = 0
    for u, v, ell in labeled_edges:
        if ell is None:
            graph.add_edge(u, v)
            continue
        dummy = ("__edge__", counter)
        counter += 1
        graph.add_node(dummy, ell)
        graph.add_edge(u, dummy)
        graph.add_edge(dummy, v)
    return graph
