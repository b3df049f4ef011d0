"""A single fragment ``Fi = (Vi ∪ Fi.O, Ei, Li)`` of a distributed graph.

Matches the paper's Section 2.2 definition exactly:

* ``local_nodes`` is ``Vi`` (one block of the partition of ``V``);
* ``virtual_nodes`` is ``Fi.O``: every node ``v'`` of another fragment that
  some local node points to.  The fragment knows a virtual node's *label*
  (social systems expose IRIs/semantic labels of boundary nodes [26, 28]) but
  none of its outgoing edges;
* ``in_nodes`` is ``Fi.I``: local nodes that some other fragment points to --
  exactly the nodes whose match status other sites are waiting on;
* the stored :class:`~repro.graph.digraph.DiGraph` is the subgraph induced by
  ``Vi ∪ Fi.O``, so it contains local edges plus crossing edges out of ``Vi``.

Fragment metadata is *rebuildable in place*: the ``_add_*``/``_drop_*``
helpers patch ``Vi``/``Fi.O``/``Fi.I`` one node at a time so the one
fragment patch, :func:`repro.partition.fragmentation.replay` (run by the
fragmentation's mutation API and by shard workers), can maintain the
Section-2.2 invariants across updates without rebuilding fragments.  The
sets stay exposed as frozensets -- callers outside the maintenance layer
must treat them as immutable snapshots.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Tuple

from repro.graph.digraph import DiGraph, Node


class Fragment:
    """One fragment of a fragmentation, stored at one site."""

    __slots__ = ("fid", "graph", "local_nodes", "virtual_nodes", "in_nodes", "_virtual_owner")

    def __init__(
        self,
        fid: int,
        graph: DiGraph,
        local_nodes: FrozenSet[Node],
        virtual_nodes: FrozenSet[Node],
        in_nodes: FrozenSet[Node],
        virtual_owner: Dict[Node, int],
    ) -> None:
        self.fid = fid
        self.graph = graph
        self.local_nodes = local_nodes
        self.virtual_nodes = virtual_nodes
        self.in_nodes = in_nodes
        self._virtual_owner = virtual_owner

    # ------------------------------------------------------------------
    @property
    def n_local_nodes(self) -> int:
        """``|Vi|``."""
        return len(self.local_nodes)

    @property
    def n_edges(self) -> int:
        """``|Ei|`` (local edges plus crossing edges out of this fragment)."""
        return self.graph.n_edges

    @property
    def size(self) -> int:
        """``|Fi| = |Vi| + |Ei|`` -- the paper's fragment size measure."""
        return self.n_local_nodes + self.n_edges

    def owner_of_virtual(self, node: Node) -> int:
        """Fragment id that stores virtual node ``node`` locally."""
        return self._virtual_owner[node]

    # ------------------------------------------------------------------
    # in-place metadata maintenance (called only by ``replay``; each helper
    # replaces one frozenset so readers never see a half-applied update)
    # ------------------------------------------------------------------
    def _add_local_node(self, node: Node) -> None:
        """Grow ``Vi`` by one node (its graph entry is added by the caller)."""
        self.local_nodes = self.local_nodes | {node}

    def _add_virtual_node(self, node: Node, owner: int) -> None:
        """Record ``node`` as a member of ``Fi.O`` stored at site ``owner``."""
        self.virtual_nodes = self.virtual_nodes | {node}
        self._virtual_owner[node] = owner

    def _drop_virtual_node(self, node: Node) -> None:
        """Forget a virtual node whose last crossing edge from ``Vi`` is gone."""
        self.virtual_nodes = self.virtual_nodes - {node}
        self._virtual_owner.pop(node, None)

    def _add_in_node(self, node: Node) -> None:
        """Mark local ``node`` as having an incoming crossing edge."""
        self.in_nodes = self.in_nodes | {node}

    def _drop_in_node(self, node: Node) -> None:
        """Unmark ``node``: no other fragment points at it anymore."""
        self.in_nodes = self.in_nodes - {node}

    def _drop_local_node(self, node: Node) -> None:
        """Shrink ``Vi`` by one (already isolated) node.

        The caller (``replay`` of a ``remove_node`` delta) has deleted every
        incident edge first, so the node is neither virtual anywhere nor an
        in-node here; only the ``Vi`` membership remains to clear.
        """
        self.local_nodes = self.local_nodes - {node}

    def crossing_edges(self) -> List[Tuple[Node, Node]]:
        """Edges from a local node to a virtual node (this fragment's share of ``Ef``)."""
        return [
            (u, v)
            for u, v in self.graph.edges()
            if u in self.local_nodes and v in self.virtual_nodes
        ]

    def local_serialized_bytes(self, cost) -> int:
        """Wire size of shipping this fragment whole (used by the Match baseline).

        ``cost`` is a :class:`~repro.runtime.costmodel.CostModel`.
        """
        n_entries = self.n_local_nodes + len(self.virtual_nodes)
        return (
            n_entries * (cost.node_id_bytes + cost.label_bytes)
            + self.graph.n_edges * 2 * cost.node_id_bytes
        )

    def __repr__(self) -> str:
        return (
            f"Fragment(fid={self.fid}, |Vi|={self.n_local_nodes}, "
            f"|Ei|={self.n_edges}, |O|={len(self.virtual_nodes)}, |I|={len(self.in_nodes)})"
        )
