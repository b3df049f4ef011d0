"""Local dependency graphs ``G_d^i`` (Section 4.1).

Site ``Si`` must know, for each of its in-nodes ``v``, which sites hold ``v``
as a virtual node -- those are the sites waiting for the truth values of
``X(u, v)``.  The paper computes this offline by sharing virtual/in-node
identifiers [26, 28]; here it is derived from the
:class:`~repro.partition.fragmentation.Fragmentation` once per run and handed
to every site program.

The structure is bidirectional because the push operation (Section 4.2) also
needs the *children* direction: for each virtual node of ``Si``, the owning
site.

The tables are *patchable*: :meth:`DependencyGraphs.apply_delta` absorbs a
:class:`~repro.partition.fragmentation.MutationDelta` from the
fragmentation's in-place mutation API, updating only the touched
watcher/owner entries -- a session serving queries over a mutating graph
never rebuilds them (see :class:`repro.session.SimulationSession`).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple

from repro.graph.digraph import Node
from repro.partition.fragmentation import Fragmentation, MutationDelta


class DependencyGraphs:
    """All sites' local dependency graphs, computed from the fragmentation."""

    def __init__(self, fragmentation: Fragmentation) -> None:
        n = fragmentation.n_fragments
        #: watchers[i][v] = sites (other than i) holding in-node v of Fi as virtual
        self.watchers: List[Dict[Node, Set[int]]] = [dict() for _ in range(n)]
        #: owners[i][v'] = owning site of virtual node v' of Fi
        self.owners: List[Dict[Node, int]] = [dict() for _ in range(n)]
        #: bumped on every patch -- caches derived from the watcher tables
        #: (e.g. the array engine's host snapshots) key on this
        self.version = 0
        for frag in fragmentation:
            for v in frag.virtual_nodes:
                owner = frag.owner_of_virtual(v)
                self.owners[frag.fid][v] = owner
                self.watchers[owner].setdefault(v, set()).add(frag.fid)

    def apply_delta(self, delta: MutationDelta) -> None:
        """Patch the watcher/owner tables after one fragmentation update.

        Only boundary transitions matter: a crossing edge whose source
        fragment stops (starts) holding ``v`` as a virtual node removes
        (adds) one watcher entry.  Local edges, and crossing edges that leave
        ``Fi.O`` membership unchanged, are no-ops here.  Composite deltas
        (``remove_node``) replay their cascade of edge deletions; the node
        drop itself moves no boundary metadata (the node is isolated by
        then).
        """
        if delta.cascade:
            for edge_delta in delta.cascade:
                self.apply_delta(edge_delta)
            return
        self.version += 1
        if delta.virtual_dropped:
            self.owners[delta.source_fid].pop(delta.v, None)
            sites = self.watchers[delta.target_fid].get(delta.v)
            if sites is not None:
                sites.discard(delta.source_fid)
                if not sites:
                    del self.watchers[delta.target_fid][delta.v]
        if delta.virtual_added:
            self.owners[delta.source_fid][delta.v] = delta.target_fid
            self.watchers[delta.target_fid].setdefault(delta.v, set()).add(delta.source_fid)

    def watcher_sites(self, fid: int, in_node: Node) -> Set[int]:
        """Sites that must be told when an ``X(u, in_node)`` of site ``fid`` flips."""
        return self.watchers[fid].get(in_node, set())

    def owner_site(self, fid: int, virtual: Node) -> int:
        """Owning site of ``virtual`` as seen from site ``fid``."""
        return self.owners[fid][virtual]

    def edges(self, fid: int) -> List[Tuple[int, int, FrozenSet[Node]]]:
        """Site ``fid``'s dependency edges ``(Sj, Si)`` with their annotations.

        Mirrors the paper's Example 5: edge ``(Sj, Si)`` annotated with the
        in-nodes of ``Si`` that are virtual in ``Sj``.
        """
        by_peer: Dict[int, Set[Node]] = {}
        for node, sites in self.watchers[fid].items():
            for peer in sites:
                by_peer.setdefault(peer, set()).add(node)
        return [(peer, fid, frozenset(nodes)) for peer, nodes in sorted(by_peer.items())]
