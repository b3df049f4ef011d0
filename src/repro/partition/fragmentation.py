"""Fragmentations ``F = (F1..Fn)`` and their global statistics.

:func:`fragment_graph` turns a graph plus a node assignment into the full
structure of Section 2.2; :class:`Fragmentation` exposes the quantities the
paper's bounds are written in (``|F|``, ``|Fm|``, ``Vf``, ``Ef``) and
validates the consistency invariants (tests rely on
:meth:`Fragmentation.validate`).

A fragmentation is also *maintainable in place*: :meth:`Fragmentation.\
delete_edge`, :meth:`Fragmentation.insert_edge`, :meth:`Fragmentation.\
add_node` and :meth:`Fragmentation.remove_node` edit the base graph, decide
the ``Fi.O``/``Fi.I`` transitions of the touched endpoints, and return a
:class:`MutationDelta` recording them; :func:`replay` then patches the
fragments from that delta alone, so :meth:`validate` holds after every
update.  :func:`replay` is the one fragment patch: a shard worker's
:class:`FragmentShard` runs it too.  Other consumers (the watcher tables of
:class:`~repro.core.depgraph.DependencyGraphs`, the session layer's caches)
use the delta to patch their own state incrementally instead of rebuilding.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterator, List, Mapping, Optional, Set, Tuple

from repro.errors import FragmentationError, GraphError
from repro.graph.digraph import DiGraph, Label, Node
from repro.partition.fragment import Fragment


@dataclass(frozen=True)
class MutationDelta:
    """What one in-place fragmentation update changed, beyond the graphs.

    ``source_fid`` owns the edge source (for ``add_node``: the fragment the
    node joined); ``target_fid`` owns the edge target.  The four booleans
    record boundary-metadata transitions: whether ``v`` entered/left the
    source fragment's ``Fi.O`` and the target fragment's ``Fi.I``.  Labels
    are carried so consumers can run label-relevance checks without touching
    the graph again.
    """

    kind: str  # "delete" | "insert" | "add_node" | "remove_node"
    u: Node
    v: Node
    source_fid: int
    target_fid: int
    u_label: Label
    v_label: Label
    #: v left source fragment's Fi.O (its last crossing edge from there died)
    virtual_dropped: bool = False
    #: v entered source fragment's Fi.O (first crossing edge from there)
    virtual_added: bool = False
    #: v left target fragment's Fi.I (no incoming crossing edge remains)
    in_dropped: bool = False
    #: v entered target fragment's Fi.I
    in_added: bool = False
    #: for composite kinds (``remove_node``): the constituent edge deletions,
    #: in application order -- consumers replay these, then the node drop
    cascade: Tuple["MutationDelta", ...] = ()

    @property
    def crossing(self) -> bool:
        """True iff the touched edge spans two fragments."""
        return self.source_fid != self.target_fid


class Fragmentation:
    """A fragmentation of a data graph over ``n`` sites.

    Each mutator checks its arguments, edits the base graph and the owner
    map, decides the boundary transitions, and leaves every fragment edit
    to :func:`replay`, the one fragment patch.
    """

    def __init__(self, graph: DiGraph, fragments: List[Fragment], owner: Dict[Node, int]) -> None:
        self.graph = graph
        self.fragments = fragments
        self._owner = owner
        #: memo of :meth:`has_connected_fragments`: ``(version, answer)``
        self._connected: Optional[Tuple[Tuple[int, ...], bool]] = None

    # ------------------------------------------------------------------
    # the paper's notation (Table 2)
    # ------------------------------------------------------------------
    @property
    def n_fragments(self) -> int:
        """``|F|``, the number of fragments/sites."""
        return len(self.fragments)

    def __len__(self) -> int:
        return self.n_fragments

    def __iter__(self) -> Iterator[Fragment]:
        return iter(self.fragments)

    def __getitem__(self, fid: int) -> Fragment:
        return self.fragments[fid]

    def owner(self, node: Node) -> int:
        """Fragment id whose ``Vi`` contains ``node``."""
        try:
            return self._owner[node]
        except KeyError:
            raise FragmentationError(f"node {node!r} is not assigned to any fragment") from None

    def virtual_nodes(self) -> Set[Node]:
        """``Vf = ∪ Fi.O``: all nodes with an incoming crossing edge."""
        out: Set[Node] = set()
        for frag in self.fragments:
            out |= frag.virtual_nodes
        return out

    @property
    def n_virtual_nodes(self) -> int:
        """``|Vf|``."""
        return len(self.virtual_nodes())

    def crossing_edges(self) -> List[Tuple[Node, Node]]:
        """``Ef``: every edge whose endpoints live in different fragments."""
        out: List[Tuple[Node, Node]] = []
        for frag in self.fragments:
            out.extend(frag.crossing_edges())
        return out

    @property
    def n_crossing_edges(self) -> int:
        """``|Ef|``."""
        return len(self.crossing_edges())

    @property
    def largest_fragment(self) -> Fragment:
        """``Fm``, the largest fragment by ``|Vi| + |Ei|``."""
        return max(self.fragments, key=lambda f: f.size)

    @property
    def vf_ratio(self) -> float:
        """``|Vf| / |V|`` -- how the paper reports the size of ``Vf``."""
        return self.n_virtual_nodes / max(1, self.graph.n_nodes)

    @property
    def ef_ratio(self) -> float:
        """``|Ef| / |E|``."""
        return self.n_crossing_edges / max(1, self.graph.n_edges)

    @property
    def version(self) -> Tuple[int, ...]:
        """Combined mutation stamp of the base graph and every fragment graph.

        The session layer snapshots this to detect that any stored graph was
        mutated since its caches were built (see
        :class:`repro.session.SimulationSession`).
        """
        return (self.graph.version,) + tuple(f.graph.version for f in self.fragments)

    def __repr__(self) -> str:
        return (
            f"Fragmentation(|F|={self.n_fragments}, |V|={self.graph.n_nodes}, "
            f"|Vf|={self.n_virtual_nodes}, |Ef|={self.n_crossing_edges})"
        )

    # ------------------------------------------------------------------
    # in-place maintenance (Section-2.2 invariants preserved per update)
    # ------------------------------------------------------------------
    def delete_edge(self, u: Node, v: Node) -> MutationDelta:
        """Remove edge ``(u, v)`` from the base graph *and* the fragmentation.

        Patches the owning fragment's stored subgraph, prunes ``v`` from its
        ``Fi.O`` when the last crossing edge from that fragment dies (also
        dropping the now-unreferenced virtual node from the fragment graph),
        and clears ``v`` from its owner's ``Fi.I`` when no incoming crossing
        edge remains.  :meth:`validate` holds afterwards.
        """
        return self._replay(self._delete_base_edge(u, v))

    def _delete_base_edge(self, u: Node, v: Node) -> MutationDelta:
        """The base-graph half of :meth:`delete_edge`: check, remove the edge
        from ``G`` and decide the boundary transitions from ``G``'s remaining
        predecessors of ``v``; no fragment is touched."""
        if not self.graph.has_edge(u, v):
            raise GraphError(f"edge ({u!r}, {v!r}) is not in the graph")
        source_fid = self.owner(u)
        target_fid = self.owner(v)
        u_label = self.graph.label(u)
        v_label = self.graph.label(v)
        self.graph.remove_edge(u, v)
        virtual_dropped = in_dropped = False
        if source_fid != target_fid:
            preds = self.graph.predecessors(v)
            # v's last crossing edge out of `source` is gone: v leaves Fi.O
            virtual_dropped = not any(self._owner[p] == source_fid for p in preds)
            in_dropped = not any(self._owner[p] != target_fid for p in preds)
        return MutationDelta(
            kind="delete", u=u, v=v,
            source_fid=source_fid, target_fid=target_fid,
            u_label=u_label, v_label=v_label,
            virtual_dropped=virtual_dropped, in_dropped=in_dropped,
        )

    def insert_edge(self, u: Node, v: Node) -> MutationDelta:
        """Add edge ``(u, v)`` to the base graph *and* the fragmentation.

        A new crossing edge registers ``v`` in the source fragment's ``Fi.O``
        (adding the virtual node, with label, to its stored subgraph) and in
        the target fragment's ``Fi.I`` as needed.
        """
        if u not in self.graph or v not in self.graph:
            raise GraphError("both endpoints must exist")
        if self.graph.has_edge(u, v):
            raise GraphError(f"edge ({u!r}, {v!r}) already present")
        source_fid = self.owner(u)
        target_fid = self.owner(v)
        self.graph.add_edge(u, v)
        crossing = source_fid != target_fid
        return self._replay(MutationDelta(
            kind="insert", u=u, v=v,
            source_fid=source_fid, target_fid=target_fid,
            u_label=self.graph.label(u), v_label=self.graph.label(v),
            virtual_added=crossing and v not in self.fragments[source_fid].virtual_nodes,
            in_added=crossing and v not in self.fragments[target_fid].in_nodes,
        ))

    def add_node(self, node: Node, label: Label, fid: Optional[int] = None) -> MutationDelta:
        """Add an isolated ``node`` with ``label`` to fragment ``fid``.

        ``fid`` defaults to the smallest fragment (by ``|Vi| + |Ei|``).  The
        new node starts with no edges, so no boundary metadata moves; wire it
        up with :meth:`insert_edge`.
        """
        if node in self.graph:
            raise GraphError(f"node {node!r} already exists")
        if fid is None:
            fid = min(self.fragments, key=lambda f: f.size).fid
        if not 0 <= fid < self.n_fragments:
            raise FragmentationError(f"fragment id {fid} out of range")
        self.graph.add_node(node, label)
        self._owner[node] = fid
        return self._replay(MutationDelta(
            kind="add_node", u=node, v=node,
            source_fid=fid, target_fid=fid,
            u_label=label, v_label=label,
        ))

    def remove_node(self, node: Node) -> MutationDelta:
        """Remove ``node`` and every incident edge, everywhere.

        A composite update: each incident edge is deleted from ``G`` by
        :meth:`delete_edge`'s base-graph half (so all boundary metadata
        transitions are recorded as a ``cascade`` of ordinary deletion
        deltas), then the now-isolated node leaves the base graph and the
        owner map, and the composite delta is replayed into the fragments
        once.  :meth:`validate` holds afterwards.  A fragment may end up
        empty; :meth:`add_node` (default placement: smallest fragment) will
        repopulate it first.

        Cascade order is load-bearing for the incremental repair layer:
        in-edges go first (a self-loop counts as an out-edge), so warm
        states replaying the cascade adjust every predecessor's counter
        while the node is still an optimistic candidate, and only then see
        the node's own falsifications -- whose propagation stops at the
        already-detached node.
        """
        if node not in self.graph:
            raise GraphError(f"node {node!r} is not in the graph")
        fid = self.owner(node)
        label = self.graph.label(node)
        cascade: List[MutationDelta] = []
        for p in list(self.graph.predecessors(node)):
            if p != node:
                cascade.append(self._delete_base_edge(p, node))
        for v in list(self.graph.successors(node)):
            cascade.append(self._delete_base_edge(node, v))
        self.graph.remove_node(node)
        del self._owner[node]
        return self._replay(MutationDelta(
            kind="remove_node", u=node, v=node,
            source_fid=fid, target_fid=fid,
            u_label=label, v_label=label,
            cascade=tuple(cascade),
        ))

    def _replay(self, delta: MutationDelta) -> MutationDelta:
        """Patch every fragment with ``delta`` through :func:`replay`."""
        replay(dict(enumerate(self.fragments)), delta)
        return delta

    # ------------------------------------------------------------------
    # shipping fragments to shard workers
    # ------------------------------------------------------------------
    def extract_shard(self, fids) -> "FragmentShard":
        """The named fragments, packaged for shipping to one shard worker.

        The shard references the live :class:`Fragment` objects; crossing a
        process boundary (pickling over a transport, or spawn/fork) copies
        them, which is exactly the snapshot the worker should hold.  Unlike
        the full fragmentation, a shard carries *no base graph and no
        global owner map* -- the whole point of the sharded deployment is
        that per-worker memory scales with ``|F|/n``, not ``|G|``.
        """
        missing = [fid for fid in fids if not 0 <= fid < self.n_fragments]
        if missing:
            raise FragmentationError(f"fragment ids {missing} out of range")
        return FragmentShard({fid: self.fragments[fid] for fid in fids})

    # ------------------------------------------------------------------
    # invariants (Section 2.2)
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`FragmentationError` unless all Section-2.2 invariants hold.

        (a) local node sets partition ``V``; (b) ``Fi.O`` is exactly the set of
        out-neighbours of ``Vi`` outside ``Vi``; (c) each fragment's graph is
        the subgraph induced by ``Vi ∪ Fi.O`` minus virtual-to-anything edges;
        (d) ``∪ Fi.O = ∪ Fi.I``; (e) in-nodes are local nodes with an incoming
        crossing edge.
        """
        seen: Set[Node] = set()
        for frag in self.fragments:
            overlap = seen & frag.local_nodes
            if overlap:
                raise FragmentationError(f"nodes in two fragments: {sorted(map(repr, overlap))[:5]}")
            seen |= frag.local_nodes
        if seen != set(self.graph.nodes()):
            raise FragmentationError("local node sets do not cover V")

        all_virtual: Set[Node] = set()
        all_in: Set[Node] = set()
        for frag in self.fragments:
            expected_virtual = {
                v
                for u in frag.local_nodes
                for v in self.graph.successors(u)
                if v not in frag.local_nodes
            }
            if frag.virtual_nodes != expected_virtual:
                raise FragmentationError(f"fragment {frag.fid}: Fi.O mismatch")
            expected_in = {
                v
                for v in frag.local_nodes
                if any(self._owner[p] != frag.fid for p in self.graph.predecessors(v))
            }
            if frag.in_nodes != expected_in:
                raise FragmentationError(f"fragment {frag.fid}: Fi.I mismatch")
            for node in frag.graph.nodes():
                try:
                    expected = self.graph.label(node)
                except GraphError:
                    raise FragmentationError(
                        f"fragment {frag.fid}: node {node!r} is not in G"
                    ) from None
                if frag.graph.label(node) != expected:
                    raise FragmentationError(
                        f"fragment {frag.fid}: label of {node!r} disagrees with G"
                    )
            for u, v in frag.graph.edges():
                if u in frag.virtual_nodes:
                    raise FragmentationError(
                        f"fragment {frag.fid}: stores an out-edge of virtual node {u!r}"
                    )
                if not self.graph.has_edge(u, v):
                    raise FragmentationError(f"fragment {frag.fid}: phantom edge ({u!r}, {v!r})")
            local_edge_count = sum(
                1
                for u in frag.local_nodes
                for v in self.graph.successors(u)
                if v in frag.local_nodes or v in frag.virtual_nodes
            )
            if frag.graph.n_edges != local_edge_count:
                raise FragmentationError(f"fragment {frag.fid}: induced edge set incomplete")
            all_virtual |= frag.virtual_nodes
            all_in |= frag.in_nodes
        if all_virtual != all_in:
            raise FragmentationError("∪ Fi.O != ∪ Fi.I")

    def has_connected_fragments(self) -> bool:
        """True iff every fragment's local subgraph is weakly connected.

        This is the precondition of dGPMt (Corollary 4: "each fragment of F
        is connected").  Memoized per :attr:`version`: dispatch asks on every
        request against a tree-shaped graph.
        """
        stamp = self.version
        if self._connected is None or self._connected[0] != stamp:
            self._connected = (stamp, all(map(self._is_connected, self.fragments)))
        return self._connected[1]

    def connected_fragments_if_known(self) -> Optional[bool]:
        """:meth:`has_connected_fragments` if memoized at this version, else
        None; never walks a fragment."""
        memo = self._connected
        return memo[1] if memo is not None and memo[0] == self.version else None

    def _is_connected(self, frag: Fragment) -> bool:
        """Undirected walk over the base graph, confined to ``frag``'s ``Vi``."""
        local = frag.local_nodes
        stack = [next(iter(local))] if local else []
        seen = set(stack)
        while stack:
            node = stack.pop()
            for nxt in chain(self.graph.successors(node), self.graph.predecessors(node)):
                if nxt in local and nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return len(seen) == len(local)


def fragment_graph(graph: DiGraph, assignment: Mapping[Node, int]) -> Fragmentation:
    """Build a :class:`Fragmentation` from a node-to-fragment assignment.

    ``assignment`` must map every node of ``graph`` to a fragment id in
    ``0..n-1``; every id in that range must own at least one node.
    """
    if set(assignment) != set(graph.nodes()):
        raise FragmentationError("assignment must cover exactly the nodes of the graph")
    n = max(assignment.values()) + 1 if assignment else 0
    blocks: List[Set[Node]] = [set() for _ in range(n)]
    for node, fid in assignment.items():
        if not 0 <= fid < n:
            raise FragmentationError(f"fragment id {fid} out of range")
        blocks[fid].add(node)
    if any(not block for block in blocks):
        raise FragmentationError("every fragment id in 0..n-1 must own at least one node")

    owner = dict(assignment)
    fragments: List[Fragment] = []
    for fid, block in enumerate(blocks):
        virtual: Set[Node] = set()
        sub = DiGraph()
        for u in block:
            sub.add_node(u, graph.label(u))
        for u in block:
            for v in graph.successors(u):
                if v not in block:
                    virtual.add(v)
                    if v not in sub:
                        sub.add_node(v, graph.label(v))
                sub.add_edge(u, v)
        in_nodes = {
            v for v in block if any(owner[p] != fid for p in graph.predecessors(v))
        }
        virtual_owner = {v: owner[v] for v in virtual}
        fragments.append(
            Fragment(
                fid=fid,
                graph=sub,
                local_nodes=frozenset(block),
                virtual_nodes=frozenset(virtual),
                in_nodes=frozenset(in_nodes),
                virtual_owner=virtual_owner,
            )
        )
    return Fragmentation(graph, fragments, owner)


class FragmentShard:
    """One shard worker's owned subset of a fragmentation's fragments.

    Site programs only ever evaluate ``fragmentation[their_fid]``, so a
    mapping that answers ``shard[fid]`` for the owned ids is a drop-in
    stand-in for the full :class:`Fragmentation` on the worker side.  The
    shard is also *maintainable*: :meth:`apply_delta` runs :func:`replay`,
    the patch :class:`Fragmentation`'s own mutators run, over the owned
    fragments, using the delta's recorded boundary transitions instead of
    the base graph (which the worker deliberately does not hold).
    """

    __slots__ = ("_fragments",)

    def __init__(self, fragments: Mapping[int, Fragment]) -> None:
        self._fragments: Dict[int, Fragment] = dict(fragments)

    @property
    def fids(self) -> Tuple[int, ...]:
        """Owned fragment ids, sorted."""
        return tuple(sorted(self._fragments))

    def __contains__(self, fid: object) -> bool:
        return fid in self._fragments

    def __len__(self) -> int:
        return len(self._fragments)

    def __getitem__(self, fid: int) -> Fragment:
        try:
            return self._fragments[fid]
        except KeyError:
            raise FragmentationError(
                f"fragment {fid} is not owned by this shard (owns {self.fids})"
            ) from None

    def install(self, fid: int, fragment: Fragment) -> None:
        """Adopt ownership of ``fragment`` (ring migration re-ship)."""
        self._fragments[fid] = fragment

    def drop(self, fid: int) -> None:
        """Release ownership of ``fid`` (migrated away)."""
        self._fragments.pop(fid, None)

    @property
    def resident_size(self) -> int:
        """Sum of owned fragments' ``|Vi| + |Ei|`` (capacity accounting)."""
        return sum(f.size for f in self._fragments.values())

    # ------------------------------------------------------------------
    def apply_delta(self, delta: MutationDelta) -> None:
        """Replay one mutation against the owned fragments (:func:`replay`).

        Deltas touching no owned fragment are no-ops, so the coordinator
        may over-deliver safely.
        """
        replay(self._fragments, delta)

    def __repr__(self) -> str:
        return f"FragmentShard(fids={self.fids}, size={self.resident_size})"


def replay(fragments: Mapping[int, Fragment], delta: MutationDelta) -> None:
    """Patch the fragments of ``fragments`` that ``delta`` touches: the one
    fragment patch.

    Every site that holds fragments applies a mutation through here: the
    :class:`Fragmentation` mutators over all fragments, after they have
    edited the base graph and decided the boundary transitions, and a
    :class:`FragmentShard` over the fragments its worker owns.  The delta's
    ``virtual_*``/``in_*`` booleans stand in for the boundary decisions that
    would otherwise need the base graph, which a shard deliberately does
    not hold; a fid absent from ``fragments`` is skipped.
    """
    source = fragments.get(delta.source_fid)
    target = fragments.get(delta.target_fid)
    if delta.kind == "add_node":
        if source is not None:
            source.graph.add_node(delta.u, delta.u_label)
            source._add_local_node(delta.u)
        return
    if delta.kind == "insert":
        if source is not None:
            if delta.crossing and delta.virtual_added:
                source._add_virtual_node(delta.v, owner=delta.target_fid)
                if delta.v not in source.graph:
                    source.graph.add_node(delta.v, delta.v_label)
            source.graph.add_edge(delta.u, delta.v)
        if target is not None and delta.crossing and delta.in_added:
            target._add_in_node(delta.v)
        return
    if delta.kind == "delete":
        if source is not None:
            source.graph.remove_edge(delta.u, delta.v)
            if delta.crossing and delta.virtual_dropped:
                source._drop_virtual_node(delta.v)
                source.graph.remove_node(delta.v)
        if target is not None and delta.crossing and delta.in_dropped:
            target._drop_in_node(delta.v)
        return
    if delta.kind == "remove_node":
        for edge_delta in delta.cascade:
            replay(fragments, edge_delta)
        if source is not None:
            source.graph.remove_node(delta.u)
            source._drop_local_node(delta.u)
        return
    raise FragmentationError(f"unknown mutation kind {delta.kind!r}")
