"""The result of a (distributed or centralized) graph-simulation query.

The paper distinguishes two query types (Section 2.1):

* a **Boolean** pattern returns ``true`` iff ``G`` matches ``Q``;
* a **data selecting** pattern returns the unique maximum match ``Q(G)``.

:class:`MatchRelation` provides both views over one underlying relation, plus
the maximality/validity checks the tests rely on.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, Mapping, Sequence, Set, Tuple

from repro.graph.digraph import DiGraph, Node
from repro.graph.pattern import Pattern

#: slot assignment past :meth:`MatchRelation.__setattr__`
_set = object.__setattr__


class MatchRelation:
    """An immutable match relation ``R ⊆ Vq × V``.

    Instances are produced by the simulation engines; ``matches[u]`` is the
    set of data nodes matching query node ``u``.  If any query node has no
    match, the relation as a whole is *empty* (``bool(rel) is False`` and
    ``as_relation()`` returns the empty set) -- this mirrors the paper's
    semantics that ``Q(G) = ∅`` when ``G`` does not match ``Q``.

    Immutability is enforced, not just advertised: per-node sets are
    frozensets, views return copies, and attribute assignment after
    construction raises ``AttributeError``.  The session layer relies on
    this -- cache hits share the relation object, so a mutable relation
    would let one caller poison every later hit.

    The one mutable thing is ``_cells``: a one-slot list per query node where
    a consumer may leave *a form derived from that node's match set* (the wire
    codec leaves the set's encoded bytes, so a cached answer is encoded once
    however often it is sent).  That is safe because the set a cell belongs
    to never changes: whatever is derived from it stays true for as long as
    the relation exists, a repaired answer is a new relation with empty
    cells, and the contents go when the relation does.  Cells take no part
    in equality, hash, ``repr`` or pickling, and :meth:`renamed` views share
    them together with the sets.
    """

    __slots__ = ("_matches", "_query_nodes", "_is_match", "_cells", "_frozen")

    def __init__(self, query_nodes: Iterable[Node], matches: Mapping[Node, Iterable[Node]]) -> None:
        nodes: Tuple[Node, ...] = tuple(query_nodes)
        sets: Dict[Node, FrozenSet[Node]] = {
            u: frozenset(matches.get(u, ())) for u in nodes
        }
        _set(self, "_query_nodes", nodes)
        _set(self, "_matches", sets)
        _set(self, "_is_match", all(sets.values()))
        _set(self, "_cells", {u: [None] for u in nodes})
        _set(self, "_frozen", True)

    def renamed(self, old_order: Sequence[Node], new_order: Sequence[Node]) -> "MatchRelation":
        """This relation over other node names: ``old_order[i]`` becomes
        ``new_order[i]`` (``old_order`` lists every query node once).

        The match sets and their cells are shared with ``self``, not copied
        (equal orders return ``self``): the session renames a cached answer
        onto an isomorphic hit's names, whose position-``i`` node has the same
        label and incident edges, so the candidate sets transfer verbatim.
        """
        if old_order == new_order:
            return self
        view = object.__new__(MatchRelation)
        pairs = tuple(zip(old_order, new_order))
        _set(view, "_query_nodes", tuple(new_order))
        _set(view, "_matches", {new: self._matches[old] for old, new in pairs})
        _set(view, "_is_match", self._is_match)
        _set(view, "_cells", {new: self._cells[old] for old, new in pairs})
        _set(view, "_frozen", True)
        return view

    def patched(self, added: Sequence[Tuple], removed: Sequence[Tuple]) -> "MatchRelation":
        """This relation with ``removed`` pairs taken out of its per-node sets
        and ``added`` ones put in (before the emptiness collapse); a set no
        pair touches is shared, and every cell starts empty."""
        touched = {u: set(self._matches[u]) for u in {u for u, _ in (*added, *removed)}}
        for u, v in removed:
            touched[u].discard(v)
        for u, v in added:
            touched[u].add(v)
        return MatchRelation(self._query_nodes, {**self._matches, **touched})

    def __setattr__(self, name: str, value) -> None:
        if getattr(self, "_frozen", False):
            raise AttributeError("MatchRelation is immutable")
        super().__setattr__(name, value)

    def __reduce__(self):
        # Through __init__, so an unpickled relation is frozen with empty
        # cells and its pickle never carries the sender's derived forms.
        return (MatchRelation, (self._query_nodes, self._matches))

    # ------------------------------------------------------------------
    # the two query semantics
    # ------------------------------------------------------------------
    @property
    def is_match(self) -> bool:
        """Boolean-query answer: does ``G`` match ``Q``?"""
        return self._is_match

    def __bool__(self) -> bool:
        return self._is_match

    def matches_of(self, u: Node) -> FrozenSet[Node]:
        """Data nodes matching query node ``u`` (empty if ``G`` does not match)."""
        if not self._is_match:
            return frozenset()
        return self._matches[u]

    def raw_matches_of(self, u: Node) -> FrozenSet[Node]:
        """The per-node candidate set *before* the emptiness collapse.

        Useful for diagnostics: shows which query nodes killed the match.
        """
        return self._matches[u]

    def as_relation(self) -> Set[Tuple[Node, Node]]:
        """``Q(G)`` as a set of ``(u, v)`` pairs (empty when no match)."""
        if not self._is_match:
            return set()
        return {(u, v) for u in self._query_nodes for v in self._matches[u]}

    def as_dict(self) -> Dict[Node, FrozenSet[Node]]:
        """``Q(G)`` as ``{query node: matched data nodes}`` (empty sets when no match)."""
        return {u: self.matches_of(u) for u in self._query_nodes}

    def query_nodes(self) -> Iterator[Node]:
        """The query nodes this relation is defined over."""
        return iter(self._query_nodes)

    def __len__(self) -> int:
        return len(self.as_relation())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatchRelation):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __hash__(self) -> int:
        return hash(tuple(sorted((u, self.matches_of(u)) for u in self._query_nodes)))

    def __repr__(self) -> str:
        total = sum(len(self.matches_of(u)) for u in self._query_nodes)
        return f"MatchRelation(is_match={self._is_match}, pairs={total})"


def is_valid_simulation(query: Pattern, graph: DiGraph, rel: Mapping[Node, Iterable[Node]]) -> bool:
    """Check the two simulation conditions (Section 2.1) for a candidate relation.

    (a) every pair agrees on labels; (b) every query edge ``(u, u')`` out of a
    matched ``(u, v)`` is witnessed by an edge ``(v, v')`` with ``v'`` matching
    ``u'``.  Totality (every query node matched) is *not* checked here; use
    :attr:`MatchRelation.is_match` for that.
    """
    rel_sets = {u: set(vs) for u, vs in rel.items()}
    for u, vs in rel_sets.items():
        for v in vs:
            if query.label(u) != graph.label(v):
                return False
            for u_child in query.children(u):
                targets = rel_sets.get(u_child, set())
                if not any(succ in targets for succ in graph.successors(v)):
                    return False
    return True


def is_maximum_simulation(query: Pattern, graph: DiGraph, rel: MatchRelation) -> bool:
    """True iff ``rel`` is the unique maximum simulation of ``query`` in ``graph``.

    Verified by checking validity and that no label-compatible pair outside the
    relation could be added while keeping validity -- which for the maximum
    simulation reduces to: the relation is exactly the greatest fixpoint, i.e.
    re-running a reference engine yields the same relation.  Tests use this as
    a slow but independent oracle.
    """
    from repro.simulation.naive import naive_simulation

    return rel == naive_simulation(query, graph)
