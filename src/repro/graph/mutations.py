"""Typed mutation operations: the one vocabulary every layer speaks.

``SimulationSession.apply``, ``MutateRequest.ops``, both network clients and
the shard-worker command stream all take these frozen dataclasses.  The
bare-tuple spelling that preceded them (``("insert", u, v)`` ...) could not
carry defaults or be type-checked and is refused: :func:`normalize_op`
raises :class:`~repro.errors.ReproError` naming the typed op to use.

Frozen: ops cross thread boundaries (the concurrent write queue), process
boundaries (resident-worker pickles), and the wire (the safe codec of
:mod:`repro.net.codec`); an immutable op can never be observed half-built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.errors import ReproError
from repro.graph.digraph import Label, Node


@dataclass(frozen=True)
class MutationOp:
    """Base class for all graph mutation operations."""

    #: wire/dispatch tag; subclasses override with their canonical kind
    kind = ""


@dataclass(frozen=True)
class InsertEdge(MutationOp):
    """Insert edge ``(u, v)``; both endpoints must already exist."""

    u: Node
    v: Node
    kind = "insert"


@dataclass(frozen=True)
class DeleteEdge(MutationOp):
    """Delete the existing edge ``(u, v)``."""

    u: Node
    v: Node
    kind = "delete"


@dataclass(frozen=True)
class AddNode(MutationOp):
    """Add an isolated labeled node, optionally pinning its fragment."""

    node: Node
    label: Label
    fid: Optional[int] = None
    kind = "add_node"


@dataclass(frozen=True)
class RemoveNode(MutationOp):
    """Remove ``node`` and every edge incident to it."""

    node: Node
    kind = "remove_node"


def normalize_op(op: object) -> MutationOp:
    """``op`` itself when it is a typed op; anything else is refused."""
    if isinstance(op, MutationOp):
        return op
    raise ReproError(
        f"unsupported mutation op {op!r}; pass an InsertEdge, DeleteEdge, "
        "AddNode or RemoveNode instance (repro.graph.mutations)"
    )


def normalize_ops(ops: Iterable[object]) -> List[MutationOp]:
    """Check a whole batch, preserving order."""
    return [normalize_op(op) for op in ops]
