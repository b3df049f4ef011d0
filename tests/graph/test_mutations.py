"""The typed mutation vocabulary; the bare-tuple spelling is refused.

Every layer (session, concurrent front-end, wire protocol, shard workers)
speaks :class:`~repro.graph.mutations.MutationOp` dataclasses.  The tuple
spelling that preceded them (``("insert", u, v)`` ...) no longer converts:
whatever its shape, :func:`normalize_op` raises a :class:`ReproError` that
names the typed ops to use.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import ReproError
from repro.graph.mutations import (
    AddNode,
    DeleteEdge,
    InsertEdge,
    MutationOp,
    RemoveNode,
    normalize_op,
    normalize_ops,
)


class TestTypedOps:
    def test_kinds_and_tuples(self):
        """Ops compare by value and never equal the tuple they replaced."""
        assert InsertEdge(1, 2) != ("insert", 1, 2)
        assert AddNode(7, "lab") == AddNode(7, "lab", None)
        assert AddNode(7, "lab", 2).fid == 2
        assert not hasattr(RemoveNode(9), "as_tuple")

    def test_kind_tags(self):
        assert InsertEdge(1, 2).kind == "insert"
        assert DeleteEdge(1, 2).kind == "delete"
        assert AddNode(1, "x").kind == "add_node"
        assert RemoveNode(1).kind == "remove_node"

    def test_ops_are_frozen(self):
        op = InsertEdge(1, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            op.u = 5  # type: ignore[misc]

    def test_ops_are_hashable_and_comparable(self):
        assert InsertEdge(1, 2) == InsertEdge(1, 2)
        assert InsertEdge(1, 2) != DeleteEdge(1, 2)
        assert len({RemoveNode(3), RemoveNode(3), RemoveNode(4)}) == 2

    def test_typed_op_passes_through_unwarned(self):
        op = RemoveNode(5)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert normalize_op(op) is op

    def test_all_ops_subclass_the_base(self):
        for op in (InsertEdge(1, 2), DeleteEdge(1, 2), AddNode(1, "x"),
                   RemoveNode(1)):
            assert isinstance(op, MutationOp)


class TestTupleShim:
    """The shim is gone: these are the spellings it used to take."""

    REFUSED = "unsupported mutation op .* InsertEdge, DeleteEdge, AddNode or RemoveNode"

    @pytest.mark.parametrize(
        "legacy, expected",
        [
            (("insert", 1, 2), InsertEdge(1, 2)),
            (("delete", 1, 2), DeleteEdge(1, 2)),
            (("add_node", 7, "lab"), AddNode(7, "lab")),
            (("add_node", 7, "lab", 1), AddNode(7, "lab", 1)),
            (("remove_node", 9), RemoveNode(9)),
        ],
    )
    def test_tuples_convert_with_deprecation(self, legacy, expected):
        """Once converted under a warning; now the typed op is the only way."""
        with pytest.raises(ReproError, match=self.REFUSED):
            normalize_op(legacy)
        assert normalize_op(expected) is expected

    def test_lists_accepted_too(self):
        with pytest.raises(ReproError, match=self.REFUSED):
            normalize_op(["delete", 3, 4])

    @pytest.mark.parametrize(
        "bad",
        [
            ("insert", 1),
            ("insert", 1, 2, 3),
            ("delete", 1, 2, 3),
            ("add_node", 7),
            ("remove_node", 9, 10),
        ],
    )
    def test_known_kind_wrong_arity_is_malformed(self, bad):
        with pytest.raises(ReproError, match=self.REFUSED):
            normalize_op(bad)

    def test_unknown_kind_named_in_error(self):
        with pytest.raises(ReproError, match="upsert"):
            normalize_op(("upsert", 1, 2))

    def test_add_node_fid_must_be_int(self):
        with pytest.raises(ReproError, match=self.REFUSED):
            normalize_op(("add_node", 7, "lab", "west"))

    @pytest.mark.parametrize("garbage", [42, None, (), object(), (1, 2, 3)])
    def test_non_ops_rejected(self, garbage):
        with pytest.raises(ReproError, match="unsupported mutation op"):
            normalize_op(garbage)

    def test_batch_preserves_order_and_mixes_spellings(self):
        typed = [InsertEdge(1, 2), DeleteEdge(3, 4), RemoveNode(5)]
        assert normalize_ops(typed) == typed
        with pytest.raises(ReproError, match=self.REFUSED):
            normalize_ops([InsertEdge(1, 2), ("delete", 3, 4), RemoveNode(5)])

    def test_nothing_in_src_warns(self):
        """The shim was the package's only ``warnings.warn``."""
        import pathlib

        import repro

        root = pathlib.Path(repro.__file__).parent
        assert not [p for p in root.rglob("*.py") if "warnings.warn" in p.read_text()]
