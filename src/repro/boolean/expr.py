"""Monotone Boolean expression algebra.

Expressions are immutable trees over variables, constants, conjunctions and
disjunctions (no negation -- simulation equations are monotone, which is what
makes the greatest-fixpoint semantics of Section 4.1 work).

Construction goes through :func:`conj` / :func:`disj`, which normalize on the
fly: flatten nested And/And and Or/Or, fold constants, deduplicate operands,
and collapse singletons.  This keeps the equations of Example 6 in the exact
small shapes the paper prints (e.g. ``X(SP,sp1) = X(YF,yf2) OR X(F,f2)``).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, Mapping, Tuple

VarName = Hashable


class BoolExpr:
    """Base class for monotone Boolean expressions.  Immutable."""

    __slots__ = ()

    def variables(self) -> FrozenSet[VarName]:
        """The free variables of the expression."""
        raise NotImplementedError

    def substitute(self, binding: Mapping[VarName, "BoolExpr"]) -> "BoolExpr":
        """Replace variables per ``binding``; unmapped variables stay free."""
        raise NotImplementedError

    def evaluate(self, valuation: Mapping[VarName, bool]) -> bool:
        """Evaluate under a *total* valuation; raises ``KeyError`` if a variable is unbound."""
        raise NotImplementedError

    def evaluate_partial(self, valuation: Mapping[VarName, bool]) -> "BoolExpr":
        """Evaluate under a partial valuation, leaving unbound variables symbolic."""
        return self.substitute({name: Const(value) for name, value in valuation.items()})

    @property
    def n_terms(self) -> int:
        """Number of leaves -- the paper's message size ``m`` for shipped equations."""
        raise NotImplementedError

    def is_const(self) -> bool:
        """True iff the expression is a constant."""
        return isinstance(self, Const)

    # operator sugar -------------------------------------------------------
    def __and__(self, other: "BoolExpr") -> "BoolExpr":
        return conj([self, other])

    def __or__(self, other: "BoolExpr") -> "BoolExpr":
        return disj([self, other])


class Const(BoolExpr):
    """The constants ``TRUE`` and ``FALSE``."""

    __slots__ = ("value",)

    def __init__(self, value: bool) -> None:
        object.__setattr__(self, "value", bool(value))

    def __setattr__(self, *_: object) -> None:
        raise AttributeError("Const is immutable")

    def __reduce__(self):
        return (Const, (self.value,))

    def variables(self) -> FrozenSet[VarName]:
        return frozenset()

    def substitute(self, binding: Mapping[VarName, BoolExpr]) -> BoolExpr:
        return self

    def evaluate(self, valuation: Mapping[VarName, bool]) -> bool:
        return self.value

    @property
    def n_terms(self) -> int:
        return 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Const) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("const", self.value))

    def __repr__(self) -> str:
        return "TRUE" if self.value else "FALSE"


TRUE = Const(True)
FALSE = Const(False)


class Var(BoolExpr):
    """A named Boolean variable, e.g. ``X(u, v)`` keyed by the pair ``(u, v)``.

    Its hash is computed once, at construction, and ``variables()`` on
    first use (neither is pickled).
    """

    __slots__ = ("name", "_hash", "_variables")

    def __init__(self, name: VarName) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash(("var", name)))
        object.__setattr__(self, "_variables", None)

    def __setattr__(self, *_: object) -> None:
        raise AttributeError("Var is immutable")

    def __reduce__(self):
        return (Var, (self.name,))

    def variables(self) -> FrozenSet[VarName]:
        out = self._variables
        if out is None:
            out = frozenset([self.name])
            object.__setattr__(self, "_variables", out)
        return out

    def substitute(self, binding: Mapping[VarName, BoolExpr]) -> BoolExpr:
        return binding.get(self.name, self)

    def evaluate(self, valuation: Mapping[VarName, bool]) -> bool:
        return valuation[self.name]

    @property
    def n_terms(self) -> int:
        return 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Var) and self.name == other.name

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"X{self.name!r}" if not isinstance(self.name, str) else self.name


class _NaryOp(BoolExpr):
    """Shared machinery for And/Or: a frozen, deduplicated operand tuple.

    ``variables()``, ``n_terms`` and the hash are computed once per node, on
    first use, into slots that pickling leaves out (a receiving process
    recomputes them: its string hashes differ).  Since :func:`conj` /
    :func:`disj` are the only constructors, every node is normalized, and
    :meth:`substitute` can return the node itself when the binding misses
    its variables: re-normalizing a normalized node rebuilds an equal one.
    """

    __slots__ = ("operands", "_variables", "_n_terms", "_hash")
    _symbol = "?"

    def __init__(self, operands: Tuple[BoolExpr, ...]) -> None:
        object.__setattr__(self, "operands", operands)
        object.__setattr__(self, "_variables", None)
        object.__setattr__(self, "_n_terms", None)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *_: object) -> None:
        raise AttributeError("expressions are immutable")

    def __reduce__(self):
        return (type(self), (self.operands,))

    def variables(self) -> FrozenSet[VarName]:
        out = self._variables
        if out is None:
            out = frozenset().union(*(op.variables() for op in self.operands))
            object.__setattr__(self, "_variables", out)
        return out

    @property
    def n_terms(self) -> int:
        out = self._n_terms
        if out is None:
            out = sum(op.n_terms for op in self.operands)
            object.__setattr__(self, "_n_terms", out)
        return out

    def substitute(self, binding: Mapping[VarName, BoolExpr]) -> BoolExpr:
        if binding.keys().isdisjoint(self.variables()):
            return self
        return self._build([op.substitute(binding) for op in self.operands])

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            type(self) is type(other)
            and hash(self) == hash(other)
            and set(self.operands) == set(other.operands)
        )

    def __hash__(self) -> int:
        out = self._hash
        if out is None:
            out = hash((type(self).__name__, frozenset(self.operands)))
            object.__setattr__(self, "_hash", out)
        return out

    def __repr__(self) -> str:
        inner = f" {self._symbol} ".join(repr(op) for op in self.operands)
        return f"({inner})"


class And(_NaryOp):
    """Conjunction.  Use :func:`conj` to build normalized instances."""

    __slots__ = ()
    _symbol = "AND"

    @staticmethod
    def _build(operands: Iterable[BoolExpr]) -> BoolExpr:
        return conj(operands)

    def evaluate(self, valuation: Mapping[VarName, bool]) -> bool:
        return all(op.evaluate(valuation) for op in self.operands)


class Or(_NaryOp):
    """Disjunction.  Use :func:`disj` to build normalized instances."""

    __slots__ = ()
    _symbol = "OR"

    @staticmethod
    def _build(operands: Iterable[BoolExpr]) -> BoolExpr:
        return disj(operands)

    def evaluate(self, valuation: Mapping[VarName, bool]) -> bool:
        return any(op.evaluate(valuation) for op in self.operands)


def conj(operands: Iterable[BoolExpr]) -> BoolExpr:
    """Normalized conjunction: flatten, fold constants, dedupe, collapse singleton."""
    flat: Dict[BoolExpr, None] = {}
    for op in operands:
        kind = type(op)
        if kind is Const:
            if not op.value:
                return FALSE
            continue  # TRUE is the unit of AND
        if kind is And:
            for inner in op.operands:
                flat[inner] = None
        else:
            flat[op] = None
    if not flat:
        return TRUE
    if len(flat) == 1:
        return next(iter(flat))
    return And(tuple(flat))


def disj(operands: Iterable[BoolExpr]) -> BoolExpr:
    """Normalized disjunction: flatten, fold constants, dedupe, collapse singleton."""
    flat: Dict[BoolExpr, None] = {}
    for op in operands:
        kind = type(op)
        if kind is Const:
            if op.value:
                return TRUE
            continue  # FALSE is the unit of OR
        if kind is Or:
            for inner in op.operands:
                flat[inner] = None
        else:
            flat[op] = None
    if not flat:
        return FALSE
    if len(flat) == 1:
        return next(iter(flat))
    return Or(tuple(flat))
