"""Checker protocol plus the AST utilities the concrete checkers share."""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, List, Optional, Protocol, Sequence, Tuple

from repro.analysis.findings import Finding
from repro.analysis.project import ParsedModule, Project, dotted, parent_of


class Checker(Protocol):
    """One invariant: a stable rule id plus a project-wide check."""

    #: stable rule id (what the baseline and README reference)
    rule: str
    #: one-line description for ``--list-rules``
    description: str

    def check(self, project: Project) -> Iterable[Finding]:
        """Yield every violation in ``project``."""
        ...


#: method names that mutate their receiver in place -- calling one of these
#: on a guarded attribute counts as a write to it
MUTATOR_METHODS = frozenset(
    {
        "append", "extend", "insert", "pop", "popitem", "clear", "remove",
        "discard", "add", "update", "setdefault", "move_to_end", "sort",
        "reverse", "appendleft", "popleft", "__setitem__",
    }
)


def iter_class_defs(module: ParsedModule) -> Iterator[ast.ClassDef]:
    for node in module.walk():
        if isinstance(node, ast.ClassDef):
            yield node


def guarded_by(node: ast.AST, lock_exprs: Sequence[str]) -> bool:
    """True iff ``node`` sits lexically inside ``with <lock>`` for one of
    ``lock_exprs`` (dotted forms like ``"self._lock"`` or
    ``"self._gate.writing()"``).

    The climb stops at the innermost enclosing function: a with-block
    *around* a ``def`` does not guard code inside it (the closure runs
    later, after the lock is released), so only withs between the write and
    its own function's body count.
    """
    wanted = set(lock_exprs)
    cur: Optional[ast.AST] = parent_of(node)
    while cur is not None:
        if isinstance(cur, ast.With) and _with_matches(cur, wanted):
            return True
        if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return False
        cur = parent_of(cur)
    return False


def _with_matches(node: ast.With, wanted: set) -> bool:
    return any(dotted(item.context_expr) in wanted for item in node.items)


def attribute_writes(
    func: ast.AST,
) -> Iterator[Tuple[ast.AST, str, str]]:
    """Yield ``(node, root, attr)`` for every attribute write inside ``func``.

    Covers plain/augmented/annotated assignment and deletion through the
    attribute (``self.x = ...``, ``self.x[k] = ...``, ``self.x.y += 1``,
    ``del self.x``), and in-place mutator calls (``self.x.pop(...)``).
    ``root`` is the receiver name (usually ``self``), ``attr`` the first
    attribute on it.
    """
    from repro.analysis.project import base_chain

    for node in ast.walk(func):
        targets: List[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            if getattr(node, "value", None) is not None or isinstance(
                node, ast.AugAssign
            ):
                targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = list(node.targets)
        elif isinstance(node, ast.Call):
            f = node.func
            if (
                isinstance(f, ast.Attribute)
                and f.attr in MUTATOR_METHODS
                and isinstance(f.value, (ast.Attribute, ast.Subscript))
            ):
                root, attr = base_chain(f.value)
                if root is not None and attr is not None:
                    yield node, root, attr
            continue
        for target in targets:
            # Tuple targets: a, self.x = ... -- flatten.
            stack = [target]
            while stack:
                t = stack.pop()
                if isinstance(t, (ast.Tuple, ast.List)):
                    stack.extend(t.elts)
                    continue
                if isinstance(t, (ast.Attribute, ast.Subscript)):
                    root, attr = base_chain(t)
                    if root is not None and attr is not None:
                        yield node, root, attr


def setattr_calls(func: ast.AST, receiver: str = "self") -> Iterator[ast.Call]:
    """``setattr(<receiver>, ...)`` calls inside ``func`` (dynamic writes)."""
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "setattr"
            and node.args
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id == receiver
        ):
            yield node


def decorator_dataclass_frozen(cls: ast.ClassDef) -> Optional[bool]:
    """Is ``cls`` a dataclass, and if so is it frozen?

    Returns None when the class carries no dataclass decorator, else the
    value of its ``frozen=`` keyword (False when omitted).
    """
    for deco in cls.decorator_list:
        name: Optional[str] = None
        kwargs: List[ast.keyword] = []
        if isinstance(deco, ast.Call):
            name = dotted(deco.func)
            kwargs = deco.keywords
        else:
            name = dotted(deco)
        if name in ("dataclass", "dataclasses.dataclass"):
            for kw in kwargs:
                if kw.arg == "frozen":
                    return isinstance(kw.value, ast.Constant) and kw.value.value is True
            return False
    return None
