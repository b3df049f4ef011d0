"""Loading the analyzed tree: parsed modules plus parent/symbol context.

Checkers never touch the filesystem; they see a :class:`Project` of
:class:`ParsedModule` objects.  Each module carries its AST annotated with

* ``parent`` links (``node._repro_parent``) so checkers can walk *up* from a
  violation site -- needed for "is this write inside ``with self._lock``";
* the enclosing symbol path (``node._repro_symbol``), the dotted class/def
  chain used in finding fingerprints.

Tests build projects from in-memory sources via :meth:`Project.from_sources`
-- the same code path the CLI uses, minus the directory walk.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import ReproError


class AnalysisError(ReproError):
    """The analyzer could not run (bad root, unparseable source...)."""


@dataclass
class ParsedModule:
    """One source file: its path relative to the scan root, source, and AST."""

    relpath: str
    source: str
    tree: ast.Module = field(repr=False)

    def __post_init__(self) -> None:
        _annotate(self.tree)

    def walk(self) -> Iterator[ast.AST]:
        return ast.walk(self.tree)


def parent_of(node: ast.AST) -> Optional[ast.AST]:
    """The AST parent of ``node`` (None at the module root)."""
    return getattr(node, "_repro_parent", None)


def symbol_of(node: ast.AST) -> str:
    """Dotted enclosing class/function path of ``node`` ('' at module level)."""
    return getattr(node, "_repro_symbol", "")


def enclosing_method(node: ast.AST) -> Optional[ast.FunctionDef]:
    """The class-level method containing ``node``.

    A write inside a closure defined in a method is attributed to the
    *method* (the outermost function directly under the class): that is the
    unit lock-discipline exemptions reason about.
    """
    best: Optional[ast.FunctionDef] = None
    cur: Optional[ast.AST] = node
    while cur is not None:
        up = parent_of(cur)
        if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef)) and isinstance(
            up, ast.ClassDef
        ):
            best = cur  # keep climbing: the outermost such def wins
        cur = up
    return best


def _annotate(tree: ast.Module) -> None:
    """Attach parent links and symbol paths to every node."""

    def visit(node: ast.AST, parent: Optional[ast.AST], symbol: str) -> None:
        node._repro_parent = parent  # type: ignore[attr-defined]
        node._repro_symbol = symbol  # type: ignore[attr-defined]
        child_symbol = symbol
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            child_symbol = f"{symbol}.{node.name}" if symbol else node.name
            node._repro_symbol = child_symbol  # type: ignore[attr-defined]
        for child in ast.iter_child_nodes(node):
            visit(child, node, child_symbol)

    visit(tree, None, "")


class Project:
    """The full analyzed tree, indexed by root-relative path."""

    def __init__(self, root: str, modules: List[ParsedModule]) -> None:
        self.root = root
        self.modules = modules
        self._by_path: Dict[str, ParsedModule] = {m.relpath: m for m in modules}

    def module(self, relpath: str) -> Optional[ParsedModule]:
        """The module at ``relpath`` (e.g. ``net/protocol.py``), if scanned."""
        return self._by_path.get(relpath)

    def __iter__(self) -> Iterator[ParsedModule]:
        return iter(self.modules)

    def __len__(self) -> int:
        return len(self.modules)

    @classmethod
    def from_sources(cls, sources: Dict[str, str], root: str = "<memory>") -> "Project":
        """Build a project from ``relpath -> source`` (the test entry point)."""
        modules = [
            ParsedModule(relpath=rel, source=src, tree=_parse(src, rel))
            for rel, src in sorted(sources.items())
        ]
        return cls(root, modules)

    @classmethod
    def load(cls, root: Path) -> "Project":
        """Parse every ``*.py`` under ``root`` (sorted, ``__pycache__`` skipped)."""
        if not root.is_dir():
            raise AnalysisError(f"analysis root {root} is not a directory")
        modules: List[ParsedModule] = []
        for path in sorted(root.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            rel = path.relative_to(root).as_posix()
            source = path.read_text(encoding="utf-8")
            modules.append(ParsedModule(relpath=rel, source=source, tree=_parse(source, rel)))
        return cls(str(root), modules)


def _parse(source: str, relpath: str) -> ast.Module:
    try:
        return ast.parse(source, filename=relpath)
    except SyntaxError as exc:
        raise AnalysisError(f"cannot parse {relpath}: {exc}") from exc


def dotted(node: ast.AST) -> Optional[str]:
    """Render a Name/Attribute/Call chain as a dotted string.

    ``self._gate.writing()`` -> ``"self._gate.writing()"``;
    returns None for expressions outside that grammar (subscripts, calls
    with the callee itself a call, ...).  Call *arguments* are ignored: lock
    guards are matched by shape, not by argument values.
    """
    if isinstance(node, ast.Call):
        inner = dotted(node.func)
        return f"{inner}()" if inner is not None else None
    if isinstance(node, ast.Attribute):
        inner = dotted(node.value)
        return f"{inner}.{node.attr}" if inner is not None else None
    if isinstance(node, ast.Name):
        return node.id
    return None


def base_chain(node: ast.AST) -> Tuple[Optional[str], Optional[str]]:
    """The root object and first attribute of a write target.

    For ``self._entries[k]``, ``self.stats.hits``, ``self._inflight.pop`` alike
    this returns ``("self", "_entries"/"stats"/"_inflight")``: unwraps
    subscripts and trailing attributes down to the innermost
    ``<name>.<attr>`` pair.  Returns ``(None, None)`` when the target is not
    rooted in a plain name.
    """
    cur = node
    while True:
        if isinstance(cur, ast.Subscript):
            cur = cur.value
        elif isinstance(cur, ast.Attribute):
            if isinstance(cur.value, ast.Name):
                return cur.value.id, cur.attr
            cur = cur.value
        else:
            return None, None
