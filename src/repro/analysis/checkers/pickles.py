"""Rule ``pickle-confined``: no pickle is reachable before authentication.

Unpickling runs the sender's code, so the wire path does it in exactly one
place: ``SocketTransport.recv`` in ``runtime/transport.py``, a class only
ever built around a socket whose peer passed the listener's token check.
On the AST (a comment mentioning pickle is no finding; an aliased or
function-level import is):

* no module under ``net/`` imports ``pickle``, ``marshal`` or ``shelve`` --
  the client port, both clients and the framer see ``OBJ`` bodies as bytes;
* ``runtime/transport.py`` may, but every ``loads`` / ``load`` /
  ``Unpickler`` it names sits inside ``SocketTransport.recv``.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Tuple

from repro.analysis.findings import Finding
from repro.analysis.project import ParsedModule, Project, symbol_of

UNSAFE_MODULES: Tuple[str, ...] = ("pickle", "marshal", "shelve")
LOADERS: Tuple[str, ...] = ("loads", "load", "Unpickler")
CONFINED_PREFIX = "net/"
TRANSPORT_MODULE = "runtime/transport.py"
LOAD_SITE = "SocketTransport.recv"


class PickleConfinedChecker:
    rule = "pickle-confined"
    description = (
        "no module under net/ imports pickle/marshal/shelve; "
        "runtime/transport.py unpickles only inside SocketTransport.recv"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project:
            if module.relpath.startswith(CONFINED_PREFIX):
                why = (
                    f"imported under {CONFINED_PREFIX}: bytes from an "
                    "unauthenticated socket must never be unpickled"
                )
                hits = _imports(module, (ast.Import, ast.ImportFrom))
            elif module.relpath == TRANSPORT_MODULE:
                # ``from pickle import loads`` would make loads invisible to
                # the attribute scan, so here the from-form itself is refused.
                why = (
                    f"outside {LOAD_SITE}, the wire path's one unpickling "
                    "site (reachable only past the listener's token check)"
                )
                found = (*_imports(module, ast.ImportFrom), *_loads(module))
                hits = (hit for hit in found if symbol_of(hit[0]) != LOAD_SITE)
            else:
                continue
            for node, name in hits:
                yield Finding(
                    rule=self.rule,
                    path=module.relpath,
                    line=getattr(node, "lineno", 1),
                    col=getattr(node, "col_offset", 0),
                    message=f"`{name}` {why}",
                    symbol=symbol_of(node),
                    detail=name,
                )


def _imports(module: ParsedModule, forms: object) -> Iterator[Tuple[ast.AST, str]]:
    """Imports of an unsafe module written in one of ``forms``."""
    for node in module.walk():
        if not isinstance(node, forms):  # type: ignore[arg-type]
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            names = [node.module or ""]
        for name in names:
            if name.split(".")[0] in UNSAFE_MODULES:
                yield node, name


def _loads(module: ParsedModule) -> Iterator[Tuple[ast.AST, str]]:
    """``pickle.loads``-shaped attribute reads."""
    for node in module.walk():
        if (
            isinstance(node, ast.Attribute)
            and node.attr in LOADERS
            and isinstance(node.value, ast.Name)
            and node.value.id in UNSAFE_MODULES
        ):
            yield node, f"{node.value.id}.{node.attr}"
