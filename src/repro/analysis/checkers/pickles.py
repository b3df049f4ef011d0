"""Rule ``pickle-confined``: nothing in the library unpickles.

Unpickling runs the sender's code.  The wire speaks the safe codec
(:mod:`repro.net.codec`) and shard workers get their commands over the
``multiprocessing`` pipe they were spawned with, so no module under
``src/repro`` has a reason to name ``pickle``, ``marshal`` or ``shelve``
itself.  On the AST (a comment mentioning pickle is no finding; an aliased,
from-form or function-level import is) every such import is a finding.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Tuple

from repro.analysis.findings import Finding
from repro.analysis.project import ParsedModule, Project, symbol_of

UNSAFE_MODULES: Tuple[str, ...] = ("pickle", "marshal", "shelve")


class PickleConfinedChecker:
    rule = "pickle-confined"
    description = "no module imports pickle/marshal/shelve"

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project:
            for node, name in _imports(module):
                yield Finding(
                    rule=self.rule,
                    path=module.relpath,
                    line=getattr(node, "lineno", 1),
                    col=getattr(node, "col_offset", 0),
                    message=(
                        f"`{name}` imported: bytes from a socket or a worker "
                        "must never be unpickled by hand"
                    ),
                    symbol=symbol_of(node),
                    detail=name,
                )


def _imports(module: ParsedModule) -> Iterator[Tuple[ast.AST, str]]:
    """Every import of an unsafe module, in either form, at any depth."""
    for node in module.walk():
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        for name in names:
            if name.split(".")[0] in UNSAFE_MODULES:
                yield node, name
