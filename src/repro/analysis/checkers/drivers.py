"""Rule ``driver-registry``: the session enforces what algorithms declare.

``SimulationSession.run`` routes by name through the ``DRIVERS`` registry
and rejects ``engine`` values the driver does not declare.  What a driver
declares is held by types and checked at import -- an
:class:`~repro.core.protocol.AlgorithmSpec` cannot be built without
``name`` / ``display_name`` / ``engines``, nor with an engine
``arraycompile.ENGINES`` does not list, and the registry refuses a name
registered twice.  What no type can see is whether the session still
*reads* the declaration: it must gate on ``... not in driver.engines``
somewhere -- if that validation is deleted, the session would accept
``engine="array"`` for a dict-only algorithm, which would silently run the
dict path, and this rule fails.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.findings import Finding
from repro.analysis.project import Project

SESSION_MODULE = "session/session.py"


class DriverRegistryChecker:
    rule = "driver-registry"
    description = (
        "the session validates engine= against the engines its algorithm "
        "drivers declare"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        session = project.module(SESSION_MODULE)
        if session is None:
            return  # not scanning the real tree / a full fixture
        for node in session.walk():
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, ast.NotIn) for op in node.ops):
                continue
            for cmp in node.comparators:
                if isinstance(cmp, ast.Attribute) and cmp.attr == "engines":
                    return
        yield Finding(
            rule=self.rule,
            path=SESSION_MODULE,
            line=1,
            col=0,
            message=(
                "the session never tests `... not in <driver>.engines`: the "
                "driver registry's engine declarations are unenforced"
            ),
            detail="session-gate",
        )
