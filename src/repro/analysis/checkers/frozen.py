"""Rule ``frozen-crossing``: types that cross threads/caches/wires are frozen.

Anything stored in the result cache, codec-encoded across the wire protocol
or pickled across the worker transport is shared: a cache hit hands the
*same* object to every caller, and a mutable reply would let one client
poison another's answer (the PR-2 ``MatchRelation`` bug).  Two enforcement
shapes:

* every ``@dataclass`` defined in ``net/protocol.py`` must be
  ``frozen=True`` -- protocol frames exist to cross the wire, no exceptions;
* the registry below names crossing types elsewhere; dataclasses must carry
  ``frozen=True``, hand-rolled classes must define ``__setattr__`` (the
  ``MatchRelation`` freeze idiom).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Tuple

from repro.analysis.checkers.base import decorator_dataclass_frozen, iter_class_defs
from repro.analysis.findings import Finding
from repro.analysis.project import ParsedModule, Project, symbol_of

#: every dataclass in these modules must be frozen (module-wide contracts)
FROZEN_MODULES: Tuple[str, ...] = ("net/protocol.py",)


@dataclass(frozen=True)
class CrossingType:
    """One type that crosses a sharing boundary, and why."""

    module: str
    class_name: str
    why: str
    #: "dataclass" -> require frozen=True; "setattr" -> require __setattr__
    style: str = "dataclass"


CROSSING_TYPES: Tuple[CrossingType, ...] = (
    CrossingType(
        "runtime/metrics.py", "RunMetrics",
        "stored in the result cache and encoded inside RunReply frames",
    ),
    CrossingType(
        "runtime/metrics.py", "RunResult",
        "the cached value itself; shared by every hit on the entry",
    ),
    CrossingType(
        "session/session.py", "MutationOutcome",
        "handed across threads by the concurrent front-end",
    ),
    CrossingType(
        "session/cache.py", "CanonicalQuery",
        "held by every QueryKey and read by routing + cache concurrently",
    ),
    CrossingType(
        "session/concurrent.py", "StampedResult",
        "returned to arbitrary client threads and encoded by the ingress",
    ),
    CrossingType(
        "session/concurrent.py", "StampedOutcome",
        "returned to arbitrary client threads and encoded by the ingress",
    ),
    CrossingType(
        "simulation/matchrel.py", "MatchRelation",
        "cache hits share the relation object across callers",
        style="setattr",
    ),
)


class FrozenCrossingChecker:
    rule = "frozen-crossing"
    description = (
        "dataclasses cached or sent across the protocol/transport "
        "boundary must be frozen"
    )

    def __init__(
        self,
        frozen_modules: Tuple[str, ...] = FROZEN_MODULES,
        crossing_types: Tuple[CrossingType, ...] = CROSSING_TYPES,
    ) -> None:
        self.frozen_modules = frozen_modules
        self.crossing_types = crossing_types

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project:
            if module.relpath in self.frozen_modules:
                yield from self._check_frozen_module(module)
        for spec in self.crossing_types:
            module = project.module(spec.module)
            if module is None:
                continue
            for cls in iter_class_defs(module):
                if cls.name == spec.class_name:
                    yield from self._check_crossing(module, cls, spec)
                    break
            else:
                yield Finding(
                    rule=self.rule,
                    path=spec.module,
                    line=1,
                    col=0,
                    message=(
                        f"registered crossing type {spec.class_name} not "
                        f"found in {spec.module}; update the registry in "
                        "repro/analysis/checkers/frozen.py"
                    ),
                    detail=spec.class_name,
                )

    def _check_frozen_module(self, module: ParsedModule) -> Iterable[Finding]:
        for cls in iter_class_defs(module):
            frozen = decorator_dataclass_frozen(cls)
            if frozen is False:
                yield Finding(
                    rule=self.rule,
                    path=module.relpath,
                    line=cls.lineno,
                    col=cls.col_offset,
                    message=(
                        f"protocol frame dataclass {cls.name} must be "
                        "@dataclass(frozen=True): frames are encoded across "
                        "the wire and shared by reply futures"
                    ),
                    symbol=symbol_of(cls),
                    detail=cls.name,
                )

    def _check_crossing(
        self, module: ParsedModule, cls: ast.ClassDef, spec: CrossingType
    ) -> Iterable[Finding]:
        if spec.style == "setattr":
            has_guard = any(
                isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                and n.name == "__setattr__"
                for n in cls.body
            )
            if not has_guard:
                yield Finding(
                    rule=self.rule,
                    path=module.relpath,
                    line=cls.lineno,
                    col=cls.col_offset,
                    message=(
                        f"{cls.name} must enforce immutability with a "
                        f"__setattr__ guard: {spec.why}"
                    ),
                    symbol=symbol_of(cls),
                    detail=cls.name,
                )
            return
        if decorator_dataclass_frozen(cls) is not True:
            yield Finding(
                rule=self.rule,
                path=module.relpath,
                line=cls.lineno,
                col=cls.col_offset,
                message=(
                    f"{cls.name} must be @dataclass(frozen=True): {spec.why}"
                ),
                symbol=symbol_of(cls),
                detail=cls.name,
            )
