"""Rule ``lock-discipline``: guarded shared state is written under its lock.

The concurrent serving stack (PR 3) relies on a handful of attributes being
mutated only while a specific lock is held; every entry in :data:`GUARDED`
below names one of them, the guarding lock expression(s), and the methods
that are *exempt* because they run before any concurrency exists
(``__init__``, unpickling) or under an externally provided exclusion (the
session layer's writer lock) -- each with the reason recorded.

A "write" is any assignment/deletion through the attribute (including
subscript and nested-attribute stores) and any in-place mutator call on it
(``.pop``/``.append``/``.update``/...); ``setattr(self, ...)`` counts as a
write to every guarded attribute when the spec guards ``"*"``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, List, Tuple

from repro.analysis.checkers.base import attribute_writes, guarded_by, iter_class_defs, setattr_calls
from repro.analysis.findings import Finding
from repro.analysis.project import ParsedModule, Project, enclosing_method, symbol_of


@dataclass(frozen=True)
class GuardSpec:
    """One lock-discipline contract: class, attributes, lock, exemptions."""

    class_name: str
    #: attribute names, or ("*",) for "every instance attribute" (used for
    #: plain-counter dataclasses whose whole surface is guarded)
    attrs: Tuple[str, ...]
    #: dotted with-expressions that count as holding the lock
    locks: Tuple[str, ...]
    #: methods allowed to write without the lock, with the reason in `why`
    exempt_methods: Tuple[str, ...] = ()
    why: str = ""
    #: restrict to one module (relpath); "" matches any module, which lets
    #: test fixtures reuse the production class names
    module: str = ""


#: always exempt: these run single-threaded by construction (no other thread
#: can hold a reference to a half-constructed / half-unpickled object)
_CONSTRUCTION = ("__init__", "__post_init__", "__new__", "__getstate__", "__setstate__")

GUARDED: Tuple[GuardSpec, ...] = (
    GuardSpec(
        class_name="LruResultCache",
        attrs=("_entries", "_inflight", "stats"),
        locks=("self._lock",),
        why=(
            "concurrent get/put/evict; the stats counters and a found "
            "entry's hit count change with the table"
        ),
    ),
    GuardSpec(
        class_name="LabelInterner",
        attrs=("_ids",),
        locks=("self._lock",),
        why="two threads interning new labels must never share an id",
    ),
    GuardSpec(
        class_name="DiGraph",
        attrs=("_label_index", "_succ_label_counts", "_shape"),
        locks=("self._index_lock",),
        exempt_methods=("add_node", "add_edge", "remove_edge", "remove_node"),
        why=(
            "the lock guards the first-use builds against concurrent "
            "readers; the exempt mutators patch the indexes in place under "
            "the session layer's writer exclusion"
        ),
    ),
    GuardSpec(
        class_name="SessionStats",
        attrs=("*",),
        locks=("self._lock",),
        why="counters are read-modify-write bumped from concurrent readers",
    ),
    GuardSpec(
        class_name="SimulationSession",
        attrs=("_deps",),
        locks=("self._deps_lock",),
        exempt_methods=("invalidate",),
        why=(
            "double-checked lazy build; invalidate() runs under the "
            "concurrent front-end's writer exclusion"
        ),
    ),
    GuardSpec(
        class_name="SimulationSession",
        attrs=("_compiled",),
        locks=("self._compiled_lock",),
        exempt_methods=("invalidate",),
        why=(
            "double-checked lazy build of the array engine's compiled-CSR "
            "cache; invalidate() runs under writer exclusion"
        ),
    ),
    GuardSpec(
        class_name="CompiledFragmentation",
        attrs=("_compiled", "_hosts", "compilations", "host_builds"),
        locks=("self._lock",),
        why=(
            "reader threads share one compiled-CSR cache: a fragment "
            "snapshot, and the host snapshot over them, is built once "
            "(double-checked), and global ids are assigned under the same lock"
        ),
    ),
    GuardSpec(
        class_name="_Gate",
        attrs=("_state",),
        locks=("self._cond",),
        why=(
            "every admission decision reads the record and commits its "
            "successor under the gate's one condition variable"
        ),
    ),
    GuardSpec(
        class_name="ConcurrentSessionServer",
        attrs=("_stamp", "_rebalances"),
        locks=("self._gate.writing()",),
        why=(
            "the stamp advances, and a rebalance counts, only at quiescent "
            "points (a write hold)"
        ),
    ),
    GuardSpec(
        class_name="ShardPool",
        attrs=("_handles", "_ring", "_respawns"),
        locks=("self._lock",),
        why=(
            "the sharded pool (worker handles, hash ring, respawn counter) "
            "is repaired/rebalanced by whichever thread hits a dead worker "
            "or triggers a migration"
        ),
    ),
)


class LockDisciplineChecker:
    rule = "lock-discipline"
    description = (
        "writes to registered lock-guarded attributes must happen inside "
        "the owning `with <lock>` block"
    )

    def __init__(self, guarded: Tuple[GuardSpec, ...] = GUARDED) -> None:
        self.guarded = guarded

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project:
            yield from self._check_module(module)

    def _check_module(self, module: ParsedModule) -> Iterable[Finding]:
        for cls in iter_class_defs(module):
            specs = [
                s
                for s in self.guarded
                if s.class_name == cls.name
                and (not s.module or s.module == module.relpath)
            ]
            if specs:
                yield from self._check_class(module, cls, specs)

    def _check_class(
        self, module: ParsedModule, cls: ast.ClassDef, specs: List[GuardSpec]
    ) -> Iterable[Finding]:
        lock_names = {
            lock.split(".")[1]
            for spec in specs
            for lock in spec.locks
            if lock.startswith("self.")
        }
        for node, root, attr in attribute_writes(cls):
            if root != "self":
                continue
            if attr in lock_names:
                continue  # creating/replacing the lock itself
            for spec in specs:
                if spec.attrs != ("*",) and attr not in spec.attrs:
                    continue
                if spec.attrs == ("*",) and attr.startswith("_lock"):
                    continue
                yield from self._require_guard(module, cls, spec, node, attr)
                break
        for spec in specs:
            if spec.attrs == ("*",):
                for call in setattr_calls(cls):
                    yield from self._require_guard(
                        module, cls, spec, call, "setattr(self, ...)"
                    )

    def _require_guard(
        self,
        module: ParsedModule,
        cls: ast.ClassDef,
        spec: GuardSpec,
        node: ast.AST,
        attr: str,
    ) -> Iterable[Finding]:
        method = enclosing_method(node)
        method_name = method.name if method is not None else ""
        if method_name in _CONSTRUCTION or method_name in spec.exempt_methods:
            return
        if guarded_by(node, spec.locks):
            return
        yield Finding(
            rule=self.rule,
            path=module.relpath,
            line=getattr(node, "lineno", cls.lineno),
            col=getattr(node, "col_offset", 0),
            message=(
                f"{cls.name}.{attr} is written outside "
                f"`with {' / '.join(spec.locks)}` "
                f"(in {method_name or 'module scope'}); guarded because: {spec.why}"
            ),
            symbol=symbol_of(node),
            detail=attr,
        )
