"""Rule ``protocol-exhaustive``: every frame kind is wired end to end.

Adding a :class:`FrameKind` member is a four-site change -- the decode
table, the codec registry, the server dispatch, the client handling -- and
nothing ties the sites together at runtime: a kind missing its server arm
only surfaces as a mid-connection ``ErrorReply`` when a client first sends
it.  This checker derives the kind inventory from the enum itself and
demands, for every member:

* a ``FrameKind.<KIND>: <FrameClass>`` entry in ``FRAME_CLASSES`` (the
  decode table), and
* an arm in the server module and one in the client module: a reference to
  ``FrameKind.<KIND>`` (a receive arm) or to the kind's frame class (a send
  arm -- the kind travels inferred from the class), and
* (when the tree has ``net/codec.py``) the frame's class name registered in
  the safe codec's ``FRAME_STRUCTS`` dict: the codec is the only body
  encoding, so a frame class missing there cannot be sent at all.

Every kind travels between server and client: the framer sends and receives
each frame as it is, so no kind has its arms anywhere else.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.analysis.findings import Finding
from repro.analysis.project import ParsedModule, Project, symbol_of

PROTOCOL_MODULE = "net/protocol.py"
SERVER_MODULE = "net/server.py"
CLIENT_MODULE = "net/client.py"
CODEC_MODULE = "net/codec.py"

RULE = "protocol-exhaustive"


class ProtocolExhaustivenessChecker:
    rule = RULE
    description = (
        "every FrameKind member has a FRAME_CLASSES entry, server and "
        "client arms, and a codec registration"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        protocol = project.module(PROTOCOL_MODULE)
        if protocol is None:
            return  # nothing to check outside the real tree / a full fixture
        kinds = _enum_members(protocol, "FrameKind")
        if not kinds:
            yield _finding(
                protocol, protocol.tree, "FrameKind",
                f"no FrameKind enum found in {PROTOCOL_MODULE}",
            )
            return
        frame_classes = _frame_class_map(protocol)
        codec = project.module(CODEC_MODULE)
        codec_structs = (
            None if codec is None else _dict_string_keys(codec, "FRAME_STRUCTS")
        )

        for kind, node in kinds:
            frame_cls = frame_classes.get(kind)
            if frame_cls is None:
                yield _finding(
                    protocol, node, kind,
                    f"FrameKind.{kind} has no FRAME_CLASSES entry: the codec "
                    "cannot decode it",
                )
            for module, what in (
                (SERVER_MODULE, "the server has no dispatch arm for it"),
                (CLIENT_MODULE, "no client sends or handles it"),
            ):
                if kind not in _arms(project.module(module), frame_classes):
                    yield _finding(
                        protocol, node, kind,
                        f"neither FrameKind.{kind} nor its frame class is "
                        f"referenced in {module}: {what}",
                    )
            if (
                codec_structs is not None
                and frame_cls is not None
                and frame_cls not in codec_structs
            ):
                yield _finding(
                    protocol, node, kind,
                    f"frame class {frame_cls} (FrameKind.{kind}) is not "
                    f"registered in {CODEC_MODULE}'s FRAME_STRUCTS: "
                    "no peer can encode it",
                )


MP_MODULE = "runtime/mp.py"
#: where shard commands are sent from: the shard pool, and the superstep
#: engine whose hosts its worker handles are (the ``q.*`` commands)
SENDER_MODULES = ("session/sharding.py", "runtime/engine.py")


class ShardCommandChecker:
    """The sharded arm: every ``SHARD_COMMANDS`` entry is wired end to end.

    The shard worker protocol is stringly typed on purpose (commands ride
    the worker's pipe as tuples), so nothing at runtime ties the three sites
    together: the ``SHARD_COMMANDS`` inventory in ``runtime/mp.py``, the
    ``_shard_worker`` dispatch arm matching each command, and the module
    that sends it (:data:`SENDER_MODULES`).  A command present in the
    inventory but missing either arm -- or dispatched/sent but absent from
    the inventory -- is a finding.
    """

    rule = RULE
    description = (
        "every SHARD_COMMANDS entry has a _shard_worker dispatch arm in "
        "runtime/mp.py and a sender in " + " or ".join(SENDER_MODULES)
    )

    def check(self, project: Project) -> Iterable[Finding]:
        mp = project.module(MP_MODULE)
        if mp is None:
            return  # outside the real tree / a partial fixture
        inventory = _shard_command_inventory(mp)
        if inventory is None:
            yield _finding(
                mp, mp.tree, "SHARD_COMMANDS",
                f"no SHARD_COMMANDS inventory found in {MP_MODULE}; "
                "the shard worker protocol is unchecked",
            )
            return
        commands, node = inventory
        dispatch = _string_literals(mp, skip=node)
        senders = set().union(
            *(_string_literals(project.module(m)) for m in SENDER_MODULES)
        )
        for command in commands:
            if command not in dispatch:
                yield _finding(
                    mp, node, command,
                    f"shard command {command!r} has no dispatch arm in "
                    f"{MP_MODULE}: the worker cannot serve it",
                )
            if command not in senders:
                yield _finding(
                    mp, node, command,
                    f"shard command {command!r} is never sent from "
                    f"{' or '.join(SENDER_MODULES)}: dead protocol surface",
                )


def _finding(module: ParsedModule, node: ast.AST, detail: str, message: str) -> Finding:
    return Finding(
        rule=RULE,
        path=module.relpath,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        message=message,
        symbol=symbol_of(node),
        detail=detail,
    )


def _assignment(
    module: ParsedModule, name: str
) -> Optional[Union[ast.Assign, ast.AnnAssign]]:
    """The first statement in ``module`` that assigns to the plain name ``name``."""
    for node in module.walk():
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return node
    return None


def _string_constants(nodes: Iterable[Optional[ast.AST]]) -> Set[str]:
    return {
        node.value
        for node in nodes
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def _shard_command_inventory(
    module: ParsedModule,
) -> Tuple[Set[str], ast.AST] | None:
    """The ``SHARD_COMMANDS`` tuple's string members and its assignment node."""
    node = _assignment(module, "SHARD_COMMANDS")
    if node is None or not isinstance(node.value, (ast.Tuple, ast.List)):
        return None
    return _string_constants(node.value.elts), node


def _string_literals(
    module: ParsedModule | None, skip: ast.AST | None = None
) -> Set[str]:
    """Every string constant in ``module``, excluding the ``skip`` subtree."""
    if module is None:
        return set()
    skipped = set() if skip is None else {id(sub) for sub in ast.walk(skip)}
    return _string_constants(n for n in module.walk() if id(n) not in skipped)


def _enum_members(
    module: ParsedModule, enum_name: str
) -> List[Tuple[str, ast.AST]]:
    """``(member_name, assignment_node)`` for each member of the enum class."""
    for node in module.walk():
        if isinstance(node, ast.ClassDef) and node.name == enum_name:
            members: List[Tuple[str, ast.AST]] = []
            for stmt in node.body:
                if isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name) and not target.id.startswith("_"):
                            members.append((target.id, stmt))
            return members
    return []


def _frame_class_map(module: ParsedModule) -> Dict[str, str]:
    """``FrameKind member -> frame class name`` from the ``FRAME_CLASSES``
    dict literal (entries whose value is not a plain name map to ``""``)."""
    node = _assignment(module, "FRAME_CLASSES")
    if node is None or not isinstance(node.value, ast.Dict):
        return {}
    return {
        kind: value.id if isinstance(value, ast.Name) else ""
        for key, value in zip(node.value.keys, node.value.values)
        if key is not None
        for kind in _kinds_in(key)
    }


def _dict_string_keys(module: ParsedModule, name: str) -> Set[str]:
    """The string-literal keys of the dict literal assigned to ``name``."""
    node = _assignment(module, name)
    if node is None or not isinstance(node.value, ast.Dict):
        return set()
    return _string_constants(node.value.keys)


def _kinds_in(tree: ast.AST) -> Set[str]:
    """Every ``FrameKind.<X>`` attribute read under ``tree``."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "FrameKind"
    }


def _arms(module: Optional[ParsedModule], frame_classes: Dict[str, str]) -> Set[str]:
    """The kinds ``module`` has an arm for: ``FrameKind.<X>`` reads, plus the
    kinds whose frame class it names (``RunReply`` / ``protocol.RunReply``)."""
    if module is None:
        return set()
    arms: Set[str] = set()
    by_class = {cls: kind for kind, cls in frame_classes.items() if cls}
    for node in module.walk():
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
            if isinstance(node.value, ast.Name) and node.value.id == "FrameKind":
                arms.add(name)
        else:
            continue
        if name in by_class:
            arms.add(by_class[name])
    return arms
