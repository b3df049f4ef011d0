"""Every checker: a seeded fixture it must flag, a clean one it must pass."""

from __future__ import annotations

from pathlib import Path

import pytest

import repro
from repro.analysis.checkers.asserts import BareAssertChecker
from repro.analysis.checkers.determinism import DeterminismChecker
from repro.analysis.checkers.frozen import CrossingType, FrozenCrossingChecker
from repro.analysis.checkers.lazynumpy import LazyNumpyChecker
from repro.analysis.checkers.locks import GuardSpec, LockDisciplineChecker
from repro.analysis.checkers.pickles import PickleConfinedChecker
from repro.analysis.checkers.protocol import (
    ProtocolExhaustivenessChecker,
    ShardCommandChecker,
)
from repro.analysis.project import Project
from repro.analysis.runner import run_analysis


def check(checker, sources):
    return list(checker.check(Project.from_sources(sources)))


class TestLockDiscipline:
    SPEC = (
        GuardSpec(
            class_name="Box",
            attrs=("_items",),
            locks=("self._lock",),
            exempt_methods=("rebuild",),
            why="test fixture",
        ),
    )

    def _checker(self):
        return LockDisciplineChecker(guarded=self.SPEC)

    def test_unguarded_write_flagged(self):
        src = (
            "class Box:\n"
            "    def put(self, k, v):\n"
            "        self._items[k] = v\n"
        )
        findings = check(self._checker(), {"m.py": src})
        assert [f.detail for f in findings] == ["_items"]
        assert findings[0].symbol == "Box.put"

    def test_guarded_write_clean(self):
        src = (
            "class Box:\n"
            "    def put(self, k, v):\n"
            "        with self._lock:\n"
            "            self._items[k] = v\n"
        )
        assert check(self._checker(), {"m.py": src}) == []

    def test_mutator_call_counts_as_write(self):
        src = (
            "class Box:\n"
            "    def drop(self, k):\n"
            "        self._items.pop(k, None)\n"
        )
        assert len(check(self._checker(), {"m.py": src})) == 1

    def test_init_and_exempt_methods_allowed(self):
        src = (
            "class Box:\n"
            "    def __init__(self):\n"
            "        self._items = {}\n"
            "    def rebuild(self):\n"
            "        self._items = {}\n"
        )
        assert check(self._checker(), {"m.py": src}) == []

    def test_closure_inside_guard_still_flagged(self):
        # The with-block wraps the *definition*; the closure body runs later,
        # after the lock is released.
        src = (
            "class Box:\n"
            "    def put(self, k, v):\n"
            "        with self._lock:\n"
            "            def later():\n"
            "                self._items[k] = v\n"
            "            return later\n"
        )
        assert len(check(self._checker(), {"m.py": src})) == 1

    def test_other_class_untouched(self):
        src = (
            "class Other:\n"
            "    def put(self, k, v):\n"
            "        self._items[k] = v\n"
        )
        assert check(self._checker(), {"m.py": src}) == []

    def test_wildcard_spec_covers_setattr(self):
        spec = (
            GuardSpec(
                class_name="Stats", attrs=("*",), locks=("self._lock",), why="t"
            ),
        )
        src = (
            "class Stats:\n"
            "    def bump(self, name):\n"
            "        setattr(self, name, 1)\n"
            "    def ok(self, name):\n"
            "        with self._lock:\n"
            "            setattr(self, name, 1)\n"
        )
        findings = check(LockDisciplineChecker(guarded=spec), {"m.py": src})
        assert [f.symbol for f in findings] == ["Stats.bump"]

    def test_production_registry_guards_the_sharded_pool(self):
        """The coordinator/ring state registered by ISSUE 8 stays covered:
        an unguarded write to any of it is flagged by the default checker."""
        from repro.analysis.checkers.locks import GUARDED

        spec = next(s for s in GUARDED if "_shards" in s.attrs)
        assert {"_ring", "_respawns"} <= set(spec.attrs)
        assert spec.locks == ("self._pool_lock",)
        seeded = (
            "class ConcurrentSessionServer:\n"
            "    def evict(self, handle):\n"
            "        self._shards.remove(handle)\n"
            "        self._ring = None\n"
            "        self._respawns += 1\n"
        )
        findings = check(LockDisciplineChecker(), {"m.py": seeded})
        assert {f.detail for f in findings} == {"_shards", "_ring", "_respawns"}
        clean = seeded.replace(
            "    def evict(self, handle):\n        ",
            "    def evict(self, handle):\n        with self._pool_lock:\n            ",
        ).replace("\n        self._ring", "\n            self._ring").replace(
            "\n        self._respawns", "\n            self._respawns"
        )
        assert check(LockDisciplineChecker(), {"m.py": clean}) == []

    def test_production_registry_guards_the_reader_writer_counts(self):
        """The gate's record (reader and writer counts, announced writers,
        closed) is committed only under its condition variable."""
        seeded = (
            "class _Gate:\n"
            "    def step(self, transition):\n"
            "        decision, self._state = transition(self._state)\n"
            "        return decision\n"
        )
        findings = check(LockDisciplineChecker(), {"m.py": seeded})
        assert [f.detail for f in findings] == ["_state"]
        clean = (
            "class _Gate:\n"
            "    def step(self, transition):\n"
            "        with self._cond:\n"
            "            decision, self._state = transition(self._state)\n"
            "        return decision\n"
        )
        assert check(LockDisciplineChecker(), {"m.py": clean}) == []

    def test_production_registry_guards_the_stamp_under_both_write_acquires(self):
        """The stamp advances under a write hold -- waiting or not: the
        guard matches ``writing()`` whatever its arguments; a write outside
        the gate, or under an unrelated lock, is a finding."""

        def server(*body: str) -> str:
            return "class ConcurrentSessionServer:\n    def batch(self, wait):\n" + "".join(
                f"        {line}\n" for line in body
            )

        flagged = [
            server("self._stamp += 1"),
            server("with self._pool_lock:", "    self._stamp += 1"),
            server("with self._gate.reading():", "    self._stamp += 1"),
        ]
        for src in flagged:
            findings = check(LockDisciplineChecker(), {"m.py": src})
            assert [f.detail for f in findings] == ["_stamp"], src
        clean = [
            server("with self._gate.writing():", "    self._stamp += 1"),
            server(
                "with self._gate.writing(wait) as held:",
                "    if held:",
                "        self._stamp += 1",
            ),
        ]
        for src in clean:
            assert check(LockDisciplineChecker(), {"m.py": src}) == [], src


class TestFrozenCrossing:
    def test_unfrozen_dataclass_in_frozen_module_flagged(self):
        src = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Frame:\n"
            "    x: int\n"
        )
        checker = FrozenCrossingChecker(
            frozen_modules=("net/protocol.py",), crossing_types=()
        )
        findings = check(checker, {"net/protocol.py": src})
        assert [f.detail for f in findings] == ["Frame"]

    def test_frozen_dataclass_clean(self):
        src = (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class Frame:\n"
            "    x: int\n"
        )
        checker = FrozenCrossingChecker(
            frozen_modules=("net/protocol.py",), crossing_types=()
        )
        assert check(checker, {"net/protocol.py": src}) == []

    def test_registered_crossing_type_must_be_frozen(self):
        spec = (CrossingType("m.py", "Result", "cached"),)
        checker = FrozenCrossingChecker(frozen_modules=(), crossing_types=spec)
        dirty = "from dataclasses import dataclass\n@dataclass\nclass Result:\n    x: int\n"
        clean = (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\nclass Result:\n    x: int\n"
        )
        assert len(check(checker, {"m.py": dirty})) == 1
        assert check(checker, {"m.py": clean}) == []

    def test_setattr_style_requires_guard(self):
        spec = (CrossingType("m.py", "Rel", "shared", style="setattr"),)
        checker = FrozenCrossingChecker(frozen_modules=(), crossing_types=spec)
        dirty = "class Rel:\n    pass\n"
        clean = (
            "class Rel:\n"
            "    def __setattr__(self, name, value):\n"
            "        raise AttributeError(name)\n"
        )
        assert len(check(checker, {"m.py": dirty})) == 1
        assert check(checker, {"m.py": clean}) == []

    def test_missing_registered_class_reported(self):
        spec = (CrossingType("m.py", "Vanished", "gone"),)
        checker = FrozenCrossingChecker(frozen_modules=(), crossing_types=spec)
        findings = check(checker, {"m.py": "x = 1\n"})
        assert [f.detail for f in findings] == ["Vanished"]


class TestLazyNumpy:
    def _checker(self):
        return LazyNumpyChecker(allowed=("core/arraystate.py",))

    def test_module_level_import_flagged(self):
        for src in (
            "import numpy\n",
            "import numpy as np\n",
            "from numpy import zeros\n",
            "import numpy.linalg\n",
            "try:\n    import numpy\nexcept ImportError:\n    numpy = None\n",
        ):
            assert len(check(self._checker(), {"core/dgpm.py": src})) == 1, src

    def test_function_level_import_clean(self):
        src = "def f():\n    import numpy as np\n    return np.zeros(1)\n"
        assert check(self._checker(), {"core/dgpm.py": src}) == []

    def test_allowed_module_clean(self):
        assert check(self._checker(), {"core/arraystate.py": "import numpy\n"}) == []


class TestProtocolExhaustiveness:
    PROTOCOL = (
        "import enum\n"
        "class FrameKind(enum.IntEnum):\n"
        "    HELLO = 1\n"
        "    RUN = 2\n"
        "class Hello:\n    pass\n"
        "class RunRequest:\n    pass\n"
        "FRAME_CLASSES = {\n"
        "    FrameKind.HELLO: Hello,\n"
        "    FrameKind.RUN: RunRequest,\n"
        "}\n"
    )
    SERVER = "def dispatch(kind):\n    return kind in (FrameKind.HELLO, FrameKind.RUN)\n"
    CLIENT = "def send():\n    return (FrameKind.HELLO, FrameKind.RUN)\n"

    def _full_tree(self):
        return {
            "net/protocol.py": self.PROTOCOL,
            "net/server.py": self.SERVER,
            "net/client.py": self.CLIENT,
        }

    def test_complete_protocol_clean(self):
        assert check(ProtocolExhaustivenessChecker(), self._full_tree()) == []

    def test_missing_codec_entry_flagged(self):
        tree = self._full_tree()
        tree["net/protocol.py"] = self.PROTOCOL.replace(
            "    FrameKind.RUN: RunRequest,\n", ""
        )
        findings = check(ProtocolExhaustivenessChecker(), tree)
        assert any("FRAME_CLASSES" in f.message and f.detail == "RUN" for f in findings)

    def test_missing_server_arm_flagged(self):
        tree = self._full_tree()
        tree["net/server.py"] = "def dispatch(kind):\n    return kind == FrameKind.HELLO\n"
        findings = check(ProtocolExhaustivenessChecker(), tree)
        assert any("dispatch arm" in f.message and f.detail == "RUN" for f in findings)

    def test_missing_client_arm_flagged(self):
        tree = self._full_tree()
        tree["net/client.py"] = "def send():\n    return FrameKind.HELLO\n"
        findings = check(ProtocolExhaustivenessChecker(), tree)
        assert any("client" in f.message and f.detail == "RUN" for f in findings)

    def test_absent_protocol_module_is_not_checked(self):
        assert check(ProtocolExhaustivenessChecker(), {"other.py": "x = 1\n"}) == []

    CODEC = (
        "FRAME_STRUCTS = {\n"
        '    "Hello": 1,\n'
        '    "RunRequest": 2,\n'
        "}\n"
    )

    def test_codec_registered_frames_clean(self):
        tree = self._full_tree()
        tree["net/codec.py"] = self.CODEC
        assert check(ProtocolExhaustivenessChecker(), tree) == []

    def test_unregistered_frame_class_flagged(self):
        tree = self._full_tree()
        tree["net/codec.py"] = self.CODEC.replace('    "RunRequest": 2,\n', "")
        findings = check(ProtocolExhaustivenessChecker(), tree)
        assert [f.detail for f in findings] == ["RUN"]
        assert "FRAME_STRUCTS" in findings[0].message

    def test_tree_without_codec_skips_the_split_check(self):
        # Fixtures without net/codec.py skip the registry check; the
        # decode-table and arm checks are still enforced.
        findings = check(ProtocolExhaustivenessChecker(), self._full_tree())
        assert findings == []

    def test_frame_class_reference_counts_as_an_arm(self):
        # A sender never names the kind: it travels inferred from the class.
        tree = self._full_tree()
        tree["net/server.py"] = (
            "def dispatch(kind):\n"
            "    return protocol.Hello() if kind == FrameKind.RUN else None\n"
        )
        assert check(ProtocolExhaustivenessChecker(), tree) == []

    def test_framer_owned_kind_needs_a_use_outside_the_decode_table(self):
        tree = self._full_tree()
        tree["net/protocol.py"] = (
            self.PROTOCOL.replace("    RUN = 2\n", "    RUN = 2\n    RESULT_CHUNK = 4\n")
            .replace("class Hello:", "class ResultChunk:\n    pass\nclass Hello:")
            .replace(
                "    FrameKind.RUN: RunRequest,\n",
                "    FrameKind.RUN: RunRequest,\n"
                "    FrameKind.RESULT_CHUNK: ResultChunk,\n",
            )
        )
        findings = check(ProtocolExhaustivenessChecker(), tree)
        assert [f.detail for f in findings] == ["RESULT_CHUNK"]
        tree["net/protocol.py"] += (
            "def receive(kind):\n    return kind is FrameKind.RESULT_CHUNK\n"
        )
        assert check(ProtocolExhaustivenessChecker(), tree) == []


class TestPickleConfined:
    def test_confined_tree_clean(self):
        tree = {
            "net/protocol.py": "import struct\n# pickle is only a word here\n",
            "runtime/mp.py": 'import multiprocessing\nNOTE = "fails to pickle"\n',
        }
        assert check(PickleConfinedChecker(), tree) == []

    FORMS = (
        "import pickle\n",
        "import pickle as p\n",
        "from pickle import loads\n",
        "def decode(body):\n    import marshal\n    return marshal.loads(body)\n",
        "import shelve\n",
    )

    def test_protocol_reimporting_pickle_is_flagged(self):
        for src in self.FORMS:
            findings = check(PickleConfinedChecker(), {"net/protocol.py": src})
            assert [f.rule for f in findings] == ["pickle-confined"], src

    def test_worker_link_importing_pickle_is_flagged(self):
        """No allow-listed module, no allow-listed load site: the worker
        link's own module is held to the rule the client port is."""
        for src in self.FORMS:
            findings = check(PickleConfinedChecker(), {"runtime/transport.py": src})
            assert [f.rule for f in findings] == ["pickle-confined"], src

    def test_imported_loader_is_flagged(self):
        tree = {"runtime/transport.py": "from pickle import dumps, loads\n"}
        findings = check(PickleConfinedChecker(), tree)
        assert [f.detail for f in findings] == ["pickle"]


class TestShardCommands:
    MP = (
        'SHARD_COMMANDS = ("ping", "stop")\n'
        "def worker(transport):\n"
        "    command, payload = transport.recv()\n"
        '    if command == "ping":\n'
        '        transport.send(("ok", None))\n'
        '    elif command == "stop":\n'
        "        return\n"
    )
    COORDINATOR = (
        "def drive(handle):\n"
        '    handle.request("ping", None)\n'
        '    handle.post("stop", None)\n'
    )

    def _full_tree(self):
        return {
            "runtime/mp.py": self.MP,
            "session/concurrent.py": self.COORDINATOR,
        }

    def test_wired_inventory_clean(self):
        assert check(ShardCommandChecker(), self._full_tree()) == []

    def test_missing_dispatch_arm_flagged(self):
        tree = self._full_tree()
        tree["runtime/mp.py"] = (
            'SHARD_COMMANDS = ("ping", "stop")\n'
            "def worker(transport):\n"
            "    command, payload = transport.recv()\n"
            '    if command == "ping":\n'
            '        transport.send(("ok", None))\n'
        )
        findings = check(ShardCommandChecker(), tree)
        assert any(
            "no dispatch arm" in f.message and f.detail == "stop"
            for f in findings
        )

    def test_missing_sender_flagged(self):
        tree = self._full_tree()
        tree["session/concurrent.py"] = (
            'def drive(handle):\n    handle.request("ping", None)\n'
        )
        findings = check(ShardCommandChecker(), tree)
        assert any(
            "never sent" in f.message and f.detail == "stop" for f in findings
        )

    def test_superstep_engine_counts_as_a_sender(self):
        """The ``q.*`` commands are posted by the engine, not the coordinator."""
        tree = self._full_tree()
        tree["session/concurrent.py"] = (
            'def drive(handle):\n    handle.request("ping", None)\n'
        )
        tree["runtime/engine.py"] = 'def run(host):\n    host.post("stop", None)\n'
        assert check(ShardCommandChecker(), tree) == []

    def test_inventory_literals_do_not_count_as_dispatch(self):
        """The inventory tuple itself must not satisfy the dispatch arm."""
        tree = self._full_tree()
        tree["runtime/mp.py"] = 'SHARD_COMMANDS = ("ping", "stop")\n'
        findings = check(ShardCommandChecker(), tree)
        assert {f.detail for f in findings} == {"ping", "stop"}

    def test_missing_inventory_flagged(self):
        tree = self._full_tree()
        tree["runtime/mp.py"] = "def worker(transport):\n    pass\n"
        findings = check(ShardCommandChecker(), tree)
        assert [f.detail for f in findings] == ["SHARD_COMMANDS"]

    def test_absent_mp_module_is_not_checked(self):
        assert check(ShardCommandChecker(), {"other.py": "x = 1\n"}) == []


class TestDeterminism:
    def test_global_rng_flagged_everywhere(self):
        for src in (
            "import random\nx = random.choice([1, 2])\n",
            "import random\nrandom.seed(0)\n",
            "from random import shuffle\n",
            "import random\nr = random.Random()\n",
        ):
            assert len(check(DeterminismChecker(), {"bench/w.py": src})) == 1, src

    def test_seeded_random_clean(self):
        src = "import random\nrng = random.Random(7)\nx = rng.random()\n"
        assert check(DeterminismChecker(), {"core/a.py": src}) == []

    def test_wallclock_flagged_only_in_engine_dirs(self):
        src = "import time\nt = time.time()\n"
        assert len(check(DeterminismChecker(), {"core/a.py": src})) == 1
        assert len(check(DeterminismChecker(), {"simulation/a.py": src})) == 1
        assert check(DeterminismChecker(), {"bench/a.py": src}) == []

    def test_perf_counter_clean(self):
        src = "import time\nt = time.perf_counter()\n"
        assert check(DeterminismChecker(), {"core/a.py": src}) == []

    def test_from_time_import_time_flagged(self):
        src = "from time import time\n"
        assert len(check(DeterminismChecker(), {"partition/a.py": src})) == 1
        assert check(DeterminismChecker(), {"net/a.py": src}) == []

    def test_partition_bans_every_clock_read(self):
        # partition/ is pure-function-of-inputs: even perf_counter (fine
        # in core/) is a determinism leak there.
        src = "import time\nt = time.perf_counter()\n"
        assert len(check(DeterminismChecker(), {"partition/a.py": src})) == 1
        assert check(DeterminismChecker(), {"core/a.py": src}) == []
        assert len(check(DeterminismChecker(), {"partition/a.py": "import time\nt = time.monotonic()\n"})) == 1

    def test_partition_bans_from_time_imports_wholesale(self):
        src = "from time import perf_counter\n"
        finding = check(DeterminismChecker(), {"partition/a.py": src})
        assert len(finding) == 1 and finding[0].detail == "from-time-strict"
        assert check(DeterminismChecker(), {"core/a.py": src}) == []


class TestBareAssert:
    def test_assert_flagged(self):
        findings = check(BareAssertChecker(), {"m.py": "def f(x):\n    assert x\n"})
        assert [f.detail for f in findings] == ["assert"]
        assert findings[0].symbol == "f"

    def test_raise_clean(self):
        src = "def f(x):\n    if not x:\n        raise ValueError(x)\n"
        assert check(BareAssertChecker(), {"m.py": src}) == []


class TestRealTreeIsClean:
    def test_package_has_no_findings(self):
        """The committed tree passes every rule (exit-0 contract of CI)."""
        root = Path(repro.__file__).resolve().parent
        findings = run_analysis(Project.load(root))
        assert findings == [], "\n" + "\n".join(f.render() for f in findings)
