"""Every name of this library that the serving benchmark reaches for exists.

``benchmarks/serving/serving_bench`` is read here, never edited: its probes
look entry points up by ``resolve("module:attr")`` and a probe whose name is
gone reports ``null`` instead of failing, so a rename in ``src/`` would
silently empty a benchmark metric.  This test collects every such string and
every ``from repro... import name`` in those files and resolves each one.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path
from typing import List, Tuple

import pytest

BENCH = Path(__file__).resolve().parent.parent / "benchmarks" / "serving" / "serving_bench"


def _names() -> List[Tuple[str, str, str]]:
    """``(file, module, attr)`` for every library name the benchmark uses."""
    found = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "resolve"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                module, _, attr = node.args[0].value.partition(":")
                found.append((path.name, module, attr))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
                found.extend((path.name, node.module, alias.name) for alias in node.names)
    return found


NAMES = _names()


def test_the_benchmark_names_library_entry_points():
    """The scan itself sees the probes (an empty scan would pass vacuously)."""
    resolved = {f"{module}:{attr}" for _, module, attr in NAMES}
    assert "repro.net.server:CHUNK_SIZE" in resolved
    assert "repro.net:connect" in resolved


@pytest.mark.parametrize(
    "where, module, attr", NAMES, ids=[f"{m}:{a}@{w}" for w, m, a in NAMES]
)
def test_every_name_resolves(where, module, attr):
    assert hasattr(importlib.import_module(module), attr), f"{module}:{attr} ({where})"
