"""Every shipped example runs to a clean exit, as a user would run it.

Each example self-asserts against centralized simulation, so exit 0 means
its audit held.  The two network examples have their own tests, which also
check what they print (``tests/net/test_example.py``,
``tests/net/test_subscription_example.py``).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
EXAMPLES = REPO / "examples"
#: run by their own tests
COVERED = {"network_query_server.py", "subscription_server.py"}


@pytest.mark.parametrize(
    "name", sorted(p.name for p in EXAMPLES.glob("*.py") if p.name not in COVERED)
)
def test_example_runs(name):
    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert proc.returncode == 0, (
        f"{name} failed\nstdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
    )
