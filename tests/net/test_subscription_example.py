"""The shipped standing-query example must actually run.

``examples/subscription_server.py`` audits every PUSH delta against a
replay-at-stamp oracle internally (a delta at every ring-changing stamp,
none at unchanged ones, each folded view equal to a from-scratch
simulation); this test runs it as a real subprocess, the way a user would.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]


def test_subscription_example_runs_clean():
    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, str(REPO / "examples" / "subscription_server.py")],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert proc.returncode == 0, (
        f"example failed\nstdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
    )
    assert "analyst subscribed" in proc.stdout
    assert "audited all" in proc.stdout
    assert "none spurious" in proc.stdout
    assert "server closed cleanly" in proc.stdout
