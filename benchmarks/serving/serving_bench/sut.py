"""Start, measure and reliably stop the server subprocess."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent.parent
SRC = HERE.parent.parent / "src"

#: every launched server, so one atexit/signal hook can reap them all
_LIVE: List["ServerUnderTest"] = []


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    parts = [str(SRC), str(HERE)]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    # str hashes are salted per process, and with them the iteration order
    # of every set of labels or query-node names the server builds: one and
    # the same request stream ran 7 % faster or slower from start to start.
    # One fixed salt measures one fixed point of that spread every time.
    env["PYTHONHASHSEED"] = "0"
    return env


class ServerUnderTest:
    """One server subprocess in its own process group.

    The group is what gets killed: shard workers are the server's children
    and must not outlive a crashed or interrupted run.
    """

    def __init__(self, server_args: dict, ready_timeout: float = 60.0) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "serving_bench.server_proc", json.dumps(server_args)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=child_env(),
            cwd=str(HERE),
            start_new_session=True,
        )
        _LIVE.append(self)
        try:
            line = self._read_ready(ready_timeout)
        except BaseException:
            self.kill()
            raise
        self.info = json.loads(line)
        self.address = (self.info["host"], self.info["port"])

    def _read_ready(self, timeout: float) -> str:
        import select

        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError("server under test did not become ready in time")
            ready, _, _ = select.select([self.proc.stdout], [], [], min(remaining, 0.5))
            if ready:
                line = self.proc.stdout.readline()
                if line:
                    return line.decode("utf-8")
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server under test exited with code {self.proc.returncode} "
                    "before becoming ready"
                )

    # ------------------------------------------------------------------
    def tree_pids(self) -> List[int]:
        """The server and every live descendant (shard workers)."""
        children: Dict[int, List[int]] = {}
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat", "rb") as fh:
                    stat = fh.read().decode("latin-1")
            except OSError:
                continue
            # the command name may hold spaces and parentheses: split after it
            fields = stat[stat.rindex(")") + 2:].split()
            children.setdefault(int(fields[1]), []).append(int(entry))
        pids, stack = [], [self.proc.pid]
        while stack:
            pid = stack.pop()
            pids.append(pid)
            stack.extend(children.get(pid, []))
        return pids

    def peak_rss_mb(self) -> Optional[float]:
        """Sum of VmHWM over the process tree, in MB; None if unreadable."""
        total_kb = 0
        for pid in self.tree_pids():
            try:
                with open(f"/proc/{pid}/status") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
                            break
            except OSError:
                continue
        return total_kb / 1024.0 if total_kb else None

    # ------------------------------------------------------------------
    def stop(self, timeout: float = 20.0) -> None:
        """Ask the server to drain and exit; kill the group if it will not."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=timeout)
            except (OSError, subprocess.TimeoutExpired):
                pass
        self.kill()

    def kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        try:
            self.proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            pass
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass
        if self in _LIVE:
            _LIVE.remove(self)


def kill_all() -> None:
    for server in list(_LIVE):
        server.kill()


def install_reaper() -> None:
    """Kill every server process tree on any way out of this process."""
    import atexit

    atexit.register(kill_all)

    def on_signal(signum, frame):
        kill_all()
        sys.exit(128 + signum)

    for signum in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, on_signal)
