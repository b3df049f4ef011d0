"""Simulated distributed runtime.

The paper runs on an EC2 cluster; this package provides the deterministic
substitute (DESIGN.md §2): every fragment is a site, co-located sites form
a host (:class:`~repro.runtime.engine.LocalHost`), and the synchronous-round
:class:`~repro.runtime.engine.SyncEngine` drives the hosts; all
communication flows through a :class:`~repro.runtime.network.Network` that
meters every byte against a declared
:class:`~repro.runtime.costmodel.CostModel`.

Metrics reported per run (:class:`~repro.runtime.metrics.RunMetrics`):

* **PT (response time)** -- the *simulated makespan*: per round, the slowest
  site's measured local compute, plus modeled link latency and transfer time
  for the bytes moved that round.  This is the quantity the paper's PT plots
  show, reproduced under a uniform cost model.
* **DS (data shipment)** -- exact wire bytes of protocol messages.  Following
  the paper's reporting (dGPM ships "0.94K" on a 120M-edge graph), query
  broadcast, control flags and final result collection are metered separately
  and excluded from the headline number.

The shard workers of :mod:`~repro.runtime.mp` run the same host in real OS
processes under the same engine, so both deployments report these metrics
through one code path.
"""

from repro.runtime.costmodel import CostModel
from repro.runtime.messages import Message, MessageKind
from repro.runtime.network import Network
from repro.runtime.metrics import RunMetrics, RunResult
from repro.runtime.engine import LocalHost, SiteProgram, SyncEngine, TickResult

__all__ = [
    "CostModel",
    "LocalHost",
    "Message",
    "MessageKind",
    "Network",
    "RunMetrics",
    "RunResult",
    "SiteProgram",
    "SyncEngine",
    "TickResult",
]
