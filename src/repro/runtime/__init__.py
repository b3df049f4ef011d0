"""Simulated distributed runtime.

The paper runs on an EC2 cluster; this package provides the deterministic
substitute (DESIGN.md §2): every fragment is held by a
:class:`~repro.runtime.engine.Site` driven by a synchronous-round
:class:`~repro.runtime.engine.SyncEngine`; all communication flows through a
:class:`~repro.runtime.network.Network` that meters every byte against a
declared :class:`~repro.runtime.costmodel.CostModel`.

Metrics reported per run (:class:`~repro.runtime.metrics.RunMetrics`):

* **PT (response time)** -- the *simulated makespan*: per round, the slowest
  site's measured local compute, plus modeled link latency and transfer time
  for the bytes moved that round.  This is the quantity the paper's PT plots
  show, reproduced under a uniform cost model.
* **DS (data shipment)** -- exact wire bytes of protocol messages.  Following
  the paper's reporting (dGPM ships "0.94K" on a 120M-edge graph), query
  broadcast, control flags and final result collection are metered separately
  and excluded from the headline number.

The shard workers of :mod:`~repro.runtime.mp` run the same site programs in
real OS processes, so the simulator's accounting can be checked against them.
"""

from repro.runtime.costmodel import CostModel
from repro.runtime.messages import Message, MessageKind
from repro.runtime.network import Network
from repro.runtime.metrics import RunMetrics, RunResult
from repro.runtime.engine import SiteProgram, SyncEngine, TickResult

__all__ = [
    "CostModel",
    "Message",
    "MessageKind",
    "Network",
    "RunMetrics",
    "RunResult",
    "SiteProgram",
    "SyncEngine",
    "TickResult",
]
