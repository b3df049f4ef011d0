"""The load generator: one asyncio thread, open-loop then closed-loop.

Both loops talk to the server through one ``send(conn, op)`` coroutine
function, so the self-test can put a fake server behind them.

*Open loop*: every op has a due time fixed before the phase starts.  The op
is sent at its due time whatever the server is doing, and its latency is
counted **from the due time**, so a stall shows up in the ops that had to
wait behind it.  How late the generator itself sent each op is recorded
next to it; a generator that runs late measures itself, not the server.

*Closed loop*: one caller sends the next op of a fixed list when the reply
to the last one is in; the whole list is replayed, pass after pass, until
the minimum time is up.  Every pass is the same work, so the median of the
per-pass rates is a throughput that one slow stretch cannot drag down.  One
caller, not one per connection: on this two-CPU box two callers keep two
server threads and the generator runnable at once, and the rate they reach
(about half of one caller's on a miss-heavy list -- the threads hand the GIL
back and forth) is the scheduler's doing and moves with its mood.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable, List, Optional, Sequence, Tuple

#: an op that has not been answered after this long counts as failed
OP_TIMEOUT_S = 30.0

Send = Callable[[int, object], Awaitable[object]]


@dataclass
class OpRecord:
    op: object
    conn: int
    due: float
    sent: float = 0.0
    done: float = 0.0
    reply: object = None
    error: Optional[str] = None

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3

    @property
    def late_ms(self) -> float:
        return (self.sent - self.due) * 1e3


@dataclass
class PhaseResult:
    records: List[OpRecord]
    elapsed_s: float
    cpu_s: float
    #: closed loop only: ops per second of each whole pass
    pass_rates: List[float] = field(default_factory=list)

    @property
    def cpu_share(self) -> float:
        return self.cpu_s / self.elapsed_s if self.elapsed_s else 0.0


async def _one(record: OpRecord, send: Send, timeout: float) -> None:
    record.sent = time.perf_counter()
    try:
        record.reply = await asyncio.wait_for(send(record.conn, record.op), timeout)
    except asyncio.TimeoutError:
        record.error = f"no reply within {timeout:g}s"
    except Exception as exc:  # a failed op is a data point, not a crash
        record.error = f"{type(exc).__name__}: {exc}"
    record.done = time.perf_counter()


async def open_loop(
    schedule: Sequence[Tuple[float, int, object]],
    send: Send,
    timeout: float = OP_TIMEOUT_S,
) -> PhaseResult:
    """Send each ``(due offset, conn, op)`` at its due time; never wait for
    a reply before sending the next."""
    cpu0 = time.process_time()
    start = time.perf_counter()
    origin = start + 0.05
    records: List[OpRecord] = []
    tasks: List[asyncio.Task] = []
    for offset, conn, op in schedule:
        due = origin + offset
        # Always yield, even when already late: replies are processed on
        # this same loop, and starving them would deepen the stall.
        await asyncio.sleep(max(0.0, due - time.perf_counter()))
        record = OpRecord(op=op, conn=conn, due=due)
        records.append(record)
        tasks.append(asyncio.create_task(_one(record, send, timeout)))
    if tasks:
        await asyncio.gather(*tasks)
    return PhaseResult(
        records=records,
        elapsed_s=time.perf_counter() - start,
        cpu_s=time.process_time() - cpu0,
    )


async def closed_loop(
    ops: Sequence[Tuple[int, object]],
    send: Send,
    seconds: float,
    timeout: float = OP_TIMEOUT_S,
) -> PhaseResult:
    """Replay the ``(conn, op)`` list in whole passes for about ``seconds``:
    one caller, the next op leaves when the last reply is in.  At least one
    pass; another one is started only if -- going by the last one -- more
    than half of it fits before the deadline, so the phase keeps to its
    share of the run on average."""
    cpu0 = time.process_time()
    start = time.perf_counter()
    records: List[OpRecord] = []
    pass_rates: List[float] = []
    while True:
        pass_start = time.perf_counter()
        for conn, op in ops:
            record = OpRecord(op=op, conn=conn, due=time.perf_counter())
            records.append(record)
            await _one(record, send, timeout)
        now = time.perf_counter()
        pass_rates.append(len(ops) / (now - pass_start))
        if now - start + 0.5 * (now - pass_start) > seconds:
            break
    return PhaseResult(
        records=records,
        elapsed_s=time.perf_counter() - start,
        cpu_s=time.process_time() - cpu0,
        pass_rates=pass_rates,
    )
