"""Network-ingress throughput: localhost TCP vs the in-process thread backend.

The question this series answers: what does putting the serving stack behind
a real socket *cost*?  The same mixed query stream is served two ways over
the same resident 16-fragment graph:

* **in-process** -- a :class:`ConcurrentSessionServer` (thread backend),
  queries submitted directly; the PR-3 measurement and the denominator.
* **TCP** -- an identical, separately-built server fronted by the asyncio
  ingress (:mod:`repro.net.server`); ``n_clients`` OS threads each hold a
  blocking :class:`~repro.net.client.SessionClient` connection and split
  the stream round-robin, so requests genuinely overlap on the wire.

Each mode gets its own freshly-built server (cold result cache, warm graph
structures), so cache hits land symmetrically and the delta is purely
ingress overhead: framing, pickling, syscalls, and the event loop.

Parity is asserted per query against a serial session's relations (stamp 0
-- the stream never mutates), so throughput can never be bought with wrong
answers.  ``benchmarks/bench_net.py`` gates TCP at >= 0.5x in-process on
the |F|=16 stream.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.bench.stream import mixed_query_stream
from repro.core.config import DgpmConfig
from repro.net.client import SessionClient
from repro.net.server import serve_in_thread
from repro.session import ConcurrentSessionServer, SimulationSession


def usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@dataclass
class NetPoint:
    """Measured throughput of both serving paths at one fragment count."""

    n_fragments: int
    n_queries: int
    n_clients: int
    n_workers: int
    inproc_seconds: float
    tcp_seconds: float
    parity: bool

    @property
    def inproc_qps(self) -> float:
        return self.n_queries / self.inproc_seconds if self.inproc_seconds else 0.0

    @property
    def tcp_qps(self) -> float:
        return self.n_queries / self.tcp_seconds if self.tcp_seconds else 0.0

    @property
    def tcp_ratio(self) -> float:
        """TCP throughput as a fraction of in-process throughput."""
        return self.inproc_seconds / self.tcp_seconds if self.tcp_seconds else 0.0


@dataclass
class NetSeries:
    """The sweep over fragment counts, plus the environment that bounds it."""

    n_cpus: int = field(default_factory=usable_cpus)
    points: List[NetPoint] = field(default_factory=list)

    def render(self) -> str:
        header = (
            f"{'|F|':>5} {'queries':>8} {'clients':>8} {'inproc q/s':>11} "
            f"{'tcp q/s':>9} {'tcp/inproc':>11} {'parity':>7}"
        )
        lines = [f"usable CPUs: {self.n_cpus}", header, "-" * len(header)]
        for p in self.points:
            lines.append(
                f"{p.n_fragments:>5} {p.n_queries:>8} {p.n_clients:>8} "
                f"{p.inproc_qps:>11.1f} {p.tcp_qps:>9.1f} "
                f"{p.tcp_ratio:>10.2f}x {'ok' if p.parity else 'FAIL':>7}"
            )
        return "\n".join(lines)


def _serve_stream_over_tcp(
    address, stream, n_clients: int, algorithm: str
) -> List:
    """Split the stream round-robin over ``n_clients`` blocking connections."""
    results: List = [None] * len(stream)
    failures: List[BaseException] = []

    def client_main(cid: int) -> None:
        try:
            with SessionClient(*address, timeout=300.0) as client:
                for i in range(cid, len(stream), n_clients):
                    results[i] = client.run(stream[i], algorithm=algorithm)
        except BaseException as exc:  # surfaced to the caller below
            failures.append(exc)

    threads = [
        threading.Thread(target=client_main, args=(cid,), daemon=True)
        for cid in range(n_clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if failures:
        raise failures[0]
    return results


def measure_net_point(
    fragmentation,
    stream,
    n_clients: int = 4,
    n_workers: int = 4,
    config: Optional[DgpmConfig] = None,
    algorithm: str = "dgpm",
) -> NetPoint:
    """Serve one stream in-process and over localhost TCP; compare.

    Server/pool/ingress startup is excluded from every timing (a
    long-running server pays it once); both modes get an identically
    warmed, cold-cache server.
    """
    config = config or DgpmConfig()

    serial = SimulationSession(fragmentation, config=config).warm().run_many(
        stream, algorithm=algorithm
    )

    with ConcurrentSessionServer(
        fragmentation, backend="thread", n_workers=n_workers, config=config
    ) as server:
        server.session.warm()
        t0 = time.perf_counter()
        inproc = server.run_many(stream, algorithm=algorithm)
        inproc_seconds = time.perf_counter() - t0

    with serve_in_thread(
        fragmentation, backend="thread", n_workers=n_workers, config=config
    ) as srv:
        srv.ingress.server.session.warm()
        t0 = time.perf_counter()
        netted = _serve_stream_over_tcp(srv.address, stream, n_clients, algorithm)
        tcp_seconds = time.perf_counter() - t0

    parity = all(
        s.relation == i.relation == n.relation
        for s, i, n in zip(serial, inproc, netted)
    ) and all(r.stamp == 0 for r in inproc + netted)

    return NetPoint(
        n_fragments=fragmentation.n_fragments,
        n_queries=len(stream),
        n_clients=n_clients,
        n_workers=n_workers,
        inproc_seconds=inproc_seconds,
        tcp_seconds=tcp_seconds,
        parity=parity,
    )


def net_stream_series(
    fragment_counts: Sequence[int] = (16,),
    n_nodes: int = 3000,
    n_edges: int = 15000,
    n_distinct: int = 12,
    repeat: int = 3,
    n_clients: int = 4,
    n_workers: int = 4,
    seed: int = 7,
    config: Optional[DgpmConfig] = None,
) -> NetSeries:
    """Sweep both serving paths over fragment counts on one web graph."""
    from repro import partition
    from repro.graph.generators import web_graph

    graph = web_graph(n_nodes, n_edges, seed=seed)
    stream = mixed_query_stream(graph, n_distinct=n_distinct, repeat=repeat, seed=seed)
    series = NetSeries()
    for n_fragments in fragment_counts:
        frag = partition(graph, n_fragments=n_fragments, seed=seed, vf_ratio=0.25)
        series.points.append(
            measure_net_point(
                frag,
                stream,
                n_clients=n_clients,
                n_workers=n_workers,
                config=config,
            )
        )
    return series
