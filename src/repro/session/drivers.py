"""The algorithm registry: the uniform per-query entry points of a session.

An :class:`AlgorithmDriver` is the thin adapter between a resident
:class:`~repro.session.SimulationSession` and one algorithm.  Drivers hold
no per-query state; they hand the protocol the session's cached structures
(the boundary/watcher tables of
:class:`~repro.core.depgraph.DependencyGraphs`, and for ``engine="array"``
the compiled-CSR fragment cache), so serving a query costs only the query,
never the graph.

The four superstep algorithms share one driver class,
:class:`SuperstepDriver`, over their
:class:`~repro.core.protocol.AlgorithmSpec`; the spec is also what the
sharded backend runs -- the coordinator over its worker handles, each
worker to build the site programs of the fragments it owns -- so both
backends read this one registry.  The centralized baselines (Match, disHHK)
ship the graph to one site by design and keep their own small drivers.

Each driver declares the execution ``engines`` it supports; the session
validates the requested engine against this up front, so asking e.g. the
centralized Match baseline for the array engine fails with one clear error
instead of deep in a protocol function.  A spec with no engines, or one
:mod:`~repro.core.arraycompile` does not know, cannot be constructed, and
:data:`DRIVERS` cannot be built with a name registered twice.

``"auto"`` is resolved by the session itself via
:func:`repro.core.dispatch.choose_algorithm`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Protocol, Tuple

from repro.baselines.dishhk import execute_dishhk
from repro.baselines.dmes import DMES
from repro.baselines.match_central import execute_match
from repro.core.config import DgpmConfig
from repro.core.dgpm import DGPM
from repro.core.dgpmd import DGPMD
from repro.core.dgpmt import DGPMT
from repro.core.protocol import AlgorithmSpec, run_protocol
from repro.errors import ReproError
from repro.graph.pattern import Pattern
from repro.runtime.metrics import RunResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.session.session import SimulationSession


class AlgorithmDriver(Protocol):
    """Uniform protocol every session-served algorithm implements."""

    #: registry name (lowercase; what ``SimulationSession.run`` accepts)
    name: str
    #: display name matching ``RunMetrics.algorithm``
    display_name: str
    #: execution engines this driver understands (subset of arraycompile.ENGINES)
    engines: Tuple[str, ...]

    def run(
        self,
        session: "SimulationSession",
        query: Pattern,
        config: DgpmConfig,
        engine: str = "dict",
    ) -> RunResult:
        """Evaluate ``query`` using the session's cached structures."""
        ...


class SuperstepDriver:
    """Serves any superstep algorithm from its :class:`AlgorithmSpec`."""

    def __init__(self, spec: AlgorithmSpec) -> None:
        self.spec = spec
        self.name = spec.name
        self.display_name = spec.display_name
        self.engines = spec.engines

    def run(self, session, query, config, engine="dict"):
        # Providers, not values: a query the precheck refuses must not
        # build the watcher tables, nor a dict-engine one the CSR cache.
        return run_protocol(
            self.spec,
            query,
            session.fragmentation,
            config,
            engine,
            deps=lambda: session.deps,
            compiled=session.compiled_fragments,
        )


class DishhkDriver:
    name = "dishhk"
    display_name = "disHHK"
    engines = ("dict",)

    def run(self, session, query, config, engine="dict"):
        return execute_dishhk(query, session.fragmentation, config)


class MatchDriver:
    name = "match"
    display_name = "Match"
    engines = ("dict",)

    def run(self, session, query, config, engine="dict"):
        return execute_match(query, session.fragmentation, config)


def build_registry(drivers: Iterable[AlgorithmDriver]) -> Dict[str, AlgorithmDriver]:
    """``name -> driver``; a name claimed twice is an error, not an overwrite."""
    registry: Dict[str, AlgorithmDriver] = {}
    for driver in drivers:
        if driver.name in registry:
            raise ReproError(f"algorithm name {driver.name!r} is registered twice")
        registry[driver.name] = driver
    return registry


#: every algorithm a session serves, by name
DRIVERS: Dict[str, AlgorithmDriver] = build_registry(
    [
        SuperstepDriver(DGPM),
        SuperstepDriver(DGPMD),
        SuperstepDriver(DGPMT),
        SuperstepDriver(DMES),
        DishhkDriver(),
        MatchDriver(),
    ]
)
