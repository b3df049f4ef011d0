"""Algorithm drivers: the uniform per-query entry points of a session.

An :class:`AlgorithmDriver` is the thin adapter between a resident
:class:`~repro.session.SimulationSession` and one algorithm's ``execute_*``
protocol function.  Drivers hold no per-query state; they pull the session's
cached immutable structures (the boundary/watcher tables of
:class:`~repro.core.depgraph.DependencyGraphs`, and for ``engine="array"``
the compiled-CSR fragment cache) and hand them to the protocol, so serving a
query costs only the query, never the graph.

Each driver declares the execution ``engines`` it supports; the session
validates the requested engine against this up front, so asking e.g. the
centralized Match baseline for the array engine fails with one clear error
instead of deep in a protocol function.

The registry :data:`DRIVERS` maps the session's algorithm names to driver
instances; ``"auto"`` is resolved by the session itself via
:func:`repro.core.dispatch.choose_algorithm`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Protocol, Tuple

from repro.baselines.dishhk import execute_dishhk
from repro.baselines.dmes import execute_dmes
from repro.baselines.match_central import execute_match
from repro.core.config import DgpmConfig
from repro.core.dgpm import execute_dgpm
from repro.core.dgpmd import execute_dgpmd
from repro.core.dgpmt import execute_dgpmt
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


def _compiled_for(session: "SimulationSession", engine: str):
    """The session's compiled-CSR cache when the array engine is in play."""
    return session.compiled_fragments() if engine == "array" else None


class DgpmDriver:
    name = "dgpm"
    display_name = "dGPM"
    engines = ("dict", "array")

    def run(self, session, query, config, engine="dict"):
        return execute_dgpm(
            query,
            session.fragmentation,
            config,
            deps=session.deps,
            engine=engine,
            compiled=_compiled_for(session, engine),
        )


class DgpmdDriver:
    name = "dgpmd"
    display_name = "dGPMd"
    engines = ("dict", "array")

    def run(self, session, query, config, engine="dict"):
        # A non-DAG query either short-circuits (DAG data graph) or raises
        # inside execute_dgpmd before deps are needed -- don't build them.
        deps = session.deps if query.is_dag() else None
        return execute_dgpmd(
            query,
            session.fragmentation,
            config,
            deps=deps,
            engine=engine,
            compiled=_compiled_for(session, engine),
        )


class DgpmtDriver:
    name = "dgpmt"
    display_name = "dGPMt"
    engines = ("dict", "array")

    def run(self, session, query, config, engine="dict"):
        return execute_dgpmt(
            query,
            session.fragmentation,
            config,
            engine=engine,
            compiled=_compiled_for(session, engine),
        )


class DmesDriver:
    name = "dmes"
    display_name = "dMes"
    engines = ("dict",)

    def run(self, session, query, config, engine="dict"):
        return execute_dmes(query, session.fragmentation, config, deps=session.deps)


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


#: name -> driver instance; the session copies this at construction so callers
#: can register custom drivers per session without global effects.
DRIVERS: Dict[str, AlgorithmDriver] = {
    driver.name: driver
    for driver in (
        DgpmDriver(),
        DgpmdDriver(),
        DgpmtDriver(),
        DmesDriver(),
        DishhkDriver(),
        MatchDriver(),
    )
}
