"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch one type to handle anything the library signals.
"""

from __future__ import annotations

from typing import Sequence


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """A graph operation received invalid input (unknown node, bad edge...)."""


class PatternError(ReproError):
    """A pattern query is malformed or unsuitable for the chosen algorithm."""


class FragmentationError(ReproError):
    """A fragmentation is inconsistent (overlapping parts, dangling edges...)."""


class ProtocolError(ReproError):
    """A distributed protocol reached an invalid state (lost message, bad round)."""


class WorkloadError(ReproError):
    """A benchmark workload could not be generated with the requested shape."""


class TransportError(ProtocolError):
    """A network transport failed (peer gone, connection closed mid-exchange).

    Raised by the :mod:`repro.net` clients when the byte stream ends or
    breaks (and by injected worker-link faults); distinct from
    :class:`WireFormatError`, which means the peer is alive but speaking
    garbage.
    """


class WireFormatError(ProtocolError):
    """Bytes on the wire do not form a valid :mod:`repro.net` frame.

    Covers a bad magic/version/kind header, an oversized or truncated
    declared length, an undecodable body, and a body whose type does not
    match its frame kind.
    """


class Overloaded(ReproError):
    """A bounded serving resource is full (e.g. the server's subscription
    cap); the request was refused, and may be retried once load drops."""


class MutationBatchError(ReproError):
    """A mutation batch failed partway; the applied prefix stays applied.

    ``applied`` carries the stamped outcomes of the updates that succeeded
    before the failure (their stamps are in effect -- there is no rollback:
    node additions have no inverse in the mutation API), ``failed_op`` the
    (normalized :class:`~repro.graph.mutations.MutationOp`) update that
    raised, and ``__cause__`` the underlying error.
    """

    def __init__(
        self, message: str, applied: Sequence[object], failed_op: object
    ) -> None:
        super().__init__(message)
        self.applied = applied
        self.failed_op = failed_op
