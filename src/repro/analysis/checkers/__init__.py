"""The checker catalogue: one module per enforced invariant.

``ALL_CHECKERS`` is the default set the CLI runs; each checker is stateless
beyond its registry arguments, so the shared instances below are safe to
reuse across runs.  Tests instantiate checkers directly with fixture
registries instead of going through this tuple.
"""

from __future__ import annotations

from typing import Tuple

from repro.analysis.checkers.asserts import BareAssertChecker
from repro.analysis.checkers.base import Checker
from repro.analysis.checkers.determinism import DeterminismChecker
from repro.analysis.checkers.frozen import FrozenCrossingChecker
from repro.analysis.checkers.lazynumpy import LazyNumpyChecker
from repro.analysis.checkers.locks import LockDisciplineChecker
from repro.analysis.checkers.pickles import PickleConfinedChecker
from repro.analysis.checkers.protocol import (
    ProtocolExhaustivenessChecker,
    ShardCommandChecker,
)

ALL_CHECKERS: Tuple[Checker, ...] = (
    LockDisciplineChecker(),
    FrozenCrossingChecker(),
    LazyNumpyChecker(),
    ProtocolExhaustivenessChecker(),
    ShardCommandChecker(),
    PickleConfinedChecker(),
    DeterminismChecker(),
    BareAssertChecker(),
)

__all__ = [
    "ALL_CHECKERS",
    "BareAssertChecker",
    "Checker",
    "DeterminismChecker",
    "FrozenCrossingChecker",
    "LazyNumpyChecker",
    "LockDisciplineChecker",
    "PickleConfinedChecker",
    "ProtocolExhaustivenessChecker",
    "ShardCommandChecker",
]
