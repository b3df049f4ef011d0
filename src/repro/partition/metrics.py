"""Descriptive statistics of a fragmentation.

These are the quantities the paper's x-axes sweep (``|F|``, ``|Vf|/|V|``,
``|Ef|/|E|``, ``|Fm|``) packaged for reports and tests, plus the
cut-quality figures the cost model (Section 6, Fig 6) is driven by: the
total boundary size ``Σ |Fi.O| + |Fi.I|`` (message volume and watcher-table
size scale with it) and the fragment imbalance that bounds the slowest
site's work.  :class:`PartitionStats` crosses the wire inside the
``stats()`` reply, so keep it a flat frozen dataclass of primitives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.partition.fragmentation import Fragmentation


@dataclass(frozen=True)
class PartitionStats:
    """Summary statistics of a fragmentation."""

    n_fragments: int
    n_nodes: int
    n_edges: int
    n_virtual_nodes: int
    n_crossing_edges: int
    largest_fragment_size: int
    vf_ratio: float
    ef_ratio: float
    balance: float  # largest |Vi| / average |Vi|; 1.0 is perfectly balanced
    #: ``Σ |Fi.O| + |Fi.I|`` -- the boundary size the PT/DS cost model
    #: scales with (0 until computed; see :func:`partition_stats`)
    total_boundary: int = 0
    #: smallest ``|Vi|`` (0 fragments -> 0)
    smallest_fragment_nodes: int = 0
    #: max over fragments of ``| |Vi| - avg | / avg`` (0.0 is perfect)
    imbalance_max: float = 0.0
    #: mean over fragments of ``| |Vi| - avg | / avg``
    imbalance_mean: float = 0.0

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"|F|={self.n_fragments} |G|=({self.n_nodes},{self.n_edges}) "
            f"|Vf|={self.n_virtual_nodes} ({self.vf_ratio:.0%}) "
            f"|Ef|={self.n_crossing_edges} ({self.ef_ratio:.0%}) "
            f"|Fm|={self.largest_fragment_size} balance={self.balance:.2f} "
            f"boundary={self.total_boundary} "
            f"imbalance(max/mean)={self.imbalance_max:.2f}/{self.imbalance_mean:.2f}"
        )


def partition_stats(fragmentation: Fragmentation) -> PartitionStats:
    """Compute :class:`PartitionStats` for ``fragmentation``."""
    sizes: List[int] = [frag.n_local_nodes for frag in fragmentation]
    avg = sum(sizes) / len(sizes) if sizes else 0.0
    deviations = [abs(s - avg) / avg for s in sizes] if avg else []
    return PartitionStats(
        n_fragments=fragmentation.n_fragments,
        n_nodes=fragmentation.graph.n_nodes,
        n_edges=fragmentation.graph.n_edges,
        n_virtual_nodes=fragmentation.n_virtual_nodes,
        n_crossing_edges=fragmentation.n_crossing_edges,
        largest_fragment_size=fragmentation.largest_fragment.size,
        vf_ratio=fragmentation.vf_ratio,
        ef_ratio=fragmentation.ef_ratio,
        balance=(max(sizes) / avg) if avg else 0.0,
        total_boundary=sum(
            len(frag.virtual_nodes) + len(frag.in_nodes) for frag in fragmentation
        ),
        smallest_fragment_nodes=min(sizes) if sizes else 0,
        imbalance_max=max(deviations) if deviations else 0.0,
        imbalance_mean=(sum(deviations) / len(deviations)) if deviations else 0.0,
    )
