"""k-core membership by non-destructive peeling.

Like k-truss (the paper's in-algorithm mutation example), k-core
repeatedly drops elements below a threshold — here vertices with fewer
than ``k`` neighbours left in the core.  :func:`kcore_membership` peels
flat snapshot arrays instead of the structure, so any backend, facade or
snapshot serves it and the graph is left as it was.
"""

from __future__ import annotations

import numpy as np

from repro.api.backend import _checked_id
from repro.api.snapshot import as_snapshot
from repro.gpusim.counters import get_counters

__all__ = ["kcore_membership"]


def _checked_k(k) -> int:
    """The family's one ``k`` rule: a single integral value >= 1 (a
    fractional ``k`` would peel at a threshold no integer ``k`` names)."""
    return _checked_id(k, None, "k", lo=1)


def kcore_membership(graph, k: int) -> np.ndarray:
    """Boolean k-core membership per vertex (non-destructive peeling).

    The k-core is the maximal vertex set in which every member keeps at
    least ``k`` out-neighbors *within the set* — for the symmetric edge
    sets the facade's undirected mode (or mirrored insertion) stores,
    this is the classical undirected k-core.  The fixpoint is unique
    (removing vertices only lowers the remaining degrees, a monotone
    closure), so peeling order cannot change the answer.

    It never mutates the graph: it peels flat snapshot arrays, charging
    the device model one launch plus the edge/vertex stream per round —
    the cold cost :class:`repro.stream.incremental.IncrementalKCore`
    repairs around.
    Accepts any backend, facade, or snapshot; raises
    :class:`ValidationError` unless ``k`` is an integer >= 1.
    """
    k = _checked_k(k)
    snap = as_snapshot(graph)
    n = snap.num_vertices
    alive = snap.out_degrees() >= k
    src, dst = snap.sources(), snap.col_idx
    counters = get_counters()
    while True:
        counters.kernel_launches += 1
        counters.bytes_copied += int(src.shape[0]) * 16 + n * 8
        live = alive[src] & alive[dst]
        deg = np.bincount(src[live], minlength=n)
        weak = alive & (deg < k)
        if not weak.any():
            break
        alive[weak] = False
        # Compact the edge stream so later rounds scan survivors only.
        src, dst = src[live], dst[live]
    return alive

