"""Connected components by pointer-jumping label propagation.

The classic GPU formulation (hooking + shortcutting over an edge list):
every vertex starts as its own label; each round hooks the larger label to
the smaller across every edge and then compresses label chains by pointer
jumping.  Runs on a CSR snapshot (via :func:`repro.api.as_snapshot`, so any
backend, facade, or pre-built snapshot works); treats edges as undirected.

Each hook round charges the device model for the per-edge label
gather/scatter, and each pointer-jump round for the per-vertex chase, so
the full re-label cost is priced against the O(batch) union-find updates
of :class:`repro.stream.IncrementalConnectedComponents` in the ``t11``
stream bench.
"""

from __future__ import annotations

import numpy as np

from repro.api.snapshot import as_snapshot
from repro.gpusim.counters import get_counters

__all__ = ["connected_components"]


def connected_components(graph) -> np.ndarray:
    """Component label per vertex id (label = smallest id in component).

    Isolated ids label themselves.
    """
    snap = as_snapshot(graph)
    n = snap.num_vertices
    labels = np.arange(n, dtype=np.int64)
    if snap.num_edges == 0:
        return labels
    counters = get_counters()
    src, dst = snap.sources(), snap.col_idx
    u = np.concatenate([src, dst])
    v = np.concatenate([dst, src])
    while True:
        # Hook: every vertex adopts the minimum neighbor label.  (u, v) is
        # symmetric, so one scatter over u covers both endpoints of every
        # edge; the charge prices the device kernel's two-sided hook.
        counters.kernel_launches += 1
        counters.bytes_copied += (4 * u.shape[0] + 2 * n) * 8
        proposed = labels.copy()
        np.minimum.at(proposed, u, labels[v])
        # Shortcut: pointer-jump until labels are fixpoints of themselves.
        while True:
            counters.kernel_launches += 1
            counters.bytes_copied += 2 * n * 8
            jumped = proposed[proposed]
            if np.array_equal(jumped, proposed):
                break
            proposed = jumped
        if np.array_equal(proposed, labels):
            return labels
        labels = proposed
