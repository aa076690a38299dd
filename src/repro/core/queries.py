"""Query operations (Section IV-B): adjacency iteration and export.

All queries are read-only chain walks; none mutate the structure, keeping
the phase-concurrent contract trivially satisfied.  ``edgeExist`` and the
batched iterator are the arena's ``search`` / ``iterate`` themselves,
called from :class:`repro.core.DynamicGraph`'s hooks.
"""

from __future__ import annotations

import numpy as np

from repro.coo import COO

__all__ = ["neighbors", "export_coo"]


def neighbors(graph, vertex: int) -> tuple[np.ndarray, np.ndarray]:
    """One vertex's adjacency as ``(destinations, weights)`` (unordered)."""
    _, dst, w = graph._dict.arena.iterate(np.array([vertex], dtype=np.int64))
    return dst, w


def export_coo(graph) -> COO:
    """Snapshot the live edge set as a :class:`repro.coo.COO`."""
    existing = np.flatnonzero(graph._dict.arena.table_base != -1)
    owners, dst, w = graph._dict.arena.iterate(existing)
    src = existing[owners]
    return COO(
        src,
        dst,
        graph.num_vertices,
        weights=w if graph.weighted else None,
    )
