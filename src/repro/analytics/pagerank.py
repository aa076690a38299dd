"""PageRank by power iteration over a CSR snapshot.

PageRank is a read-only, whole-graph computation, so the idiomatic pattern
for a phase-concurrent dynamic structure is: snapshot the edge set once
(one bulk iterator sweep), then iterate over the flat arrays — exactly how
a Gunrock app would consume the structure between update phases.  The
snapshot is taken through :func:`repro.api.as_snapshot`, so any registered
backend, the ``Graph`` facade, or a pre-built :class:`CSRSnapshot` works.

The sweep kernel is factored out as :func:`power_iteration` so callers can
seed it with a non-uniform start vector — the warm-start path of
:class:`repro.stream.IncrementalPageRank` reuses the previous phase's
ranks and converges in far fewer sweeps.  Each sweep charges the device
model (one gather over E edges plus the rank/dangling updates over |V|),
which is what lets the ``t11`` stream bench price cold recomputes against
warm restarts honestly.
"""

from __future__ import annotations

import numpy as np

from repro.api.backend import _checked_id
from repro.api.snapshot import as_snapshot
from repro.gpusim.counters import get_counters
from repro.util.errors import ValidationError

__all__ = ["pagerank", "power_iteration"]


def _checked_params(damping, tol, max_iters) -> tuple[float, float, int]:
    """The one parameter rule of :func:`pagerank`,
    :class:`repro.stream.IncrementalPageRank` and the scenario runners:
    ``damping`` in (0, 1), ``tol`` > 0 and ``max_iters`` an integer >= 1
    — a zero sweep budget returns the start vector and a NaN ``tol`` never
    converges, neither of which is an answer."""
    if not (0.0 < damping < 1.0):
        raise ValidationError("damping must be in (0, 1)")
    if not tol > 0:  # also rejects NaN
        raise ValidationError("tol must be positive")
    return float(damping), float(tol), _checked_id(max_iters, None, "max_iters", lo=1)


def power_iteration(
    snap,
    rank: np.ndarray,
    damping: float = 0.85,
    tol: float = 1e-8,
    max_iters: int = 100,
) -> tuple[np.ndarray, int]:
    """Iterate PageRank sweeps from ``rank`` until the L1 delta < ``tol``.

    Returns ``(ranks, sweeps)``.  ``rank`` is the start vector (must sum
    to 1 over ``snap.num_vertices`` entries); a uniform start reproduces
    the classic cold computation, a previous solution warm-starts.  Each
    sweep charges the device model for the edge gather/scatter and the
    per-vertex rank update.
    """
    n = snap.num_vertices
    if n == 0:
        return np.empty(0, dtype=np.float64), 0
    counters = get_counters()
    src, dst = snap.sources(), snap.col_idx
    out_deg = snap.out_degrees().astype(np.float64)
    dangling = out_deg == 0

    inv_deg = np.zeros(n, dtype=np.float64)
    np.divide(1.0, out_deg, out=inv_deg, where=~dangling)
    sweeps = 0
    for _ in range(max_iters):
        sweeps += 1
        # One sweep: gather contrib[src] per edge, scatter-add into dst,
        # then the per-vertex teleport/dangling update.
        counters.kernel_launches += 1
        counters.bytes_copied += (2 * dst.shape[0] + 4 * n) * 8
        contrib = rank * inv_deg
        incoming = np.bincount(dst, weights=contrib[src], minlength=n)
        dangling_mass = rank[dangling].sum() / n
        new_rank = (1.0 - damping) / n + damping * (incoming + dangling_mass)
        if np.abs(new_rank - rank).sum() < tol:
            rank = new_rank
            break
        rank = new_rank
    return rank, sweeps


def pagerank(
    graph,
    damping: float = 0.85,
    tol: float = 1e-8,
    max_iters: int = 100,
) -> np.ndarray:
    """PageRank scores per vertex id (dangling mass redistributed).

    Returns a vector over the full vertex-id space; isolated ids receive
    the teleport mass only.  Accepts any backend, facade, or snapshot.
    """
    damping, tol, max_iters = _checked_params(damping, tol, max_iters)
    snap = as_snapshot(graph)
    n = snap.num_vertices
    if n == 0:
        return np.empty(0, dtype=np.float64)
    rank = np.full(n, 1.0 / n, dtype=np.float64)
    rank, _ = power_iteration(snap, rank, damping=damping, tol=tol, max_iters=max_iters)
    return rank
