"""Heavy-tailed and mesh-like graphs (the Table I social/FEM datasets).

- :func:`powerlaw_graph` models soc-LiveJournal1 / soc-orkut /
  hollywood-2009 / coAuthorsDBLP: mean degree in the tens but maximum
  degree in the thousands (σ ≫ mean).  A Chung-Lu-style generator draws a
  Pareto expected-degree sequence and samples endpoints proportionally —
  vectorized (inverse-CDF sampling), no per-edge Python.

- :func:`mesh_like_graph` models ldoor (a FEM mesh: min 27, max 76, mean
  ≈ 48, σ ≈ 12): a ring lattice with binomially jittered extra links —
  near-regular, exactly the low-variance regime the paper uses ldoor for.
"""

from __future__ import annotations

import numpy as np

from repro.coo import COO
from repro.util.errors import ValidationError
from repro.util.groupby import ragged_arange

__all__ = ["powerlaw_graph", "mesh_like_graph"]


def powerlaw_graph(
    num_vertices: int,
    mean_degree: float = 20.0,
    exponent: float = 2.2,
    seed: int = 0,
) -> COO:
    """Chung-Lu graph with Pareto expected degrees.

    Returns a symmetric, deduplicated COO whose degree distribution has a
    heavy tail (max degree typically 50-500x the mean, matching the
    soc-*/hollywood rows of Table I at scale).
    """
    if num_vertices < 2:
        raise ValidationError("powerlaw graphs need at least 2 vertices")
    if exponent <= 1.0:
        raise ValidationError("exponent must exceed 1")
    rng = np.random.default_rng(seed)
    n = int(num_vertices)
    # Pareto(α-1) expected degrees, rescaled to the target mean and capped
    # so no vertex expects more than ~sqrt(n·mean) partners (keeps the
    # Chung-Lu sampling well-defined).
    weights = rng.pareto(exponent - 1.0, size=n) + 1.0
    weights *= mean_degree / weights.mean()
    cap = np.sqrt(n * mean_degree)
    np.minimum(weights, cap, out=weights)

    m = int(n * mean_degree / 2)
    prob = weights / weights.sum()
    cdf = np.cumsum(prob)
    src = np.searchsorted(cdf, rng.random(m)).astype(np.int64)
    dst = np.searchsorted(cdf, rng.random(m)).astype(np.int64)
    keep = src != dst
    return COO(src[keep], dst[keep], n).symmetrized().deduplicated()


def mesh_like_graph(num_vertices: int, mean_degree: float = 48.0, seed: int = 0) -> COO:
    """Near-regular mesh (ldoor-like): ring lattice + jitter.

    Every vertex connects to its ``k`` nearest ring neighbors with a small
    random perturbation of ``k`` per vertex, giving σ/mean ≈ 0.25 like
    ldoor.
    """
    if num_vertices < 4:
        raise ValidationError("mesh graphs need at least 4 vertices")
    rng = np.random.default_rng(seed)
    n = int(num_vertices)
    half = max(int(mean_degree) // 2, 1)
    # Per-vertex reach jitter: ±25% of the base half-degree.
    reach = np.maximum(
        1, half + rng.integers(-half // 4 - 1, half // 4 + 2, size=n)
    ).astype(np.int64)
    src = np.repeat(np.arange(n, dtype=np.int64), reach)
    step = ragged_arange(reach) + 1
    dst = (src + step) % n
    return COO(src, dst, n).symmetrized().deduplicated()
