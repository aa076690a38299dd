"""Workload generators for the Section V evaluation strategy.

The operation benchmarks (Section V-A) insert/delete *random* batches:
"edges are inserted or deleted between existing vertices in the graph;
duplicate edges are allowed within a batch and across the batch and the
graph" — :func:`random_edge_batch` is exactly that.  Vertex-deletion
batches sample existing vertex ids without replacement.

:func:`make_structure` is the uniform factory the benches use to pit the
structures against each other on identical inputs; it delegates to the
:mod:`repro.api` registry, so any registered backend name (or alias, e.g.
the legacy ``"ours"`` for ``"slabhash"``) works.
"""

from __future__ import annotations

import numpy as np

from repro.api import create as _create_backend
from repro.coo import COO

__all__ = [
    "random_edge_batch",
    "random_vertex_batch",
    "make_structure",
    "bulk_built_structure",
]

#: The bench comparison set (paper structures measured head-to-head);
#: :func:`make_structure` additionally accepts every registered backend.
STRUCTURES = ("ours", "hornet", "faimgraph", "gpma")


def random_edge_batch(
    num_vertices: int, batch_size: int, seed: int = 0, weighted: bool = False
):
    """A batch of random edges among existing vertex ids (dups allowed)."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_vertices, size=int(batch_size), dtype=np.int64)
    dst = rng.integers(0, num_vertices, size=int(batch_size), dtype=np.int64)
    if weighted:
        w = rng.integers(0, 2**31 - 1, size=int(batch_size), dtype=np.int64)
        return src, dst, w
    return src, dst, None


def random_vertex_batch(num_vertices: int, batch_size: int, seed: int = 0) -> np.ndarray:
    """Distinct existing vertex ids to delete (without replacement)."""
    rng = np.random.default_rng(seed)
    size = min(int(batch_size), int(num_vertices))
    return rng.choice(num_vertices, size=size, replace=False).astype(np.int64)


def make_structure(name: str, num_vertices: int, weighted: bool = False):
    """Instantiate a dynamic structure by registered backend name."""
    return _create_backend(name, num_vertices, weighted=weighted)


def bulk_built_structure(name: str, coo: COO, weighted: bool = False):
    """A structure pre-loaded with a dataset (the Section V-A setup step)."""
    g = make_structure(name, coo.num_vertices, weighted=weighted)
    g.bulk_build(coo)
    return g
