"""k-core decomposition by iterative peeling.

Like k-truss (the paper's in-algorithm mutation example), k-core
repeatedly deletes elements below a threshold — here vertices of degree
< k — through the structure's *dynamic* vertex-deletion path, so every
peeling round is a real Algorithm 2 batch.

:func:`kcore` peels any backend with the ``vertex_dynamic`` capability
(slab-hash, B-tree, faimGraph) or the ``Graph`` facade over one.  The
slab-hash structure takes a fast path through its maintained counters;
other backends recompute degrees from a snapshot per round.
"""

from __future__ import annotations

import numpy as np

from repro.api.backend import _checked_id
from repro.api.snapshot import as_snapshot, cached_snapshot
from repro.gpusim.counters import get_counters
from repro.util.errors import ValidationError

__all__ = ["kcore", "kcore_membership"]


def _checked_k(k) -> int:
    """The family's one ``k`` rule: a single integral value >= 1 (a
    fractional ``k`` would peel at a threshold no integer ``k`` names)."""
    return _checked_id(k, None, "k", lo=1)


def kcore(graph, k: int, max_rounds: int = 10_000) -> int:
    """Peel the graph (in place) to its k-core; returns vertices deleted.

    The graph must hold a symmetric edge set (undirected mode, or both
    orientations inserted) so vertex deletion maintains reverse edges.
    Only vertices that still have edges are peeled (a degree-0 vertex is
    indistinguishable from an absent id in most backends, and deleting it
    is a no-op on the edge set), so the deleted count is identical across
    backends for identical inputs.
    """
    k = _checked_k(k)
    backend = getattr(graph, "backend", graph)  # unwrap a Graph facade
    caps = getattr(backend, "capabilities", None)
    if caps is not None and not caps.vertex_dynamic:
        raise ValidationError(
            f"kcore requires vertex deletion; backend {type(backend).__name__} "
            "declares capability vertex_dynamic=False"
        )
    deleted = 0
    fast = hasattr(backend, "_dict")  # slab-hash: maintained exact counters
    for _ in range(max_rounds):
        if fast:
            degrees = backend._dict.edge_count
            active = backend._dict.active
            weak = np.flatnonzero(active & (degrees > 0) & (degrees < k))
        else:
            # Degrees only.  A fresh cached snapshot serves them without
            # touching the structure; otherwise bincount over the unordered
            # export — building a sorted snapshot here would pay an
            # O(E log E) sort per peeling round.
            snap = cached_snapshot(backend)
            if snap is not None:
                degrees = snap.out_degrees()
            else:
                coo = backend.export_coo()
                degrees = np.bincount(coo.src, minlength=int(backend.num_vertices))
            weak = np.flatnonzero((degrees > 0) & (degrees < k))
        if weak.size == 0:
            break
        backend.delete_vertices(weak)
        deleted += int(weak.size)
    return deleted


def kcore_membership(graph, k: int) -> np.ndarray:
    """Boolean k-core membership per vertex (non-destructive peeling).

    The k-core is the maximal vertex set in which every member keeps at
    least ``k`` out-neighbors *within the set* — for the symmetric edge
    sets the facade's undirected mode (or mirrored insertion) stores,
    this is the classical undirected k-core.  The fixpoint is unique
    (removing vertices only lowers the remaining degrees, a monotone
    closure), so peeling order cannot change the answer.

    Unlike :func:`kcore` this never mutates the graph: it peels flat
    snapshot arrays, charging the device model one launch plus the edge/
    vertex stream per round — the cold cost
    :class:`repro.stream.incremental.IncrementalKCore` repairs around.
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

