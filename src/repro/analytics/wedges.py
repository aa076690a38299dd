"""The sorted triangle-count kernels: one whole-graph count, one delta probe.

Triangle counting — static (Table VII), dynamic (Table IX), and the
delta-aware :class:`repro.stream.incremental.IncrementalTriangleCount` —
rests on two primitives over a symmetric sorted CSR:

- :func:`oriented_triangles` counts every triangle of the whole graph
  exactly once.  Vertices are ranked by (degree, id), each undirected
  edge keeps its forward orientation (low rank → high rank), and every
  forward edge intersects the smaller of its two forward lists with the
  sorted forward keys (Chiba & Nishizeki 1985; Schank & Wagner 2005).  A
  triangle is found only from its two lowest-ranked corners.
- :func:`closing_wedges` enumerates, for a *given* set of undirected
  edges (u, v), every neighbor w of the smaller-degree endpoint whose
  closing edge (other_endpoint, w) exists — the hits the incremental
  fold credits to the triangles through its delta edges.

Both charge the device model the same ``sorted_probes`` for the same
edges: the model prices the paper's sorted-list kernel, which probes
every wedge of the smaller endpoint, so the static, dynamic and
incremental paths stay priced identically however the host closes them.

Helpers for the *undirected view* of an arbitrary directed edge set ride
along: :func:`canonical_edge_keys` reduces an edge list to unique
``(min << 32) | max`` keys and :func:`symmetric_csr` expands those keys
into the symmetric CSR the kernels probe.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.counters import get_counters
from repro.util.groupby import ragged_arange, sorted_unique

__all__ = [
    "closing_wedges",
    "oriented_triangles",
    "canonical_edge_keys",
    "symmetric_csr",
    "split_keys",
]

_MASK32 = np.int64(0xFFFFFFFF)


def split_keys(comp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unpack composite ``(src << 32) | dst`` keys into (src, dst) arrays."""
    return (comp >> np.int64(32)).astype(np.int64), (comp & _MASK32).astype(np.int64)


def canonical_edge_keys(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Sorted unique canonical keys ``(min(u,v) << 32) | max(u,v)``.

    The undirected view of a directed edge list: self-loops are dropped
    and both orientations collapse onto one key.  No device charge — the
    callers charge the reduction as part of their own sort/merge step.
    """
    u = np.minimum(src, dst)
    v = np.maximum(src, dst)
    keep = u != v
    if not keep.all():
        u, v = u[keep], v[keep]
    return sorted_unique((u << np.int64(32)) | v)


def symmetric_csr(
    canonical: np.ndarray, num_vertices: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand canonical undirected keys into a symmetric sorted CSR.

    Returns ``(row_ptr, col_idx, comp)`` where ``comp`` is the globally
    sorted composite edge list (both orientations) the wedge kernel
    probes, and books the O(2E log 2E) symmetrizing sort to the device
    model — the cold-build cost incremental maintenance via
    :func:`repro.api.snapshot.merge_csr_delta` avoids.
    """
    u, v = split_keys(canonical)
    comp = np.sort(np.concatenate([(u << np.int64(32)) | v, (v << np.int64(32)) | u]))
    counters = get_counters()
    counters.kernel_launches += 1
    counters.sorted_elements += int(comp.shape[0])
    counts = np.bincount((comp >> np.int64(32)), minlength=num_vertices)
    row_ptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return row_ptr, (comp & _MASK32).astype(np.int64), comp


def oriented_triangles(row_ptr: np.ndarray, col_idx: np.ndarray) -> int:
    """Triangles of a symmetric simple CSR with sorted rows, each found once.

    An edge is *forward* from its (degree, id)-lower endpoint, so every
    undirected edge appears once among the forward edges and every vertex
    keeps at most O(sqrt E) forward neighbors.  A triangle ``a < b < c``
    in that order is closed exactly once: on forward edge (a, b), by
    ``c`` in both forward lists.  Each forward edge enumerates the shorter
    forward list as probes ``(other, w)``; the probes are value-sorted and
    every sorted forward key counts its equal run among them, so the
    binary searches walk both arrays in order.

    The device model is charged what :func:`closing_wedges` charges for
    the same canonical edges — one ``sorted_probes`` per neighbor of the
    smaller-degree endpoint, ``sum(min(deg u, deg v))`` — and nothing
    when that sum is 0.
    """
    n = row_ptr.shape[0] - 1
    deg = np.diff(row_ptr)
    src = np.repeat(np.arange(n, dtype=np.int64), deg)
    dst = col_idx.astype(np.int64, copy=False)
    dsrc, ddst = deg[src], deg[dst]
    forward = (dsrc < ddst) | ((dsrc == ddst) & (src < dst))
    charge = int(np.minimum(dsrc[forward], ddst[forward]).sum())
    if charge == 0:
        return 0
    get_counters().add("sorted_probes", charge)
    # CSR order is (src, dst) order, and the mask keeps it: the forward
    # keys are globally sorted, and each forward list is one sorted run.
    fu, fv = src[forward], dst[forward]
    fkeys = (fu << np.int64(32)) | fv
    fdeg = np.bincount(fu, minlength=n)
    fptr = np.concatenate([[0], np.cumsum(fdeg)])
    swap = fdeg[fu] > fdeg[fv]
    small = np.where(swap, fv, fu)
    other = np.where(swap, fu, fv)
    lens = fdeg[small]
    flat = ragged_arange(lens) + np.repeat(fptr[small], lens)
    probe = (np.repeat(other, lens) << np.int64(32)) | fv[flat]
    probe.sort()
    hits = np.searchsorted(probe, fkeys, side="right") - np.searchsorted(probe, fkeys)
    return int(hits.sum())


def _rows(comp: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(start, degree)`` of each id's run of keys in the sorted ``comp``."""
    ids = ids.astype(np.int64, copy=False)
    start = np.searchsorted(comp, ids << np.int64(32))
    return start, np.searchsorted(comp, (ids + 1) << np.int64(32)) - start


def closing_wedges(comp: np.ndarray, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Enumerate the wedges closing each undirected edge (u, v).

    For every edge ``(u[i], v[i])`` the smaller-degree endpoint's full
    adjacency is enumerated and each neighbor ``w`` is binary-searched as
    ``(other_endpoint, w)`` in the globally sorted composite edge list
    ``comp`` — the vectorized sorted-list intersection of the Hornet/
    faimGraph triangle path.  ``comp`` must be the composite keys of a
    *symmetric* simple graph (``symmetric_csr`` produces them); each
    endpoint's row is its run of keys, found by binary search.

    Charges one ``sorted_probes`` kernel counter per probe, the same
    price :func:`oriented_triangles` charges for the same edges.

    Returns ``(edge_index, w)`` arrays naming, for each closed wedge, the
    input edge position it closes and the closing corner vertex.
    """
    u_start, u_deg = _rows(comp, u)
    v_start, v_deg = _rows(comp, v)
    swap = u_deg > v_deg
    big = np.where(swap, u, v)
    lens = np.where(swap, v_deg, u_deg)
    m = int(lens.sum())
    if m == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    flat = ragged_arange(lens) + np.repeat(np.where(swap, v_start, u_start), lens)
    w = comp[flat] & _MASK32
    probe = (np.repeat(big, lens).astype(np.int64) << np.int64(32)) | w
    get_counters().add("sorted_probes", m)
    loc = np.searchsorted(comp, probe)
    safe = np.minimum(loc, comp.shape[0] - 1)
    found = (loc < comp.shape[0]) & (comp[safe] == probe)
    edge_of = np.repeat(np.arange(u.shape[0], dtype=np.int64), lens)
    return edge_of[found], w[found]
