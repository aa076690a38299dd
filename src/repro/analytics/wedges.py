"""The shared wedge-closure kernel behind every sorted triangle count.

Triangle counting — static (Table VII), dynamic (Table IX), and the
delta-aware :class:`repro.stream.incremental.IncrementalTriangleCount` —
reduces to one primitive: for a set of undirected edges (u, v), enumerate
every neighbor w of the smaller-degree endpoint and binary-search the
closing edge (other_endpoint, w) in a globally sorted composite edge
list.  This module is that primitive, factored out of
``triangle_count_sorted`` so the static, dynamic, and incremental paths
charge the device model identically (``sorted_probes``) and can never
fork.

Helpers for the *undirected view* of an arbitrary directed edge set ride
along: :func:`canonical_edge_keys` reduces an edge list to unique
``(min << 32) | max`` keys and :func:`symmetric_csr` expands those keys
into the symmetric CSR the kernel probes.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.counters import get_counters
from repro.util.groupby import ragged_arange, sorted_unique

__all__ = ["closing_wedges", "canonical_edge_keys", "symmetric_csr", "split_keys"]

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


def closing_wedges(
    row_ptr: np.ndarray,
    col_idx: np.ndarray,
    comp: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    *,
    return_hits: bool = False,
):
    """Count (or enumerate) the wedges closing each undirected edge (u, v).

    For every edge ``(u[i], v[i])`` the smaller-degree endpoint's full
    adjacency is enumerated and each neighbor ``w`` is binary-searched as
    ``(other_endpoint, w)`` in the globally sorted composite edge list
    ``comp`` — the vectorized sorted-list intersection of the Hornet/
    faimGraph triangle path.  ``row_ptr``/``col_idx`` must describe a
    *symmetric* simple graph and ``comp`` its composite expansion
    (``symmetric_csr`` produces all three).

    Charges one ``sorted_probes`` kernel counter per probe, identically
    for every caller (static Table VII, dynamic Table IX, incremental
    stream TC).

    Returns the total closed-wedge count, or — with ``return_hits`` —
    ``(edge_index, w)`` arrays naming, for each closed wedge, the input
    edge position it closes and the closing corner vertex.
    """
    deg = np.diff(row_ptr)
    if u.shape[0] == 0:
        if return_hits:
            e = np.empty(0, dtype=np.int64)
            return e, e.copy()
        return 0
    swap = deg[u] > deg[v]
    small = np.where(swap, v, u)
    big = np.where(swap, u, v)
    lens = deg[small]
    starts = row_ptr[small]
    m = int(lens.sum())
    if m == 0:
        if return_hits:
            e = np.empty(0, dtype=np.int64)
            return e, e.copy()
        return 0
    flat = ragged_arange(lens) + np.repeat(starts, lens)
    w = col_idx[flat].astype(np.int64)
    probe = (np.repeat(big, lens).astype(np.int64) << np.int64(32)) | w
    get_counters().add("sorted_probes", int(probe.size))
    loc = np.searchsorted(comp, probe)
    safe = np.minimum(loc, comp.shape[0] - 1)
    found = (loc < comp.shape[0]) & (comp[safe] == probe)
    if return_hits:
        edge_of = np.repeat(np.arange(u.shape[0], dtype=np.int64), lens)
        return edge_of[found], w[found]
    return int(found.sum())
