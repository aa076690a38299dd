"""Sorted-adjacency maintenance costs (Table VIII).

List-based structures need sorted adjacency lists for efficient
intersections (triangle counting), and the paper prices two ways of
getting them:

- **CUB-style segmented sort** (``segmented_sort_csr`` /
  ``segmented_sort_adjacency``): one sort kernel per segment.  We execute
  one NumPy sort per adjacency list, which carries a fixed per-segment
  dispatch overhead — the same regime that makes CUB's segmented sort slow
  on graphs with millions of tiny lists (road networks) and fast on graphs
  whose work concentrates in a few huge lists (hollywood-2009).

- **faimGraph's paged sort** (``faimgraph_page_sort``): the list is sorted
  page-by-page with odd-even merge passes — cheap when every list fits in
  a page or two (road networks: faster than CUB by orders of magnitude in
  Table VIII), quadratic-ish for high-degree vertices (soc-orkut:
  catastrophically slower, again matching Table VIII).

Both paths charge ``counters.sorted_elements`` with the elements they push
through comparators, so the modeled costs are comparable even when
wall-clock noise intrudes.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.counters import get_counters
from repro.util.groupby import ragged_arange

__all__ = [
    "segmented_sort_csr",
    "segmented_sort_adjacency",
    "faimgraph_page_sort",
]


def segmented_sort_csr(row_ptr: np.ndarray, col_idx: np.ndarray) -> np.ndarray:
    """Sort each CSR row independently (CUB segmented-sort model).

    Returns a new sorted column array; ``row_ptr`` is unchanged.
    """
    counters = get_counters()
    out = col_idx.copy()
    num_rows = row_ptr.shape[0] - 1
    counters.kernel_launches += 1
    counters.add("sort_segments", int(num_rows))
    for r in range(num_rows):
        lo, hi = int(row_ptr[r]), int(row_ptr[r + 1])
        if hi - lo > 1:
            seg = out[lo:hi]
            seg.sort()
            counters.sorted_elements += hi - lo
        elif hi - lo == 1:
            counters.sorted_elements += 1
    return out


def segmented_sort_adjacency(graph) -> tuple[np.ndarray, np.ndarray]:
    """Materialize a sorted CSR view of any structure exposing
    ``export_coo`` (used by Hornet, which has no native sort)."""
    coo = graph.export_coo()
    row_ptr, col_idx, _ = coo.to_csr()  # the (src, dst) ordering is the CSR gather
    # Charge the segmented sort itself (to_csr's ordering stands in for the
    # gather; the per-segment kernel model is what Table VIII prices).
    col_sorted = segmented_sort_csr(row_ptr, col_idx)
    return row_ptr, col_sorted


def faimgraph_page_sort(graph) -> tuple[np.ndarray, np.ndarray]:
    """faimGraph's paged adjacency sort, modeled at page granularity.

    Each vertex's list is a chain of fixed-size pages.  The sort runs
    odd-even merge passes over adjacent pages: every pass sorts page
    contents and exchanges elements across each adjacent page pair; a list
    of ``p`` pages is fully sorted after ``p`` passes.  Work is therefore
    ``O(d * p)`` per vertex — linear-ish for page-resident lists, quadratic
    in pages for high-degree vertices, reproducing Table VIII's crossover.

    Returns a (row_ptr, col_idx) sorted CSR view.
    """
    counters = get_counters()
    coo = graph.export_coo()
    cap = graph.page_cap
    degs = np.bincount(coo.src, minlength=graph.num_vertices).astype(np.int64)
    # Lay lists out in a (total_pages, cap) matrix padded with +inf.
    pages_per = -(-degs // cap)
    verts = np.flatnonzero(degs)
    total_pages = int(pages_per.sum())
    SENTINEL = np.int64(2**62)
    mat = np.full((max(total_pages, 1), cap), SENTINEL, dtype=np.int64)

    order = np.argsort(coo.src, kind="stable")
    s = coo.src[order]
    d = coo.dst[order]
    pos = ragged_arange(degs[verts])
    page_starts = np.concatenate([[0], np.cumsum(pages_per[verts])[:-1]])
    page_of_entry = page_starts[np.searchsorted(verts, s)] + pos // cap
    mat[page_of_entry, pos % cap] = d

    # Odd-even merge passes.  A pass: sort within pages, then merge each
    # adjacent page pair belonging to the same vertex (alternating parity).
    page_owner = np.repeat(np.searchsorted(verts, verts), pages_per[verts])
    max_pages = int(pages_per.max()) if pages_per.size else 0
    page_rank = ragged_arange(pages_per[verts])
    for pass_idx in range(max(max_pages, 1)):
        mat[:total_pages].sort(axis=1)
        counters.add("faim_sort_elements", total_pages * cap)
        for parity in (0, 1):
            left = np.flatnonzero(
                (page_rank % 2 == parity)
                & (page_rank + 1 < pages_per[verts][page_owner])
            )
            if left.size == 0:
                continue
            right = left + 1
            pair = np.concatenate([mat[left], mat[right]], axis=1)
            pair.sort(axis=1)
            counters.add("faim_sort_elements", int(pair.size))
            mat[left] = pair[:, :cap]
            mat[right] = pair[:, cap:]

    # Read back into CSR.
    row_ptr = np.concatenate([[0], np.cumsum(degs)]).astype(np.int64)
    col_idx = np.empty(int(degs.sum()), dtype=np.int64)
    flat = mat[:total_pages].reshape(-1)
    live = flat < SENTINEL
    col_idx[:] = flat[live]
    return row_ptr, col_idx
