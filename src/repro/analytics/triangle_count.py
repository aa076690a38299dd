"""Triangle counting — the paper's application study (Sections V-C, VI-C).

Two implementations mirror the paper's comparison:

- :func:`triangle_count_hash` — the hash-table path: for every undirected
  edge (u, v), probe ``edgeExist`` for each neighbor of the lower-degree
  endpoint against the other endpoint's table.  No sorted order needed —
  the structural advantage of our graph — but each probe pays a hash-table
  chain walk (Table VII shows list intersections winning on most static
  datasets, which this reproduces).

- :func:`triangle_count_sorted` — the list path Hornet/faimGraph use:
  adjacency lists must first be *sorted* (the cost Table VIII prices
  separately!), after which each probe is a binary search in the sorted
  edge set.

The hash path finds each triangle three times (once per edge) and
divides; the list path orients edges by degree and finds each triangle
once (:func:`repro.analytics.wedges.oriented_triangles`), while the
device model still prices every wedge of the smaller endpoint.

:func:`dynamic_triangle_count` is the Table IX workload: insert a batch,
re-count, repeat — the list path must re-sort after every batch while the
hash path counts immediately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analytics.wedges import (
    canonical_edge_keys,
    oriented_triangles,
    split_keys,
    symmetric_csr,
)
from repro.util.errors import ValidationError
from repro.util.groupby import group_starts, ragged_arange, sorted_unique, stable_argsort

__all__ = [
    "triangle_count_hash",
    "triangle_count_sorted",
    "triangle_count_csr",
    "undirected_triangles",
    "dynamic_triangle_count",
]


def triangle_count_hash(graph, chunk_size: int = 1 << 22) -> int:
    """Static TC by edgeExist probes (the paper's approach for our graph).

    The graph must hold an undirected (symmetric) edge set.  For each edge
    (u, v) the smaller-degree endpoint's adjacency is enumerated and each
    neighbor w is probed as (v_other, w); matches are triangle corners.
    Probes are issued in chunks to bound peak memory.

    The edge enumeration reads a fresh cached snapshot when one exists
    (zero slab traffic); otherwise it exports the unordered COO directly —
    the hash path never *requires* a sorted view.
    """
    from repro.api.snapshot import cached_snapshot

    snap = cached_snapshot(graph)
    coo = snap.to_coo() if snap is not None else graph.export_coo()
    u, v = split_keys(canonical_edge_keys(coo.src, coo.dst))
    if u.size == 0:
        return 0
    deg = np.bincount(coo.src, minlength=graph.num_vertices)
    # Probe from the smaller endpoint into the larger endpoint's table.
    swap = deg[u] > deg[v]
    small = np.where(swap, v, u)
    big = np.where(swap, u, v)

    # Enumerate the smaller endpoints' adjacency lists edge-by-edge.  The
    # batched iterator returns each vertex's list once; edges sharing a
    # "small" vertex replicate that list, which np.repeat reconstructs.
    order = stable_argsort(small)
    small_s, big_s = small[order], big[order]
    uniq = small_s[group_starts(small_s)]
    owner_pos, nbrs, _ = graph.adjacencies(uniq)
    # Sort the iterator output by owner so each vertex's neighbors are a
    # contiguous run, then replicate runs per referencing edge.
    run_order = stable_argsort(owner_pos)
    nbrs = nbrs[run_order]
    owner_pos = owner_pos[run_order]
    run_len = np.bincount(owner_pos, minlength=uniq.shape[0])
    run_start = np.concatenate([[0], np.cumsum(run_len)[:-1]])

    # For edge e with small vertex s (the c-th edge of s), its probe block
    # is the whole run of s.  Build flattened (probe_src, probe_dst).
    edge_run_len = run_len[np.searchsorted(uniq, small_s)]
    edge_run_start = run_start[np.searchsorted(uniq, small_s)]
    total = int(edge_run_len.sum())
    triangles = 0
    # Chunk over edges to bound the probe buffer.
    edge_offsets = np.concatenate([[0], np.cumsum(edge_run_len)])
    lo_edge = 0
    while lo_edge < small_s.shape[0]:
        hi_edge = lo_edge
        while (
            hi_edge < small_s.shape[0]
            and edge_offsets[hi_edge + 1] - edge_offsets[lo_edge] <= chunk_size
        ):
            hi_edge += 1
        hi_edge = max(hi_edge, lo_edge + 1)
        sel = slice(lo_edge, hi_edge)
        lens = edge_run_len[sel]
        starts = edge_run_start[sel]
        m = int(lens.sum())
        if m:
            flat = ragged_arange(lens) + np.repeat(starts, lens)
            probe_dst = nbrs[flat]
            probe_src = np.repeat(big_s[sel], lens)
            other = np.repeat(small_s[sel], lens)
            valid = probe_dst != probe_src  # w == v contributes nothing
            found = graph.edge_exists(probe_src[valid], probe_dst[valid])
            triangles += int(found.sum())
            del flat, probe_dst, probe_src, other
        lo_edge = hi_edge
    if total == 0:
        return 0
    # Each triangle is found once per edge => three times total.
    if triangles % 3:
        raise ValidationError(
            f"triangle probe count {triangles} not divisible by 3 — "
            "graph is not a symmetric simple graph"
        )
    return triangles // 3


def triangle_count_sorted(row_ptr: np.ndarray, col_idx: np.ndarray) -> int:
    """Static TC over a *sorted* symmetric CSR view (the Hornet/faimGraph path).

    The count is the shared whole-graph kernel
    :func:`repro.analytics.wedges.oriented_triangles` (also the cold
    build of the incremental stream TC): degree-ordered forward lists
    intersected by binary search, each triangle found once.  The device
    model is charged one ``sorted_probes`` per neighbor of each edge's
    smaller-degree endpoint — the paper's sorted-list probe count.
    """
    return oriented_triangles(row_ptr, col_idx)


def undirected_triangles(graph) -> int:
    """Triangle count of the *undirected view* of any graph or snapshot.

    The cold reference kernel for streaming scenarios: directed edge sets
    (the scenario graphs) are first reduced to canonical undirected edges
    and symmetrized — paying the O(2E log 2E) sort the incremental stream
    TC avoids via snapshot delta-merge — then counted by the shared
    whole-graph kernel.  On an already-symmetric simple graph this equals
    :func:`triangle_count_csr`.
    """
    from repro.api.snapshot import as_snapshot

    snap = as_snapshot(graph)
    canonical = canonical_edge_keys(snap.sources(), snap.col_idx)
    if canonical.size == 0:
        return 0
    row_ptr, col_idx, _ = symmetric_csr(canonical, snap.num_vertices)
    return oriented_triangles(row_ptr, col_idx)


def triangle_count_csr(graph) -> int:
    """Static TC over any backend/facade/snapshot via its sorted-CSR view.

    Convenience wrapper pairing :func:`repro.api.as_snapshot` with
    :func:`triangle_count_sorted`; the graph must hold a symmetric edge
    set.
    """
    from repro.api.snapshot import as_snapshot

    snap = as_snapshot(graph)
    return triangle_count_sorted(snap.row_ptr, snap.col_idx)


@dataclass
class DynamicTCStep:
    """One iteration of the Table IX workload; the ``*_model`` fields are
    modeled device seconds from the kernel counters (the paper-shaped
    numbers)."""

    iteration: int
    triangles: int
    insert_model: float = 0.0
    sort_model: float = 0.0
    count_model: float = 0.0

    @property
    def total_model(self) -> float:
        return self.insert_model + self.sort_model + self.count_model


def _timed(fn, *args):
    from repro.gpusim.counters import get_counters
    from repro.gpusim.model import simulated_seconds

    before = get_counters().snapshot()
    out = fn(*args)
    return out, simulated_seconds(get_counters().diff(before))


def dynamic_triangle_count(graph, batches, mode: str) -> list[DynamicTCStep]:
    """Insert each batch then re-count triangles (Table IX).

    Parameters
    ----------
    graph:
        A structure holding an undirected edge set.
    batches:
        Iterable of (src, dst) array pairs; each is inserted symmetrically.
    mode:
        ``"hash"`` — count via edgeExist probes (our structure);
        ``"sorted"`` — re-sort adjacency after each insertion and count via
        sorted intersections (the Hornet path; the re-sort is the
        maintenance cost the paper investigates).
    """
    if mode not in ("hash", "sorted"):
        raise ValidationError("mode must be 'hash' or 'sorted'")
    steps: list[DynamicTCStep] = []
    for i, (bs, bd) in enumerate(batches):
        both_s = np.concatenate([bs, bd])
        both_d = np.concatenate([bd, bs])
        _, ins_model = _timed(graph.insert_edges, both_s, both_d)
        if mode == "sorted":
            row_ptr, col_idx = graph.sorted_adjacency()
            # Model the *incremental* maintenance a sorted list structure
            # pays per batch: each new edge lands in sorted position by
            # binary search + shift within its row, so the work is the
            # touched rows' elements — not a device-wide segmented re-sort
            # (which would overcharge by the per-segment dispatch cost).
            from repro.gpusim.model import default_model

            affected = sorted_unique(both_s)
            deg = np.diff(row_ptr)
            mc = default_model()
            sort_model = float(deg[affected].sum()) * mc.SORT_ELEMENT
            tri, tc_model = _timed(triangle_count_sorted, row_ptr, col_idx)
        else:
            sort_model = 0.0
            tri, tc_model = _timed(triangle_count_hash, graph)
        steps.append(DynamicTCStep(i + 1, tri, ins_model, sort_model, tc_model))
    return steps
