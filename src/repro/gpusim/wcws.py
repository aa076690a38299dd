"""Warp-Cooperative Work Sharing (WCWS) reference engine.

This module executes the paper's Algorithm 1 (edge insertion) and its edge
deletion variant *literally*: the batch is cut into 32-task warps, each warp
builds a work queue with ``ballot``, elects the next task with
``find_first_set``, broadcasts the source vertex with ``shuffle``, coalesces
all same-source lanes into one grouped hash-table call, and counts genuine
additions with ``popc`` of a success ballot.

It is deliberately slow (per-lane Python) and exists to be an executable
specification: the vectorized kernels in :mod:`repro.slabhash` and
:mod:`repro.core` must produce identical final states and identical
per-vertex edge-count updates.  Tests cross-check the two on small inputs.

The engine is structure-agnostic: it drives any object implementing the
small :class:`WCWSTarget` protocol, so the same reference can validate both
the slab-hash graph and baseline structures.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.gpusim.warp import WARP_SIZE, ballot, find_first_set, popc, shuffle_idx

__all__ = [
    "insert_edges_reference",
    "delete_edges_reference",
    "delete_vertices_reference",
]


class WCWSTarget(Protocol):
    """Minimal scalar interface the WCWS engine drives.

    Implementations perform *one* operation at a time; the engine supplies
    the warp-level scheduling around them.
    """

    def reference_replace(self, src: int, dst: int, weight: int) -> bool:
        """Insert-or-replace ``(src -> dst, weight)``; True iff newly added."""
        ...

    def reference_delete(self, src: int, dst: int) -> bool:
        """Delete ``(src -> dst)``; True iff it existed."""
        ...

    def reference_increment_edge_count(self, src: int, amount: int) -> None:
        """Adjust the exact per-vertex edge counter."""
        ...


def _pad_to_warp(arr: np.ndarray, pad_value) -> np.ndarray:
    """Pad a partial final warp up to 32 lanes with inactive tasks."""
    rem = (-len(arr)) % WARP_SIZE
    if rem == 0:
        return arr
    return np.concatenate([arr, np.full(rem, pad_value, dtype=arr.dtype)])


def insert_edges_reference(
    target: WCWSTarget,
    src: np.ndarray,
    dst: np.ndarray,
    weights: np.ndarray | None = None,
) -> int:
    """Algorithm 1, executed lane-by-lane.  Returns total edges added.

    Self-loops are skipped (line 3).  Lanes sharing the elected source are
    grouped and executed as one coalesced call (lines 7-8); the group's
    successful additions are counted together and credited to the source's
    edge count in a single increment (lines 9-10), exactly as ``popc`` over
    a success ballot would on hardware.
    """
    n = len(src)
    if weights is None:
        weights = np.zeros(n, dtype=np.int64)
    src = _pad_to_warp(np.asarray(src, dtype=np.int64), 0)
    dst_p = _pad_to_warp(np.asarray(dst, dtype=np.int64), 0)
    w_p = _pad_to_warp(np.asarray(weights, dtype=np.int64), 0)
    valid = _pad_to_warp(np.ones(n, dtype=bool), False)

    total_added = 0
    for base in range(0, len(src), WARP_SIZE):
        ls = src[base : base + WARP_SIZE]
        ld = dst_p[base : base + WARP_SIZE]
        lw = w_p[base : base + WARP_SIZE]
        # Line 3: no self-edges; padding lanes are never to_insert.
        to_insert = valid[base : base + WARP_SIZE] & (ls != ld)
        # Lines 4-14: drain the warp work queue.
        while True:
            work_queue = ballot(to_insert)
            if work_queue == 0:
                break
            current_lane = find_first_set(work_queue)
            current_src = shuffle_idx(ls, current_lane)
            same_src = (ls == current_src) & to_insert
            success = np.zeros(WARP_SIZE, dtype=bool)
            # Line 8: one coalesced replace call for the whole group.  The
            # group executes in lane order, which realizes a definite
            # serialization of intra-warp duplicates (later lane wins).
            for lane in np.flatnonzero(same_src):
                success[lane] = target.reference_replace(
                    int(ls[lane]), int(ld[lane]), int(lw[lane])
                )
            added = popc(ballot(success))
            target.reference_increment_edge_count(int(current_src[0]), added)
            total_added += added
            to_insert &= ~same_src
    return total_added


def delete_edges_reference(target: WCWSTarget, src: np.ndarray, dst: np.ndarray) -> int:
    """Edge deletion with the same WCWS scheduling; returns edges removed.

    Differs from insertion per Section IV-C2: the grouped call is a delete,
    and the success ballot *decrements* the source's edge count.
    """
    n = len(src)
    src = _pad_to_warp(np.asarray(src, dtype=np.int64), 0)
    dst_p = _pad_to_warp(np.asarray(dst, dtype=np.int64), 0)
    valid = _pad_to_warp(np.ones(n, dtype=bool), False)

    total_removed = 0
    for base in range(0, len(src), WARP_SIZE):
        ls = src[base : base + WARP_SIZE]
        ld = dst_p[base : base + WARP_SIZE]
        to_delete = valid[base : base + WARP_SIZE].copy()
        while True:
            work_queue = ballot(to_delete)
            if work_queue == 0:
                break
            current_lane = find_first_set(work_queue)
            current_src = shuffle_idx(ls, current_lane)
            same_src = (ls == current_src) & to_delete
            success = np.zeros(WARP_SIZE, dtype=bool)
            for lane in np.flatnonzero(same_src):
                success[lane] = target.reference_delete(int(ls[lane]), int(ld[lane]))
            removed = popc(ballot(success))
            target.reference_increment_edge_count(int(current_src[0]), -removed)
            total_removed += removed
            to_delete &= ~same_src
    return total_removed


def delete_vertices_reference(graph, vertex_ids: np.ndarray) -> int:
    """Algorithm 2, executed warp-by-warp for an undirected graph.

    Follows the pseudocode line-for-line: a global atomic counter vends
    one doomed vertex per warp acquisition (lines 2-9); the warp reads the
    vertex (line 10), iterates its adjacency slab-by-slab with 32 lanes
    (lines 11-13), and for each lane's destination issues a coalesced
    delete of the doomed vertex from that destination's table (lines
    14-17); non-base slabs are freed (lines 18-20) and the edge count is
    zeroed (line 22).  Returns total edges removed (both directions).

    ``graph`` must be a :class:`repro.core.DynamicGraph`; this reference
    reaches into its arena exactly the way the device kernel reaches into
    raw memory, and exists to certify the vectorized
    :func:`repro.core.vertex_ops.delete_vertices`.
    """
    from repro.gpusim.counters import get_counters

    vertices = np.unique(np.asarray(vertex_ids, dtype=np.int64))
    vd = graph._dict
    arena = vd.arena
    counters = get_counters()

    removed_total = 0
    queue_counter = 0  # the atomicAdd-backed work queue (lines 2-6)
    while True:
        counters.atomics += 1  # laneId == 0 performs atomicAdd(queue, 1)
        queue_id = queue_counter
        queue_counter += 1
        if queue_id >= vertices.shape[0]:  # line 7-9: kernel exit
            break
        warp_vertex = int(vertices[queue_id])  # line 10

        # Lines 11-17: the edge iterator yields up to 32 destinations per
        # step; each lane's destination is broadcast and the doomed vertex
        # is deleted from that destination's adjacency table.
        dsts, _ = graph.neighbors(warp_vertex)
        own_edges = int(dsts.size)
        for base in range(0, own_edges, WARP_SIZE):
            lane_dst = dsts[base : base + WARP_SIZE]
            for lane in range(lane_dst.shape[0]):
                current_dst = int(lane_dst[lane])  # shuffle broadcast
                if arena.reference_delete_one(current_dst, warp_vertex):
                    vd.increment_edge_count(current_dst, -1)
                    removed_total += 1

        # Lines 18-20: free dynamically allocated (non-base) slabs; line
        # 22: zero the count.  clear_tables performs exactly that.
        doomed = np.array([warp_vertex], dtype=np.int64)
        arena.clear_tables(doomed)
        removed_total += vd.zero_edge_counts(doomed)
    return removed_total
