"""A Hornet-like dynamic graph (Busato et al., HPEC 2018; Section II-B).

Representation: each vertex's adjacency lives in a single *block* whose
capacity is the smallest power of two holding the list.  Block arrays are
managed by a host-side manager (real Hornet tracks free/used blocks with
B-trees; we keep per-class free lists and charge the same allocator
traffic).  When an insertion overflows a block, the whole adjacency is
copied into the next power-of-two block — the cost that makes Hornet's
incremental build slow on low-variance graphs (Table VI analysis).

Uniqueness: Hornet forbids duplicate edges and enforces this with
*sort-based duplicate checking* on every insertion (the paper measures 45%
of Hornet's bulk-insert time in dedup alone).  We reproduce that: every
insert sorts batch ∪ affected adjacencies and charges
``counters.sorted_elements`` accordingly.

Adjacency order: not maintained (the paper's tests "do not require that
either faimGraph or Hornet maintain a sorted adjacency list");
:meth:`HornetGraph.sorted_adjacency` provides the explicit segmented sort
whose cost Table VIII prices.

Vertex deletion is intentionally absent ("Hornet does not implement vertex
deletion", Section VI-A3).
"""

from __future__ import annotations

import numpy as np

from repro.api.backend import GraphBackend, scan_edge_weights
from repro.api.capabilities import Capabilities
from repro.coo import COO
from repro.gpusim.counters import get_counters
from repro.gpusim.memory import GrowableArray
from repro.util.errors import ValidationError
from repro.util.groupby import (
    last_occurrence_mask,
    last_occurrence_order,
    ragged_arange,
    rank_within_group,
)

__all__ = ["HornetGraph"]


def _next_pow2(x: np.ndarray) -> np.ndarray:
    """Smallest power of two >= x (elementwise, x >= 1)."""
    x = np.maximum(x, 1).astype(np.int64)
    return np.int64(1) << np.ceil(np.log2(x)).astype(np.int64)


class HornetGraph(GraphBackend):
    """Hornet-like block-per-vertex dynamic graph.

    Parameters
    ----------
    num_vertices:
        Vertex-id capacity (Hornet also over-allocates vertex arrays).
    weighted:
        Store a weight per edge.
    """

    capabilities = Capabilities(weighted=True)

    def __init__(self, num_vertices: int, weighted: bool = True) -> None:
        if num_vertices < 1:
            raise ValidationError("num_vertices must be positive")
        self.num_vertices = int(num_vertices)
        self.weighted = bool(weighted)
        self._deg = np.zeros(self.num_vertices, dtype=np.int64)
        self.block_off = np.full(self.num_vertices, -1, dtype=np.int64)
        self.block_cap = np.zeros(self.num_vertices, dtype=np.int64)
        self._dst = GrowableArray(1024, np.int64, fill_value=-1)
        self._wt = GrowableArray(1024, np.int64, fill_value=0) if weighted else None
        self._pool_used = 0
        # Host-managed per-size-class free lists (real Hornet: B-trees).
        self._free: dict[int, list[int]] = {}

    # -- block manager ---------------------------------------------------------

    def _alloc_blocks(self, caps: np.ndarray) -> np.ndarray:
        """Allocate one block per requested capacity (each a power of two)."""
        counters = get_counters()
        offs = np.empty(caps.shape[0], dtype=np.int64)
        for cls in np.unique(caps):
            idx = np.flatnonzero(caps == cls)
            free = self._free.get(int(cls), [])
            take = min(len(free), idx.size)
            for j in range(take):
                offs[idx[j]] = free.pop()
            # CPU-side block-manager work (B-tree lookups in real Hornet);
            # this is the dominant Table V cost on high-|V| datasets.
            counters.add("hornet_blocks", int(idx.size))
            remaining = idx.size - take
            if remaining:
                start = self._pool_used
                self._pool_used += int(cls) * remaining
                self._dst.ensure(self._pool_used)
                if self._wt is not None:
                    self._wt.ensure(self._pool_used)
                offs[idx[take:]] = start + np.arange(remaining, dtype=np.int64) * int(cls)
        return offs

    def _free_block(self, off: int, cap: int) -> None:
        self._free.setdefault(int(cap), []).append(int(off))
        get_counters().atomics += 1

    @property
    def allocated_bytes(self) -> int:
        """Bytes in live blocks (8B per slot, plus weights when present)."""
        per_slot = 8 * (2 if self.weighted else 1)
        return int(self.block_cap.sum()) * per_slot

    # -- helpers ------------------------------------------------------------------

    def _gather_adjacency(self, vertices: np.ndarray):
        """Concatenate the adjacency slots of ``vertices``.

        Returns ``(owner_pos, dsts, positions)`` where positions are global
        pool indices (for scatter-back) and owner_pos indexes ``vertices``.
        """
        degs = self._deg[vertices]
        total = int(degs.sum())
        if total == 0:
            e = np.empty(0, dtype=np.int64)
            return e, e.copy(), e.copy()
        owner = np.repeat(np.arange(vertices.shape[0], dtype=np.int64), degs)
        starts = np.repeat(self.block_off[vertices], degs)
        pos = starts + ragged_arange(degs)
        return owner, self._dst.data[pos], pos

    def _composite(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        return (src.astype(np.int64) << 32) | dst.astype(np.int64)

    # -- construction ---------------------------------------------------------------

    def _bulk_build(self, src, dst, weights) -> int:
        """One-shot build: global sort + dedup, then block placement.

        This is the Table V workload; the whole COO goes through a sort
        (Hornet's documented dedup step) before any block is written.
        """
        counters = get_counters()
        counters.kernel_launches += 1
        counters.add("host_syncs", 1)
        # Build-time sort plus the sort-based duplicate check (the paper
        # measures the dedup pass alone at 45% of Hornet's insertion time).
        counters.sorted_elements += 2 * int(src.size)
        keep = last_occurrence_order(self._composite(src, dst))  # last wins
        s, d = src[keep], dst[keep]

        degs = np.bincount(s, minlength=self.num_vertices).astype(np.int64)
        verts = np.flatnonzero(degs)
        caps = _next_pow2(degs[verts])
        offs = self._alloc_blocks(caps)
        self.block_off[verts] = offs
        self.block_cap[verts] = caps
        self._deg[:] = degs

        pos = self.block_off[s] + rank_within_group(s)
        self._dst.data[pos] = d
        if self._wt is not None:
            self._wt.data[pos] = 0 if weights is None else weights[keep]
        counters.bytes_copied += int(s.size) * 8
        return int(s.size)

    # -- updates ----------------------------------------------------------------------

    def _insert_edges(self, src, dst, weights) -> int:
        """Batched insertion with sort-based deduplication.

        Returns the number of genuinely new edges.  Existing duplicates
        update the weight (matching the replace semantics the paper's own
        structure uses, so comparisons are apples-to-apples).
        """
        counters = get_counters()
        counters.kernel_launches += 1
        counters.add("host_syncs", 1)
        w = weights if weights is not None else np.zeros(src.shape[0], dtype=np.int64)

        # (1) intra-batch dedup: sort the batch (charged).
        comp = self._composite(src, dst)
        counters.sorted_elements += int(comp.size)
        keep = last_occurrence_mask(comp)
        src, dst, w, comp = src[keep], dst[keep], w[keep], comp[keep]

        # (2) cross dedup: sort batch ∪ affected adjacencies (charged) and
        # binary-search each batch edge in the existing set.
        verts = np.unique(src)
        owner, exist_dst, exist_pos = self._gather_adjacency(verts)
        exist_comp = self._composite(verts[owner], exist_dst)
        counters.sorted_elements += int(exist_comp.size) + int(comp.size)
        exist_sorted_order = np.argsort(exist_comp)
        exist_sorted = exist_comp[exist_sorted_order]
        if exist_sorted.size:
            loc = np.searchsorted(exist_sorted, comp)
            safe = np.minimum(loc, exist_sorted.shape[0] - 1)
            present = (loc < exist_sorted.shape[0]) & (exist_sorted[safe] == comp)
        else:
            loc = np.zeros(comp.shape[0], dtype=np.int64)
            present = np.zeros(comp.shape[0], dtype=bool)

        # Weight replacement for already-present edges.
        if self._wt is not None and present.any():
            hit_pos = exist_pos[exist_sorted_order[loc[present]]]
            self._wt.data[hit_pos] = w[present]

        src, dst, w = src[~present], dst[~present], w[~present]
        if src.size == 0:
            return 0

        # (3) grow blocks where the new degree overflows capacity.
        order = np.argsort(src, kind="stable")
        src, dst, w = src[order], dst[order], w[order]
        add_per_vertex = np.bincount(src, minlength=self.num_vertices)
        touched = np.flatnonzero(add_per_vertex)
        new_deg = self._deg[touched] + add_per_vertex[touched]
        need_grow = new_deg > self.block_cap[touched]
        if need_grow.any():
            grow_v = touched[need_grow]
            new_caps = _next_pow2(new_deg[need_grow])
            new_offs = self._alloc_blocks(new_caps)
            # Copy old adjacency into the new blocks ("the entire adjacency
            # list must be copied", Section VI-B2) and release old blocks.
            for v, noff in zip(grow_v.tolist(), new_offs.tolist()):
                deg = int(self._deg[v])
                ooff, ocap = int(self.block_off[v]), int(self.block_cap[v])
                if deg:
                    self._dst.data[noff : noff + deg] = self._dst.data[ooff : ooff + deg]
                    if self._wt is not None:
                        self._wt.data[noff : noff + deg] = self._wt.data[ooff : ooff + deg]
                    counters.bytes_copied += deg * 8
                if ooff != -1 and ocap:
                    self._free_block(ooff, ocap)
            self.block_off[grow_v] = new_offs
            self.block_cap[grow_v] = new_caps

        # (4) append at each vertex's tail.
        rank = rank_within_group(src)
        pos = self.block_off[src] + self._deg[src] + rank
        self._dst.data[pos] = dst
        if self._wt is not None:
            self._wt.data[pos] = w
        self._deg += add_per_vertex
        return int(src.size)

    def _delete_edges(self, src, dst) -> int:
        """Batched deletion by mark-and-compact; returns edges removed.

        Deletion needs no cross-duplicate sort (the paper notes deletion
        "is a simple process"); matching is a scan of the affected
        adjacencies, then each list is compacted in place.
        """
        counters = get_counters()
        counters.kernel_launches += 1
        counters.add("host_syncs", 1)

        comp = np.unique(self._composite(src, dst))
        verts = np.unique(src)
        owner, exist_dst, exist_pos = self._gather_adjacency(verts)
        counters.scanned_elements += int(exist_dst.size)
        exist_comp = self._composite(verts[owner], exist_dst)
        doomed = np.isin(exist_comp, comp)
        removed = int(doomed.sum())
        if removed == 0:
            return 0

        # Compact survivors to the front of each block (stable).
        keep_mask = ~doomed
        surv_owner = owner[keep_mask]
        surv_dst = exist_dst[keep_mask]
        surv_pos_old = exist_pos[keep_mask]
        rank = rank_within_group(surv_owner)  # owners are already grouped
        new_pos = self.block_off[verts[surv_owner]] + rank
        self._dst.data[new_pos] = surv_dst
        if self._wt is not None:
            self._wt.data[new_pos] = self._wt.data[surv_pos_old]
        counters.bytes_copied += int(surv_dst.size) * 8
        self._deg[verts] = np.bincount(surv_owner, minlength=verts.shape[0])
        return removed

    # -- queries -----------------------------------------------------------------------

    def _edge_exists(self, src, dst) -> np.ndarray:
        """Membership by full scan (adjacency is unsorted) — the O(n) cost
        the paper's introduction highlights for list structures."""
        counters = get_counters()
        verts = np.unique(src)
        owner, exist_dst, _ = self._gather_adjacency(verts)
        counters.scanned_elements += int(exist_dst.size)
        exist_comp = self._composite(verts[owner], exist_dst)
        query_comp = self._composite(src, dst)
        return np.isin(query_comp, exist_comp)

    def _edge_weights(self, src, dst) -> tuple[np.ndarray, np.ndarray]:
        """(found, weight) per queried pair — a scan of the affected lists."""

        def gather(verts):
            owner, exist_dst, exist_pos = self._gather_adjacency(verts)
            get_counters().scanned_elements += int(exist_dst.size)

            def weight_at(idx):
                if self._wt is None:
                    return np.zeros(idx.shape[0], dtype=np.int64)
                return self._wt.data[exist_pos[idx]]

            return owner, exist_dst, weight_at

        return scan_edge_weights(src, dst, gather)

    def _neighbors(self, vertex: int) -> tuple[np.ndarray, np.ndarray]:
        off, deg = int(self.block_off[vertex]), int(self._deg[vertex])
        if off == -1 or deg == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        d = self._dst.data[off : off + deg].copy()
        w = (
            self._wt.data[off : off + deg].copy()
            if self._wt is not None
            else np.zeros(deg, dtype=np.int64)
        )
        return d, w

    def export_coo(self) -> COO:
        verts = np.flatnonzero(self._deg)
        owner, dsts, pos = self._gather_adjacency(verts)
        srcs = verts[owner]
        w = self._wt.data[pos] if self._wt is not None else None
        return COO(srcs, dsts, self.num_vertices, weights=None if w is None else w.copy())

    def _degree(self, vertex_ids) -> np.ndarray:
        return self._deg[vertex_ids]

    def num_edges(self) -> int:
        return int(self._deg.sum())

    def sorted_adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """Sort every adjacency list (CUB-style segmented sort, charged) and
        return (row_ptr, col_idx) like a CSR view — Table VIII's cost."""
        from repro.baselines.sorting import segmented_sort_adjacency

        return segmented_sort_adjacency(self)
