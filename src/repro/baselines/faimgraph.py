"""A faimGraph-like dynamic graph (Winter et al., SC 2018; Section II-B).

Representation: per-vertex adjacency lists broken into fixed-size 128-byte
*pages* (the paper configures faimGraph's page size to 128 B to match the
slab size), singly linked, kept **dense**: entry ``i`` of a vertex's list
lives at page ``i // P``, lane ``i % P``.  Density is maintained by
hole-filling compaction on deletion (the last element moves into the hole),
which keeps appends O(1) but makes list order unstable.

Uniqueness: the list is unsorted, so duplicate prevention requires scanning
the *entire* list on every insertion — the O(n) cost the paper's
introduction assigns to unsorted lists.  We charge it to
``counters.scanned_elements``.

Memory management is fully "on-GPU": a page free queue recycles pages.
faimGraph also pushes deleted vertex ids onto a vertex queue for reuse (the
feature the paper credits faimGraph with and its own structure lacks);
vertex deletion charges those pushes as atomics, the cost the Table IV
comparison prices, but no id is handed out again here.

As the paper observes (Section II-B), with a single bucket our slab-hash
graph degenerates into this structure; keeping faimGraph separate keeps the
deletion semantics (compaction vs. tombstones) faithful.
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

__all__ = ["FaimGraph"]

#: Page entry capacities: 30 destinations (SoA, single property) or 15
#: destination/weight pairs (AoS, matching the map-variant slab).
PAGE_CAP_UNWEIGHTED = 30
PAGE_CAP_WEIGHTED = 15


class FaimGraph(GraphBackend):
    """faimGraph-like paged dynamic graph with a page reuse queue."""

    capabilities = Capabilities(weighted=True, vertex_dynamic=True)

    def __init__(self, num_vertices: int, weighted: bool = False) -> None:
        if num_vertices < 1:
            raise ValidationError("num_vertices must be positive")
        self.num_vertices = int(num_vertices)
        self.weighted = bool(weighted)
        self.page_cap = PAGE_CAP_WEIGHTED if weighted else PAGE_CAP_UNWEIGHTED
        self._deg = np.zeros(self.num_vertices, dtype=np.int64)
        self.head_page = np.full(self.num_vertices, -1, dtype=np.int64)
        self._dst = GrowableArray(64, np.int64, width=self.page_cap, fill_value=-1)
        self._wt = (
            GrowableArray(64, np.int64, width=self.page_cap, fill_value=0) if weighted else None
        )
        self._next = GrowableArray(64, np.int64, fill_value=-1)
        self._bump = 0
        self._page_queue = np.empty(0, dtype=np.int64)  # recycled pages

    # -- page allocator ----------------------------------------------------------

    def _alloc_pages(self, n: int) -> np.ndarray:
        n = int(n)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        counters = get_counters()
        counters.slabs_allocated += n
        counters.atomics += n  # queue pops / bump tickets
        take = min(n, self._page_queue.shape[0])
        recycled = self._page_queue[self._page_queue.shape[0] - take :]
        self._page_queue = self._page_queue[: self._page_queue.shape[0] - take]
        fresh = np.arange(self._bump, self._bump + (n - take), dtype=np.int64)
        self._bump += n - take
        self._dst.ensure(self._bump)
        self._next.ensure(self._bump)
        if self._wt is not None:
            self._wt.ensure(self._bump)
        ids = np.concatenate([recycled, fresh]) if take else fresh
        self._dst.data[ids] = -1
        self._next.data[ids] = -1
        return ids

    def _free_pages(self, ids: np.ndarray) -> None:
        if ids.size == 0:
            return
        counters = get_counters()
        counters.slabs_freed += int(ids.size)
        counters.atomics += int(ids.size)
        self._page_queue = np.concatenate([self._page_queue, ids])

    @property
    def allocated_bytes(self) -> int:
        """128 bytes per live page."""
        return (self._bump - self._page_queue.shape[0]) * 128

    # -- chain geometry ------------------------------------------------------------

    def _collect_pages(self, verts: np.ndarray):
        """(owner_pos, page_ids, chain_rank) for all pages of ``verts``."""
        heads = self.head_page[verts]
        alive = heads != -1
        owners = np.flatnonzero(alive)
        frontier = heads[alive]
        all_owner, all_page, all_rank = [], [], []
        counters = get_counters()
        rank = 0
        while frontier.size:
            counters.slab_reads += int(frontier.size)
            all_owner.append(owners)
            all_page.append(frontier)
            all_rank.append(np.full(frontier.shape[0], rank, dtype=np.int64))
            nxt = self._next.data[frontier]
            go = nxt != -1
            owners, frontier = owners[go], nxt[go]
            rank += 1
        if not all_owner:
            e = np.empty(0, dtype=np.int64)
            return e, e.copy(), e.copy()
        return np.concatenate(all_owner), np.concatenate(all_page), np.concatenate(all_rank)

    def _page_lookup(self, verts: np.ndarray):
        """Dense (num_verts, max_chain) page-id matrix for vectorized
        position->page translation (−1 where the chain is shorter)."""
        owner, page, rank = self._collect_pages(verts)
        max_chain = int(rank.max()) + 1 if rank.size else 0
        lookup = np.full((verts.shape[0], max(max_chain, 1)), -1, dtype=np.int64)
        if rank.size:
            lookup[owner, rank] = page
        return lookup

    def _gather(self, verts: np.ndarray):
        """All live entries of ``verts``.

        Returns ``(owner_pos, dsts, pages, lanes)`` in list-position order
        per vertex (the dense invariant makes positions well-defined).
        """
        degs = self._deg[verts]
        total = int(degs.sum())
        if total == 0:
            e = np.empty(0, dtype=np.int64)
            return e, e.copy(), e.copy(), e.copy()
        owner = np.repeat(np.arange(verts.shape[0], dtype=np.int64), degs)
        pos = ragged_arange(degs)
        lookup = self._page_lookup(verts)
        pages = lookup[owner, pos // self.page_cap]
        lanes = pos % self.page_cap
        return owner, self._dst.data[pages, lanes], pages, lanes

    def _composite(self, src, dst):
        return (src.astype(np.int64) << 32) | dst.astype(np.int64)

    # -- construction -----------------------------------------------------------------

    def _bulk_build(self, src, dst, weights) -> int:
        """Initialize from a COO snapshot (deduplicated setup path)."""
        keep = last_occurrence_order(self._composite(src, dst))
        s, d = src[keep], dst[keep]

        degs = np.bincount(s, minlength=self.num_vertices).astype(np.int64)
        verts = np.flatnonzero(degs)
        pages_per = -(-degs[verts] // self.page_cap)
        total_pages = int(pages_per.sum())
        pages = self._alloc_pages(total_pages)
        # Link chains: consecutive pages of a vertex are consecutive here.
        starts = np.concatenate([[0], np.cumsum(pages_per)[:-1]])
        is_last = np.zeros(total_pages, dtype=bool)
        is_last[np.cumsum(pages_per) - 1] = True
        self._next.data[pages[~is_last]] = pages[np.flatnonzero(~is_last) + 1]
        self.head_page[verts] = pages[starts]
        self._deg[verts] = degs[verts]

        rank = rank_within_group(s)
        page_of_entry = pages[starts[np.searchsorted(verts, s)] + rank // self.page_cap]
        lane = rank % self.page_cap
        self._dst.data[page_of_entry, lane] = d
        if self._wt is not None:
            self._wt.data[page_of_entry, lane] = 0 if weights is None else weights[keep]
        get_counters().bytes_copied += int(s.size) * 8
        return int(s.size)

    # -- updates --------------------------------------------------------------------------

    def _insert_edges(self, src, dst, weights) -> int:
        """Batched insertion with full-scan duplicate prevention."""
        counters = get_counters()
        counters.kernel_launches += 1
        w = weights if weights is not None else np.zeros(src.shape[0], dtype=np.int64)

        comp = self._composite(src, dst)
        keep = last_occurrence_mask(comp)
        src, dst, w, comp = src[keep], dst[keep], w[keep], comp[keep]

        # Full-scan duplicate check over the affected adjacency lists.
        verts = np.unique(src)
        owner, exist_dst, pages, lanes = self._gather(verts)
        counters.scanned_elements += int(exist_dst.size)
        # Each inserted item walks its vertex's page chain to the tail
        # (dependent loads) before it can append — the latency cost that
        # separates faimGraph from the hash structure at equal bandwidth.
        chain_pages = np.maximum(-(-self._deg[src] // self.page_cap), 1)
        counters.add("chain_steps", int(chain_pages.sum()))
        exist_comp = self._composite(verts[owner], exist_dst)
        present = np.isin(comp, exist_comp)
        if self._wt is not None and present.any():
            # Replace weights in place for already-present pairs.
            order = np.argsort(exist_comp)
            loc = np.searchsorted(exist_comp[order], comp[present])
            hit = order[loc]
            self._wt.data[pages[hit], lanes[hit]] = w[present]
        src, dst, w = src[~present], dst[~present], w[~present]
        if src.size == 0:
            return 0

        # Append at list tails, allocating pages for overflow.
        order = np.argsort(src, kind="stable")
        src, dst, w = src[order], dst[order], w[order]
        add = np.bincount(src, minlength=self.num_vertices)
        touched = np.flatnonzero(add)
        old_deg = self._deg[touched]
        new_deg = old_deg + add[touched]
        old_pages = -(-old_deg // self.page_cap)
        new_pages = -(-new_deg // self.page_cap)
        extra = new_pages - old_pages
        grow = np.flatnonzero(extra)
        if grow.size:
            fresh = self._alloc_pages(int(extra[grow].sum()))
            # Link fresh pages onto each growing vertex's chain tail.
            fresh_owner = np.repeat(grow, extra[grow])
            fresh_rank = ragged_arange(extra[grow])
            lookup = self._page_lookup(touched[grow])
            # Previous tail per growing vertex (or none for empty lists).
            prev_tail_rank = old_pages[grow] - 1
            first_fresh = fresh_rank == 0
            idx_in_grow = np.searchsorted(grow, fresh_owner)
            link_from_old = first_fresh & (prev_tail_rank[idx_in_grow] >= 0)
            if link_from_old.any():
                old_idx = idx_in_grow[link_from_old]
                tails = lookup[old_idx, prev_tail_rank[old_idx]]
                self._next.data[tails] = fresh[link_from_old]
            new_heads = first_fresh & (prev_tail_rank[idx_in_grow] < 0)
            if new_heads.any():
                self.head_page[touched[grow[idx_in_grow[new_heads]]]] = fresh[new_heads]
            chain_cont = ~first_fresh
            if chain_cont.any():
                self._next.data[fresh[np.flatnonzero(chain_cont) - 1]] = fresh[chain_cont]
            counters.slab_writes += int(fresh.size)

        # Positions for the appended entries (chains now include new pages).
        lookup = self._page_lookup(touched)
        rank = rank_within_group(src)
        pos = self._deg[src] + rank
        owner_idx = np.searchsorted(touched, src)
        page_of_entry = lookup[owner_idx, pos // self.page_cap]
        lane = pos % self.page_cap
        self._dst.data[page_of_entry, lane] = dst
        if self._wt is not None:
            self._wt.data[page_of_entry, lane] = w
        counters.slab_writes += int(src.size)
        self._deg += add
        return int(src.size)

    def _delete_edges(self, src, dst) -> int:
        """Batched deletion by hole-filling compaction.

        The last elements of each affected list move into the holes (list
        order is not preserved — faimGraph semantics); emptied tail pages
        return to the page queue.
        """
        counters = get_counters()
        counters.kernel_launches += 1

        comp = np.unique(self._composite(src, dst))
        verts = np.unique(src)
        owner, exist_dst, pages, lanes = self._gather(verts)
        counters.scanned_elements += int(exist_dst.size)
        chain_pages = np.maximum(-(-self._deg[src] // self.page_cap), 1)
        counters.add("chain_steps", int(chain_pages.sum()))
        exist_comp = self._composite(verts[owner], exist_dst)
        doomed = np.isin(exist_comp, comp)
        removed = int(doomed.sum())
        if removed == 0:
            return 0

        degs = self._deg[verts]
        kill_per = np.bincount(owner[doomed], minlength=verts.shape[0])
        new_deg = degs - kill_per
        pos = ragged_arange(degs)
        survives_boundary = new_deg[owner]
        holes = doomed & (pos < survives_boundary)
        movers = ~doomed & (pos >= survives_boundary)
        # Pair the k-th hole with the k-th mover within each vertex.
        hole_idx = np.flatnonzero(holes)
        mover_idx = np.flatnonzero(movers)
        # Both index lists are grouped by owner and position-ordered, and
        # per vertex their counts are equal, so positional pairing is valid.
        self._dst.data[pages[hole_idx], lanes[hole_idx]] = exist_dst[mover_idx]
        if self._wt is not None:
            self._wt.data[pages[hole_idx], lanes[hole_idx]] = self._wt.data[
                pages[mover_idx], lanes[mover_idx]
            ]
        counters.slab_writes += int(hole_idx.size)

        # Release emptied tail pages and cut the chains.
        old_pages = -(-degs // self.page_cap)
        keep_pages = -(-new_deg // self.page_cap)
        shrink = np.flatnonzero(old_pages > keep_pages)
        if shrink.size:
            lookup = self._page_lookup(verts[shrink])
            for row, vpos in enumerate(shrink.tolist()):
                kp, op = int(keep_pages[vpos]), int(old_pages[vpos])
                dead = lookup[row, kp:op]
                dead = dead[dead != -1]
                self._free_pages(dead)
                if kp == 0:
                    self.head_page[verts[vpos]] = -1
                else:
                    self._next.data[lookup[row, kp - 1]] = -1
        self._deg[verts] = new_deg
        return removed

    # -- vertex operations -------------------------------------------------------------

    def _delete_vertices(self, vertex_ids) -> int:
        """Delete vertices, erase reverse edges (full scans), recycle pages
        — the Table IV workload.  Undirected semantics."""
        vertex_ids = np.unique(vertex_ids)
        counters = get_counters()
        counters.atomics += int(vertex_ids.size)  # vertex-queue pushes

        owner, nbrs, _, _ = self._gather(vertex_ids)
        removed = 0
        if nbrs.size:
            # Erase v from each neighbour's list; each erase pays the
            # neighbour-list scan inside _delete_edges.
            doomed_of_entry = vertex_ids[owner]
            mask = ~np.isin(nbrs, vertex_ids)  # doomed->doomed handled by page free
            if mask.any():
                removed += self._delete_edges(nbrs[mask], doomed_of_entry[mask])

        own = int(self._deg[vertex_ids].sum())
        _, pages, _ = self._collect_pages(vertex_ids)
        self._free_pages(pages)
        self.head_page[vertex_ids] = -1
        self._deg[vertex_ids] = 0
        return removed + own

    # -- queries -------------------------------------------------------------------------

    def _edge_exists(self, src, dst) -> np.ndarray:
        """Membership by full list scan (unsorted pages)."""
        counters = get_counters()
        verts = np.unique(src)
        owner, exist_dst, _, _ = self._gather(verts)
        counters.scanned_elements += int(exist_dst.size)
        exist_comp = self._composite(verts[owner], exist_dst)
        return np.isin(self._composite(src, dst), exist_comp)

    def _edge_weights(self, src, dst) -> tuple[np.ndarray, np.ndarray]:
        """(found, weight) per queried pair — a scan of the affected lists."""

        def gather(verts):
            owner, exist_dst, pages, lanes = self._gather(verts)
            get_counters().scanned_elements += int(exist_dst.size)

            def weight_at(idx):
                if self._wt is None:
                    return np.zeros(idx.shape[0], dtype=np.int64)
                return self._wt.data[pages[idx], lanes[idx]]

            return owner, exist_dst, weight_at

        return scan_edge_weights(src, dst, gather)

    def _neighbors(self, vertex: int) -> tuple[np.ndarray, np.ndarray]:
        v = np.array([vertex], dtype=np.int64)
        _, dsts, pages, lanes = self._gather(v)
        w = (
            self._wt.data[pages, lanes].copy()
            if self._wt is not None and dsts.size
            else np.zeros(dsts.shape[0], dtype=np.int64)
        )
        return dsts.copy(), w

    def export_coo(self) -> COO:
        verts = np.flatnonzero(self._deg)
        owner, dsts, pages, lanes = self._gather(verts)
        w = self._wt.data[pages, lanes] if self._wt is not None else None
        return COO(
            verts[owner],
            dsts,
            self.num_vertices,
            weights=None if w is None else w.copy(),
        )

    def _degree(self, vertex_ids) -> np.ndarray:
        return self._deg[vertex_ids]

    def num_edges(self) -> int:
        return int(self._deg.sum())

    def sorted_adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """Sort adjacency with faimGraph's paged sort (Table VIII cost)."""
        from repro.baselines.sorting import faimgraph_page_sort

        return faimgraph_page_sort(self)
