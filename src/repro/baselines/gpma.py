"""A GPMA-like dynamic graph (Sha et al., VLDB 2017; Section II-B).

GPMA stores the whole edge list — composite keys ``(src << 32) | dst`` —
in a Packed Memory Array: a sorted array with deliberate gaps, organized as
implicit windows over fixed-size *segments*.  Each window level has density
thresholds; an update that pushes a window outside its thresholds triggers
an even redistribution over the smallest enclosing window that is back
within thresholds (GPMA's warp/block/device granularities), doubling the
array when the root overflows.

Batched updates follow the GPMA recipe: the batch is sorted, partitioned by
destination segment, and each segment updated; rebalances escalate up the
window tree.  Sort volume and moved elements are charged to the counters,
which is how the PMA maintenance cost enters the ablation benches.

This structure is *not* part of the paper's measured tables (the paper
discusses it as related work); it exists for the related-work ablation
bench and for API parity.
"""

from __future__ import annotations

import numpy as np

from repro.api.backend import GraphBackend
from repro.api.capabilities import Capabilities
from repro.coo import COO
from repro.gpusim.counters import get_counters
from repro.util.errors import ValidationError

__all__ = ["GPMAGraph"]

_EMPTY = np.int64(-1)

#: Density thresholds, linearly interpolated from leaf to root.
_LEAF_UPPER, _ROOT_UPPER = 0.92, 0.70
_ROOT_LOWER = 0.30


class GPMAGraph(GraphBackend):
    """PMA-backed dynamic edge set with per-vertex degree tracking."""

    capabilities = Capabilities(sorted_neighbors=True)

    def __init__(
        self, num_vertices: int, segment_size: int = 32, weighted: bool = False
    ) -> None:
        if num_vertices < 1:
            raise ValidationError("num_vertices must be positive")
        if segment_size < 4 or segment_size & (segment_size - 1):
            raise ValidationError("segment_size must be a power of two >= 4")
        if weighted:
            raise ValidationError(
                "GPMAGraph stores an unweighted edge set (capability "
                "weighted=False); construct with weighted=False"
            )
        self.num_vertices = int(num_vertices)
        self.segment_size = int(segment_size)
        self._data = np.full(segment_size * 2, _EMPTY, dtype=np.int64)
        self._count = 0
        self._deg = np.zeros(self.num_vertices, dtype=np.int64)
        self.weighted = False  # GPMA here stores the unweighted edge set

    # -- geometry ------------------------------------------------------------

    @property
    def capacity(self) -> int:
        return int(self._data.shape[0])

    @property
    def _num_segments(self) -> int:
        return self.capacity // self.segment_size

    @property
    def _height(self) -> int:
        """Window-tree height (root spans all segments)."""
        return int(np.log2(max(self._num_segments, 1)))

    def _upper(self, level: int) -> float:
        h = max(self._height, 1)
        return _LEAF_UPPER + (_ROOT_UPPER - _LEAF_UPPER) * (level / h)

    # -- internal helpers ---------------------------------------------------------

    def _live(self) -> np.ndarray:
        return self._data[self._data != _EMPTY]

    def _segment_of_live(self) -> tuple[np.ndarray, np.ndarray]:
        """(live keys in order, owning segment per live key)."""
        mask = self._data != _EMPTY
        keys = self._data[mask]
        segs = np.flatnonzero(mask) // self.segment_size
        return keys, segs

    def _redistribute(self, seg_lo: int, seg_hi: int, extra: np.ndarray | None = None) -> None:
        """Evenly respread the live elements of segments [seg_lo, seg_hi)
        (plus ``extra`` sorted new keys) across that window."""
        lo = seg_lo * self.segment_size
        hi = seg_hi * self.segment_size
        window = self._data[lo:hi]
        live = window[window != _EMPTY]
        if extra is not None and extra.size:
            live = np.concatenate([live, extra])
            live.sort()
            get_counters().sorted_elements += int(live.size)
        n = live.shape[0]
        cap = hi - lo
        if n > cap:
            raise ValidationError("redistribute window too small")  # pragma: no cover
        window[:] = _EMPTY
        if n:
            slots = np.floor(np.arange(n, dtype=np.float64) * cap / n).astype(np.int64)
            window[slots] = live
        get_counters().bytes_copied += int(n) * 8

    def _grow_and_rebuild(self, extra: np.ndarray) -> None:
        """Double capacity until the root is under threshold; rebuild."""
        live = self._live()
        merged = np.concatenate([live, extra])
        merged.sort()
        get_counters().sorted_elements += int(merged.size)
        need = merged.shape[0]
        cap = self.capacity
        while need > _ROOT_UPPER * cap:
            cap *= 2
        self._data = np.full(cap, _EMPTY, dtype=np.int64)
        if need:
            slots = np.floor(np.arange(need, dtype=np.float64) * cap / need).astype(np.int64)
            self._data[slots] = merged
        get_counters().bytes_copied += int(need) * 8

    @staticmethod
    def _composite(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        return (src.astype(np.int64) << 32) | dst.astype(np.int64)

    # -- construction ------------------------------------------------------------------

    def _bulk_build(self, src, dst, weights) -> int:
        keys = np.unique(self._composite(src, dst))
        get_counters().sorted_elements += int(keys.size)
        cap = self.capacity
        while keys.shape[0] > _ROOT_UPPER * cap:
            cap *= 2
        self._data = np.full(cap, _EMPTY, dtype=np.int64)
        slots = np.floor(np.arange(keys.shape[0], dtype=np.float64) * cap / keys.shape[0])
        self._data[slots.astype(np.int64)] = keys
        self._count = int(keys.size)
        self._deg = np.bincount(
            (keys >> 32).astype(np.int64), minlength=self.num_vertices
        ).astype(np.int64)
        return int(keys.size)

    # -- updates ------------------------------------------------------------------------

    def _insert_edges(self, src, dst, weights) -> int:
        """Sorted-batch PMA insertion; returns edges newly added.

        GPMA stores an unweighted edge set, so ``weights`` is always
        ``None`` here (the template rejects them).
        """
        comp = np.unique(self._composite(src, dst))
        get_counters().sorted_elements += int(comp.size)

        # Drop already-present keys (binary search over live elements).
        live, seg_of = self._segment_of_live()
        if live.size:
            loc = np.searchsorted(live, comp)
            safe = np.minimum(loc, live.shape[0] - 1)
            fresh = ~((loc < live.shape[0]) & (live[safe] == comp))
        else:
            fresh = np.ones(comp.shape[0], dtype=bool)
        comp = comp[fresh]
        if comp.size == 0:
            return 0

        # Route each new key to its leaf segment via its predecessor.
        if live.size:
            pred = np.searchsorted(live, comp, side="right") - 1
            leaf = np.where(pred >= 0, seg_of[np.maximum(pred, 0)], 0)
        else:
            leaf = np.zeros(comp.shape[0], dtype=np.int64)

        added = int(comp.size)
        per_leaf = np.bincount(leaf, minlength=self._num_segments)
        self._apply_leaf_inserts(comp, leaf, per_leaf)
        self._count += added
        self._deg += np.bincount((comp >> 32).astype(np.int64), minlength=self.num_vertices)
        return added

    def _apply_leaf_inserts(self, keys: np.ndarray, leaf: np.ndarray, per_leaf: np.ndarray):
        """Insert sorted ``keys`` into their leaves, escalating rebalances."""
        seg_size = self.segment_size
        occupancy = np.bincount(
            np.flatnonzero(self._data != _EMPTY) // seg_size,
            minlength=self._num_segments,
        )
        target = occupancy + per_leaf
        order = np.argsort(leaf, kind="stable")
        keys_by_leaf = keys[order]
        starts = np.concatenate([[0], np.cumsum(per_leaf)])

        # Root overflow: rebuild at larger capacity in one device-wide pass.
        if int(target.sum()) > _ROOT_UPPER * self.capacity:
            self._grow_and_rebuild(keys)
            return

        handled = np.zeros(self._num_segments, dtype=bool)
        for seg in np.flatnonzero(per_leaf):
            if handled[seg]:
                continue
            # Find the smallest enclosing window within its threshold.
            lo, hi, level = seg, seg + 1, 0
            while True:
                window_target = int(target[lo:hi].sum())
                cap = (hi - lo) * seg_size
                if window_target <= self._upper(level) * cap or (hi - lo) == self._num_segments:
                    break
                level += 1
                width = hi - lo
                lo = (lo // (2 * width)) * (2 * width)
                hi = lo + 2 * width
                hi = min(hi, self._num_segments)
            # Collect every pending key inside [lo, hi) and redistribute.
            in_window = (leaf >= lo) & (leaf < hi) & ~handled[leaf]
            pending = np.sort(keys[in_window])
            self._redistribute(lo, hi, pending)
            # Refresh occupancy for the window and mark it handled.
            occ = np.bincount(
                np.flatnonzero(self._data[lo * seg_size : hi * seg_size] != _EMPTY) // seg_size,
                minlength=hi - lo,
            )
            occupancy[lo:hi] = occ
            target[lo:hi] = occ
            handled[lo:hi] = True

    def _delete_edges(self, src, dst) -> int:
        """Mark-and-rebalance deletion; returns edges removed."""
        comp = np.unique(self._composite(src, dst))

        mask = self._data != _EMPTY
        positions = np.flatnonzero(mask)
        live = self._data[positions]
        doomed = np.isin(live, comp)
        removed = int(doomed.sum())
        if removed == 0:
            return 0
        gone = live[doomed]
        self._data[positions[doomed]] = _EMPTY
        self._count -= removed
        self._deg -= np.bincount((gone >> 32).astype(np.int64), minlength=self.num_vertices)

        # Lower-threshold maintenance: one root-level check (device pass).
        if self._count < _ROOT_LOWER * self.capacity and self.capacity > 2 * self.segment_size:
            live_now = self._live()
            cap = self.capacity
            while live_now.shape[0] < _ROOT_LOWER * cap and cap > 2 * self.segment_size:
                cap //= 2
            self._data = np.full(cap, _EMPTY, dtype=np.int64)
            if live_now.size:
                slots = np.floor(
                    np.arange(live_now.shape[0], dtype=np.float64) * cap / live_now.shape[0]
                ).astype(np.int64)
                self._data[slots] = live_now
            get_counters().bytes_copied += int(live_now.size) * 8
        return removed

    # -- queries ---------------------------------------------------------------------------

    def _edge_exists(self, src, dst) -> np.ndarray:
        """Binary search over the sorted live keys — PMA's query strength.

        Charged as one batched launch of ``ceil(log2 E)`` (at least one)
        ``sorted_probes`` per probe over ``E`` live keys; the degree read
        stays free, like every backend's maintained counters.
        """
        comp = self._composite(src, dst)
        live = self._live()
        counters = get_counters()
        counters.kernel_launches += 1
        if live.size == 0:
            return np.zeros(src.shape[0], dtype=bool)
        steps = max((int(live.size) - 1).bit_length(), 1)
        counters.add("sorted_probes", int(comp.shape[0]) * steps)
        loc = np.searchsorted(live, comp)
        safe = np.minimum(loc, live.shape[0] - 1)
        return (loc < live.shape[0]) & (live[safe] == comp)

    def _neighbors(self, vertex: int) -> tuple[np.ndarray, np.ndarray]:
        live = self._live()
        lo = np.searchsorted(live, np.int64(vertex) << 32)
        hi = np.searchsorted(live, (np.int64(vertex) + 1) << 32)
        dsts = (live[lo:hi] & np.int64(0xFFFFFFFF)).astype(np.int64)
        return dsts, np.zeros(dsts.shape[0], dtype=np.int64)

    def export_coo(self) -> COO:
        live = self._live()
        return COO(
            (live >> 32).astype(np.int64),
            (live & np.int64(0xFFFFFFFF)).astype(np.int64),
            self.num_vertices,
        )

    def _degree(self, vertex_ids) -> np.ndarray:
        return self._deg[vertex_ids]

    def num_edges(self) -> int:
        return self._count

    def sorted_adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """PMA keys are always sorted — a free CSR view."""
        live = self._live()
        srcs = (live >> 32).astype(np.int64)
        col = (live & np.int64(0xFFFFFFFF)).astype(np.int64)
        counts = np.bincount(srcs, minlength=self.num_vertices)
        row_ptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        return row_ptr, col

    @property
    def allocated_bytes(self) -> int:
        """Bytes in the PMA array (8 B per slot, gaps included)."""
        return self.capacity * 8

    def density(self) -> float:
        """Live fraction of the PMA array (gap bookkeeping metric)."""
        return self._count / self.capacity
