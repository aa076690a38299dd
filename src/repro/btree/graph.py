"""A dynamic graph with one B+-tree per adjacency list.

Exposes the same batched surface as :class:`repro.core.DynamicGraph` (so
the bench harness and the cross-structure semantics tests can drive it),
plus the two operations only a sorted adjacency can serve cheaply:

- :meth:`neighbors_sorted` — ascending adjacency without any sort pass;
- :meth:`neighbor_range` — all neighbors with ids in ``[lo, hi)``.

Updates route through the scalar tree operations grouped by source vertex
(B-tree updates are pointer-chasing by nature; the arena still charges
node traffic so the cost model can price them).
"""

from __future__ import annotations

import numpy as np

from repro.api.backend import GraphBackend
from repro.api.capabilities import Capabilities
from repro.btree.tree import BPlusTreeArena
from repro.coo import COO
from repro.gpusim.counters import get_counters
from repro.util.errors import ValidationError
from repro.util.groupby import last_occurrence_mask

__all__ = ["BTreeGraph"]


class BTreeGraph(GraphBackend):
    """B-tree-per-vertex dynamic graph (sorted adjacency maintained)."""

    capabilities = Capabilities(
        weighted=True,
        vertex_dynamic=True,
        sorted_neighbors=True,
        range_queries=True,
    )

    def __init__(self, num_vertices: int, weighted: bool = True) -> None:
        if num_vertices < 1:
            raise ValidationError("num_vertices must be positive")
        self.num_vertices = int(num_vertices)
        self.weighted = bool(weighted)
        self._arena = BPlusTreeArena(self.num_vertices)

    # -- updates (hooks of the GraphBackend template methods) ---------------------

    def _insert_edges(self, src, dst, weights) -> int:
        """Batched insert-with-replace; returns edges newly added."""
        get_counters().kernel_launches += 1
        comp = (src << np.int64(32)) | dst
        last = last_occurrence_mask(comp)
        src, dst = src[last], dst[last]
        w = weights[last] if weights is not None else np.zeros(src.size, dtype=np.int64)
        # Group by source so each tree's root is resolved once per run.
        order = np.argsort(src, kind="stable")
        added = 0
        for i in order.tolist():
            added += self._arena.insert_one(int(src[i]), int(dst[i]), int(w[i]))
        return added

    def _delete_edges(self, src, dst) -> int:
        """Batched delete; returns edges removed."""
        get_counters().kernel_launches += 1
        comp = np.unique((src << np.int64(32)) | dst)
        removed = 0
        for c in comp.tolist():
            removed += self._arena.delete_one(int(c >> 32), int(c & 0xFFFFFFFF))
        return removed

    def _delete_vertices(self, vertex_ids) -> int:
        """Delete vertices and all incident edges (undirected semantics:
        the ids are also removed from every other tree they appear in)."""
        vertex_ids = np.unique(vertex_ids)
        removed = 0
        doomed = set(vertex_ids.tolist())
        for v in vertex_ids.tolist():
            nbrs, _ = self._neighbors(v)
            removed += int(nbrs.size)
            for u in nbrs.tolist():
                if u not in doomed:
                    removed += self._arena.delete_one(int(u), int(v))
            self._arena.destroy_tree(int(v))
        return removed

    # -- queries ------------------------------------------------------------------

    def _edge_exists(self, src, dst) -> np.ndarray:
        return self._edge_weights(src, dst)[0]

    def _edge_weights(self, src, dst) -> tuple[np.ndarray, np.ndarray]:
        found = np.zeros(src.shape[0], dtype=bool)
        vals = np.zeros(src.shape[0], dtype=np.int64)
        for i in range(src.shape[0]):
            found[i], vals[i] = self._arena.search_one(int(src[i]), int(dst[i]))
        return found, vals

    def _neighbors(self, vertex: int) -> tuple[np.ndarray, np.ndarray]:
        """Adjacency in ascending order — no sort pass needed."""
        return self._arena.items_sorted(vertex)

    def neighbors_sorted(self, vertex: int) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`neighbors` under the name that states the order guarantee."""
        return self.neighbors(vertex)

    def neighbor_range(self, vertex: int, lo: int, hi: int) -> np.ndarray:
        """Neighbors with ids in [lo, hi) — the range query hash tables
        cannot serve (Section VII)."""
        keys, _ = self._arena.range_query(self._checked_vertex(vertex), int(lo), int(hi))
        return keys

    def _degree(self, vertex_ids) -> np.ndarray:
        return np.array([self._arena.count(v) for v in vertex_ids.tolist()], dtype=np.int64)

    def num_edges(self) -> int:
        return int(self._arena._count.sum())

    # -- construction / export -------------------------------------------------------

    def _bulk_build(self, src, dst, weights) -> int:
        return self._insert_edges(src, dst, weights)

    def export_coo(self) -> COO:
        srcs, dsts, ws = [], [], []
        for v in np.flatnonzero(self._arena.root != -1).tolist():
            k, val = self._arena.items_sorted(v)
            if k.size:
                srcs.append(np.full(k.size, v, dtype=np.int64))
                dsts.append(k)
                ws.append(val)
        if not srcs:
            e = np.empty(0, dtype=np.int64)
            return COO(e, e.copy(), self.num_vertices, weights=e.copy() if self.weighted else None)
        return COO(
            np.concatenate(srcs),
            np.concatenate(dsts),
            self.num_vertices,
            weights=np.concatenate(ws) if self.weighted else None,
        )

    def sorted_adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """(row_ptr, col_idx) — already sorted, by construction."""
        coo = self.export_coo()
        degs = np.bincount(coo.src, minlength=self.num_vertices)
        row_ptr = np.concatenate([[0], np.cumsum(degs)]).astype(np.int64)
        order = np.argsort(coo.src, kind="stable")  # dst already ascending per src
        return row_ptr, coo.dst[order]

    @property
    def allocated_bytes(self) -> int:
        return self._arena.allocated_bytes
