"""The public dynamic graph (Sections III-IV).

:class:`DynamicGraph` composes the vertex dictionary with the batched
kernels in the sibling modules.  Directed and undirected graphs are
supported (undirected operations mirror both orientations); the *weighted*
flag selects the slab-hash variant — concurrent map (15 KV lanes/slab)
when True, concurrent set (30 key lanes/slab) when False — exactly the two
variants the paper offers.

The vertex dictionary holds, per vertex, only what the paper's "simple
fixed-size array" holds: the table handle and the exact edge count.  Table
V's bulk build has its own hook (``_bulk_build``, :mod:`repro.core.bulk`);
Table VI's incremental build is plain :meth:`~DynamicGraph.insert_edges`
batches into an empty graph.

The class also implements the scalar :class:`repro.gpusim.wcws.WCWSTarget`
protocol so the literal Algorithm 1/2 reference engine can drive it; tests
use that to certify that the vectorized kernels and the paper's pseudocode
agree.
"""

from __future__ import annotations

import numpy as np

from repro.api.backend import GraphBackend, checked_ids
from repro.api.capabilities import Capabilities
from repro.coo import COO
from repro.core import bulk as _bulk
from repro.core import edge_ops as _edge_ops
from repro.core import queries as _queries
from repro.core import rehash as _rehash
from repro.core import vertex_ops as _vertex_ops
from repro.core.vertex_dict import VertexDictionary
from repro.slabhash.stats import ArenaStats, compute_stats
from repro.util.errors import ValidationError

__all__ = ["DynamicGraph"]


def _checked_load_factor(load_factor: float) -> float:
    """The constructor's and :meth:`DynamicGraph.rehash`'s one load-factor rule."""
    # Load factors above 1 deliberately undersize buckets to force
    # multi-slab chains — the Figure 2/3 sweeps rely on this.
    if not (0.0 < load_factor <= 16.0):
        raise ValidationError("load_factor must be in (0, 16]")
    return float(load_factor)


class DynamicGraph(GraphBackend):
    """A hash-table-per-vertex dynamic graph.

    Parameters
    ----------
    num_vertices:
        Vertex-dictionary capacity.  Choosing it generously avoids the
        (cheap, pointer-only) reallocation on vertex insertion.
    weighted:
        Map variant (True) or set variant (False).
    directed:
        Undirected graphs mirror every edge operation.
    load_factor:
        Target hash-table load factor used whenever connectivity
        information is available to size buckets (paper default 0.7).
    hash_seed:
        Seed of each table's universal hash coefficients, derived from
        ``(hash_seed, vertex id)`` when the table is created with more
        than one bucket (:class:`repro.util.hashing.UniversalHashFamily`).

    Examples
    --------
    >>> g = DynamicGraph(num_vertices=100, weighted=True)
    >>> g.insert_edges([0, 1], [1, 2], weights=[10, 20])
    2
    >>> bool(g.edge_exists(0, 1)[0])
    True
    """

    capabilities = Capabilities(
        weighted=True,
        vertex_dynamic=True,
        rehash=True,
        tombstone_flush=True,
    )

    # The map variant's value lanes are 32-bit words (VALUE_DTYPE).
    _weight_range = (0, 1 << 32)

    def __init__(
        self,
        num_vertices: int,
        weighted: bool = True,
        directed: bool = True,
        load_factor: float = 0.7,
        hash_seed: int = 0x5AB0,
    ) -> None:
        self.weighted = bool(weighted)
        self.directed = bool(directed)
        self.load_factor = _checked_load_factor(load_factor)
        self._dict = VertexDictionary(num_vertices, weighted=self.weighted, hash_seed=hash_seed)

    # -- capacity / size -------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Current dictionary capacity (ids addressable without growth)."""
        return self._dict.capacity

    def num_edges(self) -> int:
        """Exact directed-slot edge count (an undirected edge counts twice).

        O(1): reads the incrementally maintained aggregate counter.
        """
        return self._dict.total_edges()

    def _degree(self, vertex_ids) -> np.ndarray:
        """Exact out-degree per requested vertex (maintained counters)."""
        return self._dict.edge_count[vertex_ids]

    # -- mutation (hooks of the GraphBackend template methods) -------------------

    def _insert_edges(self, src, dst, weights) -> int:
        """Batched edge insertion (Algorithm 1); returns edges newly added."""
        return _edge_ops.insert_edges(self, src, dst, weights)

    def _delete_edges(self, src, dst) -> int:
        """Batched edge deletion; returns edges actually removed."""
        return _edge_ops.delete_edges(self, src, dst)

    def insert_vertices(self, vertex_ids, expected_degree=None) -> None:
        """Register vertices ahead of their edges (Section IV-D1)."""
        _vertex_ops.insert_vertices(self, vertex_ids, expected_degree)

    def _delete_vertices(self, vertex_ids) -> int:
        """Delete vertices and all incident edges (Algorithm 2)."""
        return _vertex_ops.delete_vertices(self, vertex_ids)

    def _bulk_build(self, src, dst, weights) -> int:
        """One-shot build with a-priori bucket sizing (Table V workload);
        Table VI streams :meth:`insert_edges` batches instead."""
        return _bulk.place_rows(self, src, dst, weights)

    # -- queries ------------------------------------------------------------------

    def _edge_exists(self, src, dst) -> np.ndarray:
        """Vectorized edgeExist (Section IV-B)."""
        return self._dict.arena.search(src, dst)[0]

    def _edge_weights(self, src, dst) -> tuple[np.ndarray, np.ndarray]:
        """(found, weight) per queried pair."""
        return self._dict.arena.search(src, dst)

    def _neighbors(self, vertex: int) -> tuple[np.ndarray, np.ndarray]:
        """One adjacency list as (destinations, weights), unordered."""
        return _queries.neighbors(self, vertex)

    def _adjacencies(self, vertex_ids):
        """Batched adjacency iterator: (owner_pos, destinations, weights)."""
        return self._dict.arena.iterate(vertex_ids)

    def export_coo(self) -> COO:
        """Snapshot the live edge set."""
        return _queries.export_coo(self)

    def sorted_adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """(row_ptr, col_idx) sorted CSR snapshot.

        The hash-based structure never *maintains* sort order — that is the
        point of the paper — but tests and harnesses want a canonical view;
        this pays an explicit export + sort to produce one.
        """
        coo = self.export_coo()
        return coo.to_csr()[:2]

    # -- maintenance -----------------------------------------------------------------

    def rehash_candidates(self) -> np.ndarray:
        """Vertices whose chains exceed the threshold (Section III)."""
        return _rehash.rehash_candidates(self)

    def rehash(self, vertex_ids=None, load_factor: float | None = None) -> int:
        """Rebuild overloaded (or given) tables at the target load factor;
        returns how many tables were rebuilt."""
        if load_factor is not None:
            load_factor = _checked_load_factor(load_factor)
        if vertex_ids is None:
            vertex_ids = self.rehash_candidates()
        else:
            (vertex_ids,) = checked_ids(self.num_vertices, vertex_ids=vertex_ids)
        self._bump_version()
        return _rehash.rehash_vertices(self, vertex_ids, load_factor)

    def flush_tombstones(self, vertex_ids=None) -> None:
        """Compact tombstoned lanes (optional cleanup, Section IV-C2)."""
        if vertex_ids is None:
            vertex_ids = np.flatnonzero(self._dict.arena.table_base != -1)
        else:
            (vertex_ids,) = checked_ids(self.num_vertices, vertex_ids=vertex_ids)
        self._bump_version()
        self._dict.arena.flush_tombstones(vertex_ids)

    def stats(self) -> ArenaStats:
        """Aggregate slab statistics over all existing tables (Figure 2)."""
        existing = np.flatnonzero(self._dict.arena.table_base != -1)
        return compute_stats(self._dict.arena, existing)

    def memory_bytes(self) -> int:
        """Bytes currently held in slabs (Figure 2c's metric)."""
        return self._dict.arena.pool.allocated_bytes

    # -- WCWS reference protocol (executable specification hooks) ----------------

    def reference_replace(self, src: int, dst: int, weight: int) -> bool:
        if src == dst:
            return False
        self._bump_version()
        return self._dict.arena.reference_insert_one(src, dst, weight)

    def reference_delete(self, src: int, dst: int) -> bool:
        self._bump_version()
        return self._dict.arena.reference_delete_one(src, dst)

    def reference_increment_edge_count(self, src: int, amount: int) -> None:
        self._dict.increment_edge_count(src, amount)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "map" if self.weighted else "set"
        direction = "directed" if self.directed else "undirected"
        return (
            f"DynamicGraph({direction}, {kind}, |V|cap={self.num_vertices}, "
            f"|E|={self.num_edges()}, lf={self.load_factor})"
        )
