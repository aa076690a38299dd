"""The uniform read-only view analytics consume: a sorted CSR snapshot.

The paper's usage pattern is *phase-concurrent*: update phases mutate the
structure, query/compute phases read it.  Whole-graph analytics (PageRank,
connected components, core numbers, sorted triangle counting) should not
poke backend internals — they take one :class:`CSRSnapshot` produced by
:meth:`repro.api.Graph.snapshot` (or any backend's ``snapshot()``) and
iterate over flat arrays, exactly how a Gunrock app consumes the structure
between update phases.

Snapshots are versioned and cached: :meth:`repro.api.GraphBackend.snapshot`
keys the last built snapshot on the backend's ``mutation_version`` (an
unchanged graph re-serves the same object for free), and the
:class:`repro.api.Graph` facade maintains the cache *incrementally* by
merging a sorted O(batch) delta into the cached CSR
(:func:`merge_csr_delta`) instead of re-sorting the whole edge set — the
Table VIII re-sort cost the paper prices, paid only on genuine cold
rebuilds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.coo import COO
from repro.gpusim.counters import get_counters
from repro.kernels import reference as kern
from repro.util.errors import ValidationError
from repro.util.validation import _checked_id, check_in_range, checked_ids

__all__ = [
    "CSRSnapshot",
    "as_snapshot",
    "cached_snapshot",
    "merge_csr_delta",
    "merge_event_window",
]

_MASK32 = np.int64(0xFFFFFFFF)


@dataclass(frozen=True)
class CSRSnapshot:
    """An immutable sorted-CSR view of a graph's live edge set.

    The state is the edge set's sorted ``(src << 32) | dst`` keys (read-only)
    and their per-edge ``weights`` (None for an unweighted snapshot): the
    currency of :func:`merge_csr_delta`, shard assembly and checkpoints.
    ``row_ptr`` and ``col_idx`` are derived from the keys on first read —
    rows are sorted by destination, so ``col_idx`` is globally sorted under
    the composite order, which sorted-intersection kernels rely on.
    """

    edge_keys: np.ndarray
    weights: np.ndarray | None
    num_vertices: int

    def __post_init__(self) -> None:
        self.edge_keys.flags.writeable = False

    @classmethod
    def from_coo(cls, coo: COO) -> "CSRSnapshot":
        """Cold-build a sorted CSR from COO (charges the O(E log E) sort)."""
        # The cold build's (src, dst) ordering (COO.csr_order, one packed
        # value sort) is the whole-edge-set sort whose absence the
        # cached/incremental paths are measured against; charge it so the
        # device model prices cold vs. cached snapshots honestly.
        counters = get_counters()
        counters.kernel_launches += 1
        counters.sorted_elements += coo.num_edges
        for label, ids in (("src", coo.src), ("dst", coo.dst)):
            check_in_range(ids, 0, coo.num_vertices, label)
        order = coo.csr_order()
        return cls(
            (coo.src[order] << np.int64(32)) | coo.dst[order],
            None if coo.weights is None else coo.weights[order],
            coo.num_vertices,
        )

    # -- shape -----------------------------------------------------------------

    @property
    def num_edges(self) -> int:
        """Edge (CSR row) count."""
        return int(self.edge_keys.shape[0])

    @property
    def weighted(self) -> bool:
        """True when the snapshot carries per-edge weights (lets weighted
        kernels like :func:`repro.analytics.sssp` accept a bare snapshot)."""
        return self.weights is not None

    def out_degrees(self) -> np.ndarray:
        """Out-degree per vertex id."""
        return np.diff(self.row_ptr)

    # -- flat-array access -------------------------------------------------------

    @cached_property
    def row_ptr(self) -> np.ndarray:
        """CSR row offsets over every vertex id (derived once, on first read)."""
        row_ptr = np.zeros(self.num_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.sources(), minlength=self.num_vertices), out=row_ptr[1:])
        return row_ptr

    @cached_property
    def col_idx(self) -> np.ndarray:
        """Destination id per edge (the low half of each key)."""
        return self.edge_keys & _MASK32

    def sources(self) -> np.ndarray:
        """Source id per edge (the high half of each key)."""
        return self.edge_keys >> np.int64(32)

    def keys(self) -> np.ndarray:
        """Sorted ``(src << 32) | dst`` key per edge — read-only, the
        currency of :func:`merge_csr_delta` and shard assembly."""
        return self.edge_keys

    def weights_or_zeros(self) -> np.ndarray:
        """Weights array, or zeros for an unweighted snapshot."""
        if self.weights is not None:
            return self.weights
        return np.zeros(self.num_edges, dtype=np.int64)

    def adjacencies(self, vertex_ids) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched adjacency gather ``(owner_pos, destinations, weights)``.

        Same contract as :meth:`repro.api.GraphBackend.adjacencies` —
        ``owner_pos[i]`` indexes the requested vertex that owns edge ``i``
        — so frontier kernels (:func:`repro.analytics.bfs`,
        :func:`repro.analytics.sssp`) traverse a snapshot with vectorized
        row gathers instead of per-vertex ``neighbors`` calls.  Charges
        the device model for the gather (one launch + the copied rows),
        making snapshot traversals priceable by the stream bench.
        """
        (vertex_ids,) = checked_ids(self.num_vertices, vertex_ids=vertex_ids)
        starts = self.row_ptr[vertex_ids]
        lens = self.row_ptr[vertex_ids + 1] - starts
        m = int(lens.sum())
        counters = get_counters()
        counters.kernel_launches += 1
        counters.bytes_copied += int(vertex_ids.shape[0]) * 8 + m * (
            16 if self.weights is not None else 8
        )
        if m == 0:
            e = np.empty(0, dtype=np.int64)
            return e, e.copy(), e.copy()
        flat = np.arange(m, dtype=np.int64) + np.repeat(starts + lens - np.cumsum(lens), lens)
        owner_pos = np.repeat(np.arange(vertex_ids.shape[0], dtype=np.int64), lens)
        dst = self.col_idx[flat]
        w = self.weights[flat] if self.weights is not None else np.zeros(m, dtype=np.int64)
        return owner_pos, dst, w

    def neighbors(self, vertex: int) -> tuple[np.ndarray, np.ndarray]:
        """Sorted (destinations, weights) slice for one vertex (views)."""
        v = _checked_id(vertex, self.num_vertices, "vertex")
        lo, hi = int(self.row_ptr[v]), int(self.row_ptr[v + 1])
        if self.weights is not None:
            return self.col_idx[lo:hi], self.weights[lo:hi]
        return self.col_idx[lo:hi], np.zeros(hi - lo, dtype=np.int64)

    def to_coo(self) -> COO:
        """COO expansion (copied arrays; round-trips through from_coo)."""
        return COO(
            self.sources(),
            self.col_idx.copy(),
            self.num_vertices,
            weights=None if self.weights is None else self.weights.copy(),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "weighted" if self.weights is not None else "unweighted"
        return f"CSRSnapshot(|V|={self.num_vertices}, |E|={self.num_edges}, {kind})"


def as_snapshot(graph) -> CSRSnapshot:
    """The :class:`CSRSnapshot` of a :class:`repro.api.Graph`, a
    :class:`repro.api.GraphBackend` (its ``snapshot()``) or a snapshot
    (itself)."""
    if isinstance(graph, CSRSnapshot):
        return graph
    return graph.snapshot()


def cached_snapshot(graph) -> CSRSnapshot | None:
    """The cached snapshot of a :class:`repro.api.Graph` or a
    :class:`repro.api.GraphBackend` iff it is still fresh, else None.

    Never builds anything: an analytic that merely *prefers* flat arrays
    (hash triangle counting) uses this to skip the slab walk when some
    earlier phase already snapshotted the unchanged graph, without forcing
    a sort on graphs that were never snapshotted.
    """
    backend = getattr(graph, "backend", graph)  # unwrap a Graph facade
    cache = backend._snapshot_cache
    if cache is not None and cache[0] == backend.mutation_version:
        return cache[1]
    return None


def window_rows(events, directed: bool = True) -> tuple[np.ndarray, ...]:
    """``(src, dst, weights, is_insert)``: the rows of a window of
    :class:`~repro.eventlog.EdgeBatch` events, concatenated in publish
    order (a batch without weights contributes zeros).

    ``directed=False`` mirrors each batch where it stands — its rows, then
    their reversals — as the undirected backends store it, so a later
    batch still overrides an earlier one in both orientations when the
    last occurrence of a key wins.
    """
    rows = []
    for event in events:
        n = event.src.shape[0]
        w = event.weights if event.weights is not None else np.zeros(n, dtype=np.int64)
        kind = np.full(n, event.is_insert, dtype=bool)
        rows.append((event.src, event.dst, w, kind))
        if not directed:
            rows.append((event.dst, event.src, w, kind))
    return tuple(np.concatenate(column) for column in zip(*rows))


def merge_event_window(base: CSRSnapshot, events, directed: bool = True) -> CSRSnapshot:
    """Reduce an event-log window of :class:`~repro.eventlog.EdgeBatch`
    events to net per-key ops and merge them into ``base``.

    The caller (a cursor consumer — see :meth:`repro.api.Graph.snapshot`)
    has already proven the window is a complete, purely edge-batched
    history from ``base``'s version to the live one.  ``directed=False``
    mirrors every batch (:func:`window_rows`), matching what the
    undirected backend stored.  Replace semantics apply across the whole
    window: the last operation per composite key wins.
    """
    src, dst, w, is_ins = window_rows(events, directed)
    comp = (src << np.int64(32)) | dst
    get_counters().sorted_elements += int(comp.shape[0])
    # Fused dedup-last + sort (one stable argsort instead of the old
    # mask-sort / re-sort pair).
    comp, w, is_ins = kern.sort_window_last(comp, w, is_ins)
    weighted = base.weights is not None
    return merge_csr_delta(
        base,
        comp[is_ins],
        w[is_ins] if weighted else None,
        comp[~is_ins],
    )


def merge_csr_delta(
    base: CSRSnapshot,
    upsert_comp: np.ndarray,
    upsert_weights: np.ndarray | None,
    delete_comp: np.ndarray,
) -> CSRSnapshot:
    """Merge a net edge delta into a sorted CSR snapshot.

    ``upsert_comp`` / ``delete_comp`` are disjoint, sorted, unique
    composite keys ``(src << 32) | dst``; an upsert replaces the weight of
    an existing edge or inserts a new one, a delete removes the edge if
    present.  Cost is **O(E + B log E)** stream work — no whole-edge-set
    sort — and the result is bit-identical to a cold
    :meth:`CSRSnapshot.from_coo` rebuild of the same live set (both orders
    are the unique-key composite order).  Keys in, keys out: no step
    touches the vertex space.

    Charges the device model for the merge stream (``bytes_copied``) so
    benches price the incremental path against the cold rebuild's
    ``sorted_elements``.  The stream merge itself is a kernel
    (``merge_sorted_csr`` in :mod:`repro.kernels.reference`); this driver
    charges from result shapes.
    """
    counters = get_counters()
    counters.kernel_launches += 1
    merged = kern.merge_sorted_csr(
        base.keys(), base.weights, upsert_comp, upsert_weights, delete_comp
    )
    if merged is None:
        # Backends export unique live sets — a duplicate composite key in
        # the base means a broken export_coo; fail loudly instead of
        # letting searchsorted pair it with a single position.
        raise ValidationError("merge base contains duplicate (src, dst) keys")
    keys, weights = merged
    width = 16 if base.weights is not None else 8
    counters.bytes_copied += (base.num_edges + int(keys.shape[0])) * width
    return CSRSnapshot(keys, weights, base.num_vertices)
