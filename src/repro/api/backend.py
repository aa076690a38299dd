"""The :class:`GraphBackend` protocol every dynamic structure implements.

The paper is a comparison of one structure against four competitors; this
ABC is the contract that makes the comparison (and every consumer —
analytics, bench harness, examples) backend-agnostic:

- **public batched surface** (concrete template methods, never
  overridden): ``insert_edges``, ``delete_edges``, ``edge_exists``,
  ``edge_weights``, ``neighbors``, ``adjacencies``, ``degree``,
  ``delete_vertices`` and ``bulk_build``.  Each checks its arguments
  here, once, and calls one private hook with clean arrays;
- **hooks a structure implements**: ``_insert_edges``, ``_delete_edges``,
  ``_edge_exists``, ``_neighbors``, ``_degree``, ``_bulk_build``
  (abstract), ``_edge_weights`` / ``_adjacencies`` (derived defaults) and
  ``_delete_vertices`` (only with the ``vertex_dynamic`` capability),
  beside the abstract ``num_edges``, ``export_coo`` and
  ``sorted_adjacency``;
- a class-level :class:`~repro.api.capabilities.Capabilities` declaration,
  narrowed per instance by :meth:`instance_capabilities`;
- **snapshot versioning**: every mutating operation calls
  :meth:`_bump_version` so :attr:`mutation_version` increases monotonically.
  The default :meth:`snapshot` keys its cached :class:`CSRSnapshot` on that
  version — a snapshot of an unchanged structure is O(1) and performs zero
  slab reads and zero sorts.  The :class:`repro.api.Graph` facade layers an
  incremental delta-merge on top (see ``repro.api.facade``).

One argument rule, stated here and applied at each public boundary:
:func:`checked_ids` coerces every id column to a contiguous int64 array,
requires equal lengths and requires every id in ``[0, num_vertices)`` — on
*both* columns of a pair batch, for mutations (a bulk build's COO
included) and queries alike.  The template methods apply it once per
call, driven directly or under the :class:`repro.api.Graph` facade (which
only coerces); the shard router
applies it before routing rows by id, then each shard's template again.
Weights must also lie in :attr:`GraphBackend._weight_range`.  A hook
never validates: it receives contiguous, in-range int64 arrays (or one
in-range ``int``) and never writes to them — they may be the caller's.
"""

from __future__ import annotations

import abc
from typing import ClassVar

import numpy as np

from repro.api.capabilities import Capabilities
from repro.api.snapshot import CSRSnapshot
from repro.coo import COO
from repro.util.errors import ValidationError
from repro.util.groupby import sorted_unique
from repro.util.validation import (
    _checked_id,
    as_int_array,
    check_equal_length,
    check_in_range,
    checked_ids,
)

__all__ = [
    "GraphBackend",
    "checked_ids",
    "scan_edge_weights",
]


def scan_edge_weights(src, dst, gather) -> tuple[np.ndarray, np.ndarray]:
    """Shared ``_edge_weights`` engine for scan-based list structures.

    ``gather(verts)`` returns ``(owner_pos, exist_dst, weight_at)`` for the
    unique queried sources, where ``weight_at(hit_indices)`` maps indices
    into the gathered arrays to stored weights (and charges whatever
    counters the structure's scan costs).  The helper does the common
    composite / sort / binary-search sequence once so Hornet- and
    faimGraph-style backends don't each maintain a copy.
    """
    verts = sorted_unique(src)
    owner, exist_dst, weight_at = gather(verts)
    exist_comp = (verts[owner] << np.int64(32)) | exist_dst
    order = np.argsort(exist_comp)
    exist_sorted = exist_comp[order]
    query = (src << np.int64(32)) | dst
    found = np.zeros(src.shape[0], dtype=bool)
    weights = np.zeros(src.shape[0], dtype=np.int64)
    if exist_sorted.size:
        loc = np.searchsorted(exist_sorted, query)
        safe = np.minimum(loc, exist_sorted.shape[0] - 1)
        found = (loc < exist_sorted.shape[0]) & (exist_sorted[safe] == query)
        if found.any():
            weights[found] = weight_at(order[loc[found]])
    return found, weights


def gather_adjacencies(neighbors, vertex_ids) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched ``(owner_pos, destinations, weights)`` via one
    ``neighbors(vertex)`` call per id — the :meth:`GraphBackend._adjacencies`
    default.  ``owner_pos[i]`` indexes ``vertex_ids``.
    """
    vids = as_int_array(vertex_ids, "vertex_ids")
    owner_parts, dst_parts, w_parts = [], [], []
    for pos, v in enumerate(vids.tolist()):
        nbrs, ws = neighbors(v)
        if nbrs.size:
            owner_parts.append(np.full(nbrs.shape[0], pos, dtype=np.int64))
            dst_parts.append(nbrs.astype(np.int64, copy=False))
            w_parts.append(ws.astype(np.int64, copy=False))
    if not owner_parts:
        e = np.empty(0, dtype=np.int64)
        return e, e.copy(), e.copy()
    return (
        np.concatenate(owner_parts),
        np.concatenate(dst_parts),
        np.concatenate(w_parts),
    )


class GraphBackend(abc.ABC):
    """Abstract base for every dynamic graph structure in the package.

    Subclasses must set the class attribute ``capabilities`` and define an
    instance attribute (or property) ``num_vertices`` — the vertex-id space
    ``[0, num_vertices)`` every batched operation validates against — plus
    ``weighted`` reflecting the instance's storage configuration.
    """

    #: Class-level declaration of optional features (see Capabilities).
    capabilities: ClassVar[Capabilities] = Capabilities()

    #: Whether this *instance* stores per-edge weights.
    weighted: bool = False

    #: Whether this *instance* stores directed slots (only the slab-hash
    #: structure has an undirected mode, which mirrors every edge).
    directed: bool = True

    #: ``[lo, hi)`` of a storable weight, or ``None`` where any int64 is
    #: stored exactly; a weight outside it is rejected, never wrapped.
    _weight_range: ClassVar[tuple[int, int] | None] = None

    #: Monotone mutation counter (class default 0; bumps write the instance).
    _mutation_version: int = 0

    #: Last materialized snapshot as ``(version, CSRSnapshot)``; kept across
    #: bumps because the facade's delta-merge uses it as the merge base.
    _snapshot_cache: tuple[int, CSRSnapshot] | None = None

    # -- snapshot versioning ---------------------------------------------------

    @property
    def mutation_version(self) -> int:
        """Monotonically increasing counter of mutating operations.

        Equal versions guarantee an unchanged live edge set; the snapshot
        cache (and any external reader) keys on it.  Bumps are deliberately
        conservative: any mutating call that passes validation with a
        non-empty batch bumps even when it changes nothing (weight
        replacement makes "nothing changed" expensive to prove), so a
        stale version never masquerades as fresh; only empty batches and
        rejected arguments leave the version untouched.
        """
        return self._mutation_version

    def _bump_version(self) -> None:
        """Advance :attr:`mutation_version`; called by every mutating op."""
        self._mutation_version = self._mutation_version + 1

    # -- public batched surface (template methods; subclasses implement hooks) ----

    def insert_edges(self, src, dst, weights=None) -> int:
        """Insert a batch of directed edges; returns edges newly added.

        Self-loops are dropped; duplicates resolve by replace semantics
        (most recent weight wins).  Explicit ``weights`` raise
        :class:`ValidationError` on an unweighted instance, and outside
        :attr:`_weight_range` on any.  A batch that is all self-loops
        bumps the version (it passed validation non-empty) and reaches no
        hook, so it charges nothing.
        """
        src, dst = checked_ids(self.num_vertices, src=src, dst=dst)
        if weights is not None:
            if not self.weighted:
                # Dropping them silently made cross-backend comparisons unsound.
                raise ValidationError(
                    f"{type(self).__name__} instance is unweighted (weighted=False) "
                    "and cannot store edge weights; construct it with weighted=True "
                    "or omit the weights argument"
                )
            weights = as_int_array(weights, "weights")
            check_equal_length(("src", src), ("weights", weights))
            if self._weight_range is not None:
                check_in_range(weights, *self._weight_range, "weights")
        if src.size == 0:
            return 0
        self._bump_version()
        keep = src != dst  # no self-edges (Algorithm 1, line 3)
        if not keep.all():
            src, dst = src[keep], dst[keep]
            weights = None if weights is None else weights[keep]
            if src.size == 0:
                return 0
        return self._insert_edges(src, dst, weights)

    def delete_edges(self, src, dst) -> int:
        """Delete a batch of directed edges; returns edges removed."""
        src, dst = checked_ids(self.num_vertices, src=src, dst=dst)
        if src.size == 0:
            return 0
        self._bump_version()
        return self._delete_edges(src, dst)

    def edge_exists(self, src, dst) -> np.ndarray:
        """Vectorized membership test (the paper's ``edgeExist``)."""
        src, dst = checked_ids(self.num_vertices, src=src, dst=dst)
        if src.size == 0:
            return np.empty(0, dtype=bool)
        return self._edge_exists(src, dst)

    def edge_weights(self, src, dst) -> tuple[np.ndarray, np.ndarray]:
        """``(found, weight)`` per queried pair; weight is 0 where absent."""
        src, dst = checked_ids(self.num_vertices, src=src, dst=dst)
        if src.size == 0:
            return np.empty(0, dtype=bool), np.empty(0, dtype=np.int64)
        return self._edge_weights(src, dst)

    def neighbors(self, vertex: int) -> tuple[np.ndarray, np.ndarray]:
        """One adjacency list as ``(destinations, weights)``."""
        return self._neighbors(self._checked_vertex(vertex))

    def adjacencies(self, vertex_ids) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched adjacency iterator: ``(owner_pos, destinations, weights)``
        where ``owner_pos[i]`` indexes into ``vertex_ids``."""
        (vids,) = checked_ids(self.num_vertices, vertex_ids=vertex_ids)
        return self._adjacencies(vids)

    def degree(self, vertex_ids) -> np.ndarray:
        """Out-degree per requested vertex (a fresh int64 array)."""
        (vids,) = checked_ids(self.num_vertices, vertex_ids=vertex_ids)
        return self._degree(vids)

    def delete_vertices(self, vertex_ids) -> int:
        """Delete vertices and incident edges (Algorithm 2 semantics).

        Refused from the capability flag: a backend without
        ``vertex_dynamic`` raises — matching e.g. real Hornet, which "does
        not implement vertex deletion" (Section VI-A3); one declaring it
        implements ``_delete_vertices``.
        """
        if not self.capabilities.vertex_dynamic:
            raise NotImplementedError(
                f"{type(self).__name__} does not implement vertex deletion "
                "(capability vertex_dynamic=False)"
            )
        (vids,) = checked_ids(self.num_vertices, vertex_ids=vertex_ids)
        if vids.size == 0:
            return 0
        self._bump_version()
        return self._delete_vertices(vids)

    def bulk_build(self, coo: COO) -> int:
        """One-shot build from a COO (Section V-B, Table V) into an empty
        structure; returns edges added.

        The COO's ids must lie in this graph's ``[0, num_vertices)``,
        whatever vertex space it declares.  Its weights are dropped on an
        unweighted instance (a snapshot restore, unlike ``insert_edges``)
        and must lie in :attr:`_weight_range` on a weighted one.  An
        accepted build is one version step, even when it stores nothing;
        self-loops are dropped and repeats resolve by replace semantics.
        """
        if self.num_edges() != 0:
            raise ValidationError("bulk_build requires an empty graph")
        src, dst = checked_ids(self.num_vertices, src=coo.src, dst=coo.dst)
        weights = coo.weights if self.weighted else None
        if weights is not None and self._weight_range is not None:
            check_in_range(weights, *self._weight_range, "weights")
        self._bump_version()
        keep = src != dst
        if not keep.all():
            src, dst = src[keep], dst[keep]
            weights = None if weights is None else weights[keep]
        return self._bulk_build(src, dst, weights) if src.size else 0

    def _checked_vertex(self, vertex) -> int:
        """One caller-supplied vertex id as an in-range ``int``."""
        return _checked_id(vertex, self.num_vertices, "vertex")

    # -- hooks: clean in-range int64 arrays in, no validation, no version bump ------

    @abc.abstractmethod
    def _insert_edges(self, src, dst, weights) -> int:
        """Insert a non-empty, self-loop-free batch (``weights`` may be
        ``None``); returns edges newly added."""

    @abc.abstractmethod
    def _bulk_build(self, src, dst, weights) -> int:
        """Build an empty structure from a non-empty, self-loop-free batch
        that may repeat pairs (``weights`` may be ``None``); returns edges
        stored."""

    @abc.abstractmethod
    def _delete_edges(self, src, dst) -> int:
        """Delete a non-empty batch; returns edges removed."""

    @abc.abstractmethod
    def _edge_exists(self, src, dst) -> np.ndarray:
        """Membership per pair of a non-empty batch."""

    def _edge_weights(self, src, dst) -> tuple[np.ndarray, np.ndarray]:
        """Default for structures that store no weights: membership plus
        zeros.  Weighted backends override with a real value lookup."""
        found = self._edge_exists(src, dst)
        return found, np.zeros(found.shape[0], dtype=np.int64)

    @abc.abstractmethod
    def _neighbors(self, vertex: int) -> tuple[np.ndarray, np.ndarray]:
        """One adjacency list as ``(destinations, weights)``."""

    def _adjacencies(self, vertex_ids) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Default loops over :meth:`_neighbors`; structures with a bulk
        sweep override it."""
        return gather_adjacencies(self._neighbors, vertex_ids)

    @abc.abstractmethod
    def _degree(self, vertex_ids) -> np.ndarray:
        """Out-degree per id, as an array the caller owns."""

    # -- the rest of the required surface -------------------------------------------

    @abc.abstractmethod
    def num_edges(self) -> int:
        """Exact directed-slot edge count."""

    @abc.abstractmethod
    def export_coo(self) -> COO:
        """Snapshot the live edge set."""

    @abc.abstractmethod
    def sorted_adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """``(row_ptr, col_idx)`` sorted CSR view (paying a sort if the
        structure does not maintain order — Table VIII's cost)."""

    def memory_bytes(self) -> int:
        """Bytes currently held in the structure's storage pools."""
        return int(getattr(self, "allocated_bytes", 0))

    def snapshot(self) -> CSRSnapshot:
        """Sorted-CSR snapshot of the live edge set (what analytics read).

        Cached keyed on :attr:`mutation_version`: repeated snapshots of an
        unchanged structure return the same object without re-walking slabs
        or re-sorting (the paper's phase-concurrent usage model — compute
        phases between update phases should not pay the export twice).
        """
        version = self.mutation_version
        cached = self._snapshot_cache
        if cached is not None and cached[0] == version:
            return cached[1]
        snap = CSRSnapshot.from_coo(self.export_coo())
        self._snapshot_cache = (version, snap)
        return snap

    # -- capability helpers ------------------------------------------------------------

    def instance_capabilities(self) -> Capabilities:
        """Class capabilities narrowed by this instance's configuration."""
        return self.capabilities.narrowed(weighted=self.weighted)
