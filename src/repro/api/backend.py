"""The :class:`GraphBackend` protocol every dynamic structure implements.

The paper is a comparison of one structure against four competitors; this
ABC is the contract that makes the comparison (and every consumer —
analytics, bench harness, examples) backend-agnostic:

- **required surface** (abstract): ``insert_edges``, ``delete_edges``,
  ``edge_exists``, ``neighbors``, ``num_edges``, ``bulk_build``,
  ``export_coo``, ``sorted_adjacency``;
- **derived defaults** (overridable): ``edge_weights``, ``degree``,
  ``adjacencies``, ``delete_vertices`` (raises unless the capability is
  declared), ``memory_bytes``, ``snapshot``;
- a class-level :class:`~repro.api.capabilities.Capabilities` declaration,
  narrowed per instance by :meth:`instance_capabilities`;
- **snapshot versioning**: every mutating operation calls
  :meth:`_bump_version` so :attr:`mutation_version` increases monotonically.
  The default :meth:`snapshot` keys its cached :class:`CSRSnapshot` on that
  version — a snapshot of an unchanged structure is O(1) and performs zero
  slab reads and zero sorts.  The :class:`repro.api.Graph` facade layers an
  incremental delta-merge on top (see ``repro.api.facade``).

Backends keep their own boundary validation so they remain safe to drive
directly; the :class:`repro.api.Graph` facade performs the same
normalization once and the (fast-pathed) re-coercion inside the backend is
then a no-op on already-clean int64 arrays.
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
from repro.util.validation import as_int_array, check_in_range

__all__ = [
    "GraphBackend",
    "degree_array",
    "gather_adjacencies",
    "scan_edge_weights",
]


def scan_edge_weights(graph, src, dst, gather) -> tuple[np.ndarray, np.ndarray]:
    """Shared ``edge_weights`` engine for scan-based list structures.

    ``gather(verts)`` returns ``(owner_pos, exist_dst, weight_at)`` for the
    unique queried sources, where ``weight_at(hit_indices)`` maps indices
    into the gathered arrays to stored weights (and charges whatever
    counters the structure's scan costs).  The helper does the common
    validate / composite / sort / binary-search sequence once so Hornet-
    and faimGraph-style backends don't each maintain a copy.
    """
    src = as_int_array(src, "src")
    dst = as_int_array(dst, "dst")
    if src.shape[0] != dst.shape[0]:
        raise ValidationError(f"length mismatch: src has {src.shape[0]}, dst has {dst.shape[0]}")
    if src.size == 0:
        return np.empty(0, dtype=bool), np.empty(0, dtype=np.int64)
    check_in_range(src, 0, graph.num_vertices, "src")
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


def gather_adjacencies(graph, vertex_ids) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched ``(owner_pos, destinations, weights)`` via per-vertex
    :meth:`neighbors` calls — the generic adjacency sweep shared by the
    :meth:`GraphBackend.adjacencies` default and the analytics fallback
    for foreign graph objects.  ``owner_pos[i]`` indexes ``vertex_ids``.
    """
    vids = as_int_array(vertex_ids, "vertex_ids")
    owner_parts, dst_parts, w_parts = [], [], []
    for pos, v in enumerate(vids.tolist()):
        nbrs, ws = graph.neighbors(int(v))
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


class DegreeView(np.ndarray):
    """An out-degree array that is *also* callable like the protocol method.

    The list baselines maintain degrees as a plain per-vertex ndarray and
    index it internally (``self.degree[src]``); the protocol (and the
    ``Graph`` facade) want a uniform ``degree(vertex_ids) -> ndarray``
    callable.  This ndarray subclass serves both: indexing, reductions and
    ufuncs behave exactly like the underlying array, while calling it
    validates the ids and gathers a copy — the same semantics as
    :meth:`repro.core.DynamicGraph.degree`.
    """

    def __call__(self, vertex_ids) -> np.ndarray:
        vids = as_int_array(vertex_ids, "vertex_ids")
        check_in_range(vids, 0, self.shape[0], "vertex_ids")
        return np.asarray(self)[vids].copy()


def degree_array(doc: str | None = None) -> property:
    """A property that stores any assigned array as a :class:`DegreeView`.

    Backends assign and mutate ``self.degree`` freely (including rebinding
    to the result of ``np.bincount``); the setter re-wraps so the public
    attribute always satisfies the callable protocol.
    """

    def fget(self):
        return self._degree_view

    def fset(self, value):
        self._degree_view = np.asarray(value, dtype=np.int64).view(DegreeView)

    return property(fget, fset, doc=doc or "Per-vertex out-degree (indexable and callable).")


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

    # -- required batched surface ----------------------------------------------

    @abc.abstractmethod
    def insert_edges(self, src, dst, weights=None) -> int:
        """Insert a batch of directed edges; returns edges newly added.

        Self-loops are dropped; duplicates resolve by replace semantics
        (most recent weight wins).  Unweighted instances must reject
        explicit ``weights`` with :class:`ValidationError`.
        """

    @abc.abstractmethod
    def delete_edges(self, src, dst) -> int:
        """Delete a batch of directed edges; returns edges removed."""

    @abc.abstractmethod
    def edge_exists(self, src, dst) -> np.ndarray:
        """Vectorized membership test (the paper's ``edgeExist``)."""

    @abc.abstractmethod
    def neighbors(self, vertex: int) -> tuple[np.ndarray, np.ndarray]:
        """One adjacency list as ``(destinations, weights)``."""

    @abc.abstractmethod
    def num_edges(self) -> int:
        """Exact directed-slot edge count."""

    @abc.abstractmethod
    def bulk_build(self, coo: COO) -> int:
        """One-shot build from a COO snapshot; requires an empty structure."""

    @abc.abstractmethod
    def export_coo(self) -> COO:
        """Snapshot the live edge set."""

    @abc.abstractmethod
    def sorted_adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """``(row_ptr, col_idx)`` sorted CSR view (paying a sort if the
        structure does not maintain order — Table VIII's cost)."""

    # -- derived defaults ----------------------------------------------------------

    def degree(self, vertex_ids) -> np.ndarray:
        """Out-degree per requested vertex.

        Baselines shadow this with a :func:`degree_array` property (O(1)
        gathers from maintained counters); this fallback walks adjacency.
        """
        vids = as_int_array(vertex_ids, "vertex_ids")
        check_in_range(vids, 0, self.num_vertices, "vertex_ids")
        return np.array(
            [self.neighbors(int(v))[0].shape[0] for v in vids.tolist()],
            dtype=np.int64,
        )

    def edge_weights(self, src, dst) -> tuple[np.ndarray, np.ndarray]:
        """``(found, weight)`` per queried pair.

        Default suits unweighted instances: membership plus zero weights.
        Weighted backends override with a real value lookup.
        """
        found = self.edge_exists(src, dst)
        return found, np.zeros(found.shape[0], dtype=np.int64)

    def adjacencies(self, vertex_ids) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched adjacency iterator: ``(owner_pos, destinations, weights)``.

        ``owner_pos[i]`` indexes into ``vertex_ids``.  The default loops
        over :meth:`neighbors`; structures with a bulk sweep override it.
        """
        vids = as_int_array(vertex_ids, "vertex_ids")
        if vids.size:
            check_in_range(vids, 0, self.num_vertices, "vertex_ids")
        return gather_adjacencies(self, vids)

    def delete_vertices(self, vertex_ids) -> int:
        """Delete vertices and incident edges (Algorithm 2 semantics).

        Backends without the ``vertex_dynamic`` capability inherit this
        refusal — matching e.g. real Hornet, which "does not implement
        vertex deletion" (Section VI-A3).
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement vertex deletion "
            "(capability vertex_dynamic=False)"
        )

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

    def _reject_weights_if_unweighted(self, weights) -> None:
        """Shared guard: explicit weights on an unweighted instance error.

        Unweighted structures used to drop weights silently, which made
        cross-backend comparisons quietly unsound; the contract now
        requires a loud failure.
        """
        if weights is not None and not self.weighted:
            raise ValidationError(
                f"{type(self).__name__} instance is unweighted (weighted=False) "
                "and cannot store edge weights; construct it with weighted=True "
                "or omit the weights argument"
            )
