"""The ``Graph`` facade: the batch rule, the event log and snapshot
maintenance over any backend.

The argument rule (coerce to int64, equal lengths, ids in range) is
:func:`repro.api.backend.checked_ids`, which every
:class:`~repro.api.GraphBackend` applies in its public methods.  The
facade applies the same function to mutation batches, because it needs
the clean arrays itself — for the batch rule below and for the events it
publishes — and delegates queries to the backend unchanged.

Quickstart::

    from repro.api import Graph
    g = Graph.create("slabhash", num_vertices=1_000, weighted=True)
    g.insert_edges([0, 1, 2], [1, 2, 0], weights=[5, 6, 7])
    g.edge_exists([0], [1])            # -> array([ True])
    snap = g.snapshot()                # sorted-CSR view for analytics
    g.capabilities                     # Capabilities(...) of the instance

A batch has the paper's one meaning (:func:`normalize_batch`):

- self-loops are dropped (Algorithm 1 line 3);
- duplicates inside a batch resolve in the backend by replace semantics
  ("only the most recent edge and its weight will be stored");
- an insert into a weighted graph without weights stores weight 0;
- weights handed to an unweighted instance raise :class:`ValidationError`
  — never silently dropped.

Event log: every mutation the facade applies is published to a
first-class :class:`repro.eventlog.EventLog` at :attr:`Graph.events` —
normalized edge batches as :class:`~repro.eventlog.EdgeBatch` events and
vertex deletion / bulk build / rehash / tombstone flush as
:class:`~repro.eventlog.StructuralEvent`s, each stamped with the
backend's ``mutation_version`` before and after the dispatch.  Consumers
(the snapshot delta-merge below, :mod:`repro.stream.incremental`'s
analytics, the shard router) read it through cursors; a history whose
version chain does not connect the consumer's last sync to the live
version — an out-of-band backend mutation, or events trimmed past the
log's bounded retention — is detected as a log gap and answered with a
cold rebuild.

Snapshot maintenance rides the same log: when :meth:`Graph.snapshot`
finds the cached snapshot stale but the event window since it complete
and purely edge-batched, it lexsorts only the O(batch) delta and merges
it into the cached sorted CSR (:func:`repro.api.snapshot.merge_csr_delta`)
— O(E + B log B) instead of the O(E log E) full rebuild.  Structural
events, version-chain breaks, and retention gaps fall back to a cold
rebuild automatically; merged snapshots are bit-identical to cold ones
(pinned by the cross-backend contract tests).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.api.backend import GraphBackend, checked_ids
from repro.api.capabilities import Capabilities
from repro.api.registry import create as _create_backend
from repro.api.snapshot import CSRSnapshot, as_snapshot, merge_event_window
from repro.coo import COO
from repro.eventlog import DEFAULT_RETENTION_ROWS, EdgeBatch, EventLog
from repro.util.errors import ValidationError
from repro.util.validation import as_int_array, check_equal_length

__all__ = ["Graph", "normalize_batch"]

#: Largest vertex-id space the ``(src << 32) | dst`` composite-key packing
#: (snapshot delta-merge, shard assembly) can represent: ids must fit in 31
#: bits because ``src << 32`` overflows signed int64 at ``src >= 2**31``,
#: and ``dst`` would collide into the src bits at ``2**32`` regardless.
MAX_PACKABLE_VERTICES = 1 << 31


def _check_packable(num_vertices: int) -> None:
    if num_vertices > MAX_PACKABLE_VERTICES:
        raise ValidationError(
            f"vertex space of {num_vertices} exceeds the facade's "
            "(src << 32) | dst composite-key packing (snapshot delta-merge, "
            f"shard assembly), which supports up to {MAX_PACKABLE_VERTICES} — "
            "larger id spaces would silently collide or overflow int64"
        )


def normalize_batch(
    src,
    dst,
    weights,
    *,
    num_vertices: int,
    weighted: bool,
    fill_default_weight: bool = True,
    backend_name: str = "backend",
):
    """The facade's one batch rule (shared by :class:`Graph` and the shard
    router) over :func:`~repro.api.backend.checked_ids`: reject weights
    on an unweighted graph, drop self-loops (Algorithm 1 line 3), and —
    for an insert, ``fill_default_weight`` — fill a weighted graph's
    absent weights with 0."""
    src, dst = checked_ids(num_vertices, src=src, dst=dst)
    if weights is not None:
        if not weighted:
            raise ValidationError(
                f"graph is unweighted (backend {backend_name}); "
                "weights are not accepted — construct with weighted=True"
            )
        weights = as_int_array(weights, "weights")
        check_equal_length(("src", src), ("weights", weights))
    keep = src != dst
    if not keep.all():
        src, dst = src[keep], dst[keep]
        weights = weights[keep] if weights is not None else None
    if weights is None and weighted and fill_default_weight:
        weights = np.zeros(src.shape[0], dtype=np.int64)
    return src, dst, weights


class Graph:
    """A backend-agnostic dynamic graph with uniform batch normalization.

    Wrap an existing backend instance (``Graph(backend)``) or construct by
    registry name (:meth:`Graph.create`).  Mutations are normalized here,
    then dispatched and published; queries delegate to the backend, which
    validates them; capability-gated operations raise a clear
    :class:`ValidationError` naming the missing flag instead of an
    ``AttributeError`` from a missing method.
    """

    def __init__(
        self,
        backend: GraphBackend,
        *,
        event_retention: int = DEFAULT_RETENTION_ROWS,
    ) -> None:
        if isinstance(backend, str):
            raise ValidationError(
                "Graph() wraps a backend instance; use "
                "Graph.create(name, num_vertices=...) to construct by name"
            )
        _check_packable(int(backend.num_vertices))
        self.backend = backend
        if event_retention < 0:
            raise ValidationError("event_retention must be non-negative")
        #: The first-class event log every facade mutation publishes to;
        #: it retains at most ``event_retention`` rows.
        self.events = EventLog(retention_rows=int(event_retention))
        self._snap_cursor = self.events.cursor()

    @classmethod
    def create(
        cls,
        name: str,
        num_vertices: int,
        *,
        weighted: bool = False,
        event_retention: int = DEFAULT_RETENTION_ROWS,
        **backend_kwargs: Any,
    ) -> "Graph":
        """Construct a registered backend by name and wrap it."""
        backend = _create_backend(name, num_vertices, weighted=weighted, **backend_kwargs)
        return cls(backend, event_retention=event_retention)

    # -- identity ---------------------------------------------------------------

    @property
    def capabilities(self) -> Capabilities:
        """Capabilities of the wrapped *instance* (class flags narrowed by
        construction choices such as ``weighted=False``)."""
        return self.backend.instance_capabilities()

    @property
    def num_vertices(self) -> int:
        """Current vertex-id space (ids addressable without growth)."""
        return int(self.backend.num_vertices)

    @property
    def vertex_capacity(self) -> int:
        """Alias of :attr:`num_vertices` (the slab-hash structure's name)."""
        return self.num_vertices

    @property
    def weighted(self) -> bool:
        """Whether this instance stores per-edge weights."""
        return bool(self.backend.weighted)

    @property
    def directed(self) -> bool:
        """Whether the backend stores directed slots (undirected backends
        mirror every edge internally)."""
        return bool(self.backend.directed)

    @property
    def mutation_version(self):
        """The backend's monotone mutation version."""
        return self.backend.mutation_version

    # -- batch normalization ------------------------------------------------------

    def _normalize(self, src, dst, weights, *, fill_default_weight: bool = True):
        return normalize_batch(
            src,
            dst,
            weights,
            num_vertices=self.num_vertices,
            weighted=self.weighted,
            fill_default_weight=fill_default_weight,
            backend_name=type(self.backend).__name__,
        )

    # -- mutation -----------------------------------------------------------------

    def insert_edges(self, src, dst, weights=None) -> int:
        """Batched edge insertion (replace semantics); returns edges added."""
        src, dst, weights = self._normalize(src, dst, weights)
        if src.size == 0:
            return 0
        before = self.mutation_version
        added = int(self.backend.insert_edges(src, dst, weights))
        self._publish_edges(True, src, dst, weights, before)
        return added

    def delete_edges(self, src, dst) -> int:
        """Batched edge deletion; returns edges actually removed."""
        src, dst, _ = self._normalize(src, dst, None, fill_default_weight=False)
        if src.size == 0:
            return 0
        before = self.mutation_version
        removed = int(self.backend.delete_edges(src, dst))
        self._publish_edges(False, src, dst, None, before)
        return removed

    def delete_vertices(self, vertex_ids) -> int:
        """Delete vertices and incident edges (capability-gated).

        Not expressible as an edge delta (incident edges live in other
        rows), so a structural event is published and event-log consumers
        — the next :meth:`snapshot` included — rebuild cold.
        """
        self._require("vertex_dynamic")
        (vids,) = checked_ids(self.num_vertices, vertex_ids=vertex_ids)
        if vids.size == 0:
            return 0
        before = self.mutation_version
        removed = int(self.backend.delete_vertices(vids))
        # The payload (a copy — the event outlives the caller's buffer)
        # lets replay consumers (the WAL, read replicas) re-apply this.
        self._publish_structural("delete_vertices", before, payload=vids.copy())
        return removed

    def bulk_build(self, coo: COO) -> int:
        """One-shot build from a COO snapshot (requires an empty graph).

        A weighted COO loads into an unweighted graph by *dropping* weights
        — a snapshot restore, unlike :meth:`insert_edges`, which rejects
        explicit weights on unweighted instances.
        """
        # Backends grow their vertex space to fit the COO, so the
        # construction-time packing guard must be re-checked here.
        _check_packable(int(coo.num_vertices))
        if coo.weights is not None and not self.weighted:
            coo = COO(coo.src, coo.dst, coo.num_vertices, weights=None)
        before = self.mutation_version
        built = int(self.backend.bulk_build(coo))
        self._publish_structural(
            "bulk_build",
            before,
            payload=COO(
                coo.src.copy(),
                coo.dst.copy(),
                coo.num_vertices,
                weights=None if coo.weights is None else coo.weights.copy(),
            ),
        )
        return built

    def restore_snapshot(self, snap: CSRSnapshot) -> int:
        """Load a checkpointed :class:`CSRSnapshot` into this (empty)
        graph — the restore half of the durability layer in
        :mod:`repro.persist`.  Equivalent to ``bulk_build(snap.to_coo())``;
        a later :meth:`snapshot` is bit-identical to ``snap``.
        """
        return self.bulk_build(snap.to_coo())

    # -- queries --------------------------------------------------------------------

    def edge_exists(self, src, dst) -> np.ndarray:
        """Boolean membership per ``(src, dst)`` pair (batched probe)."""
        return self.backend.edge_exists(src, dst)

    def edge_weights(self, src, dst) -> tuple[np.ndarray, np.ndarray]:
        """Per-pair ``(found, weight)`` arrays; weight is 0 where absent."""
        return self.backend.edge_weights(src, dst)

    def neighbors(self, vertex: int) -> tuple[np.ndarray, np.ndarray]:
        """One vertex's ``(destinations, weights)`` adjacency arrays."""
        return self.backend.neighbors(vertex)

    def adjacencies(self, vertex_ids) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched adjacency iterator ``(owner_pos, destinations, weights)``."""
        return self.backend.adjacencies(vertex_ids)

    def degree(self, vertex_ids) -> np.ndarray:
        """Out-degree per requested vertex (uniform across backends)."""
        return self.backend.degree(vertex_ids)

    def num_edges(self) -> int:
        """Live edge count (directed slot count for directed backends)."""
        return int(self.backend.num_edges())

    def memory_bytes(self) -> int:
        """Modeled resident bytes of the backend structure."""
        return int(self.backend.memory_bytes())

    def export_coo(self) -> COO:
        """Unsorted COO export of the live edge set (cold full scan)."""
        return self.backend.export_coo()

    def sorted_adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-vertex-sorted ``(offsets, destinations)`` CSR arrays."""
        return self.backend.sorted_adjacency()

    def snapshot(self) -> CSRSnapshot:
        """Sorted-CSR snapshot — the uniform view analytics consume.

        Three cost tiers, chosen automatically:

        1. **cached** — the backend is unchanged since the last snapshot:
           return the same object, zero work;
        2. **incremental** — the event-log window since the cached
           snapshot passes :meth:`repro.eventlog.EventCursor.window` (no
           retention gap, purely edge batches, version chain from the
           cached version to the live one): sort the O(batch) delta and
           merge it into the cached sorted CSR (O(E + B log B));
        3. **cold** — anything else (structural events, version-chain
           breaks from out-of-band backend mutations, retention gaps):
           full export + O(E log E) sort.
        """
        backend = self.backend
        version = backend.mutation_version
        cached = backend._snapshot_cache
        base = None if cached is None else cached[0]
        window = self._snap_cursor.window(lambda e: isinstance(e, EdgeBatch), base, version)
        if window:
            snap = merge_event_window(cached[1], window, directed=self.directed)
            backend._snapshot_cache = (version, snap)
        else:
            # Cache hit or cold rebuild — both version-keyed by the
            # backend's own snapshot() (as_snapshot also admits foreign
            # graph objects that only expose export_coo).
            snap = as_snapshot(backend)
        return snap

    def neighbor_range(self, vertex: int, lo: int, hi: int) -> np.ndarray:
        """Neighbors with ids in ``[lo, hi)`` (capability-gated: only
        sorted structures serve this without a scan — Section VII)."""
        self._require("range_queries")
        return self.backend.neighbor_range(vertex, lo, hi)

    # -- maintenance -------------------------------------------------------------------

    def rehash(self, vertex_ids=None, load_factor: float | None = None) -> int:
        """Rebuild hash structures toward ``load_factor``; returns the
        number of rebuilt vertices (capability-gated; publishes a
        structural event, so subscribers rebuild cold)."""
        self._require("rehash")
        before = self.mutation_version
        rebuilt = int(self.backend.rehash(vertex_ids, load_factor))
        self._publish_structural("rehash", before)
        return rebuilt

    def flush_tombstones(self, vertex_ids=None) -> None:
        """Compact deletion tombstones (capability-gated; publishes a
        structural event, so subscribers rebuild cold)."""
        self._require("tombstone_flush")
        before = self.mutation_version
        self.backend.flush_tombstones(vertex_ids)
        self._publish_structural("flush_tombstones", before)

    # -- event publishing --------------------------------------------------------------

    def _publish_edges(self, is_insert: bool, src, dst, weights, before_version) -> None:
        # Undirected backends mirror each batch internally; the mirrored
        # rows are added at merge time but accounted against retention
        # (and the merge's sort charge) here.
        rows = int(src.shape[0]) * (1 if self.directed else 2)
        self.events.publish_edge_batch(
            is_insert,
            src,
            dst,
            weights,
            before_version=before_version,
            after_version=self.mutation_version,
            rows=rows,
        )

    def _publish_structural(self, reason: str, before_version, payload=None) -> None:
        self.events.publish_structural(
            reason,
            before_version=before_version,
            after_version=self.mutation_version,
            payload=payload,
        )
        # A backend snapshot cache that is now stale can no longer serve
        # either a hit or a merge base, so release its O(E) arrays rather
        # than pinning them until the next snapshot.
        backend = self.backend
        cache = backend._snapshot_cache
        if cache is not None and cache[0] != backend.mutation_version:
            backend._snapshot_cache = None

    @property
    def _delta_rows(self) -> int:
        """Pending snapshot-merge rows (mirror-adjusted; test hook)."""
        return self._snap_cursor.pending_rows()

    # -- plumbing ----------------------------------------------------------------------

    def _require(self, flag: str) -> None:
        caps = self.capabilities
        if not getattr(caps, flag):
            raise ValidationError(
                f"backend {type(self.backend).__name__} does not support this "
                f"operation (capability {flag}=False)"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Graph({type(self.backend).__name__}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges()}, weighted={self.weighted})"
        )
