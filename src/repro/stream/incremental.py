"""Delta-aware incremental analytics: cursor consumers of the event log.

A compute phase in a streaming workload does not need to recompute a
whole-graph analytic from scratch when only a small batch of edges changed
since the last phase.  The classes here hold an
:class:`repro.eventlog.EventCursor` on a facade's event log
(:attr:`repro.api.Graph.events` — the sharded facade in
:mod:`repro.api.sharding` publishes the same log) and fold the pending
events into their state at query time:

- :class:`IncrementalConnectedComponents` — a union-find forest updated in
  O(batch α) per insert-only batch; deletions and structural events fall
  back to a cold re-label automatically.  Labels are always exactly equal
  to :func:`repro.analytics.connected_components` on the live snapshot.
- :class:`IncrementalPageRank` — warm-start power iteration seeded from
  the previous phase's ranks.  The residual after a small delta is
  localized around the touched vertices and far below the O(1) residual
  of a uniform cold start, so the same ``tol`` is reached in far fewer
  sweeps; results match a cold :func:`repro.analytics.pagerank` within
  ``tol``.  An unchanged graph returns the cached ranks with zero sweeps.
- :class:`IncrementalTriangleCount` — the undirected triangle count
  maintained by a net-window fold: the pending insert *and* delete
  batches reduce to the undirected edges that genuinely left or arrived,
  the triangles through them are closed through the *same*
  :func:`repro.analytics.wedges.closing_wedges` kernel the Table VII/IX
  paths use (``T' = T - D + A``), and the cached symmetric CSR absorbs
  both sets in one :func:`repro.api.snapshot.merge_csr_delta`.  Always
  exactly equal to :func:`repro.analytics.undirected_triangles` on the
  live snapshot.
- :class:`IncrementalBFS` / :class:`IncrementalSSSP` — distance arrays
  repaired by frontier re-relaxation seeded from the delta-touched
  vertices (insert-only windows can only shorten distances, so relaxing
  outward from the new edges' endpoints converges on the exact new
  fixpoint).  Deletions — and, for SSSP, a replace-semantics upsert that
  *grew* an existing edge's weight — trigger a cold re-run.
- :class:`IncrementalKCore` — fixed-``k`` core membership repaired by
  candidate-set peeling: on insert-only windows the core can only grow,
  and only non-core vertices with live degree ≥ k can join, so peeling
  that candidate set with the old core credited as permanent neighbours
  is exact.  Always equal to :func:`repro.analytics.kcore_membership` on
  the live snapshot.

Staleness can never masquerade as freshness: a consumed window must be a
complete history (no retention gap — the cursor detects events trimmed
past the log's bounded retention) whose version chain connects the
consumer's last sync to the live ``mutation_version``.  A mutation
applied to the backend behind the facade's back breaks that chain and is
answered with a cold recompute — one shared log-gap check instead of the
per-consumer version bookkeeping each analytic used to reimplement.

Every class charges the device model for its incremental work (union-find
traffic, warm sweeps, probes, gathers, peel rounds), so the ``t11`` stream
bench prices it against the full-recompute baseline honestly.
"""

from __future__ import annotations

import numpy as np

from repro.analytics.bfs import bfs
from repro.analytics.connected_components import connected_components
from repro.analytics.kcore import kcore_membership
from repro.analytics.pagerank import power_iteration
from repro.analytics.sssp import sssp
from repro.analytics.wedges import canonical_edge_keys, closing_wedges, split_keys, symmetric_csr
from repro.api.snapshot import CSRSnapshot, merge_csr_delta
from repro.eventlog import EdgeBatch, EventLog
from repro.gpusim.counters import get_counters
from repro.util.errors import ValidationError
from repro.util.groupby import last_occurrence_mask, sorted_unique

__all__ = [
    "IncrementalConnectedComponents",
    "IncrementalPageRank",
    "IncrementalTriangleCount",
    "IncrementalBFS",
    "IncrementalSSSP",
    "IncrementalKCore",
]

#: Unreachable sentinel shared with :func:`repro.analytics.sssp` (headroom
#: below int64 max so ``dist + weight`` relaxation cannot overflow).
_INF = np.iinfo(np.int64).max // 4


class IncrementalAnalytic:
    """Base class wiring an analytic onto a facade's event log.

    The base class owns the cursor, the gap/version-chain detection, the
    stale flag and the *pending window*: at query time every pending event
    the subclass :meth:`_absorbs` is appended to ``_pending`` while the
    version chain stays connected; anything else marks the state stale.
    Subclasses supply the cold :meth:`_rebuild` and the window
    :meth:`_repair`; :meth:`_refresh` picks between them and re-anchors
    only once the new state is computed.
    """

    def __init__(self, graph) -> None:
        events = getattr(graph, "events", None)
        if not isinstance(events, EventLog):
            raise ValidationError(
                "incremental analytics consume a facade event log "
                "(repro.api.Graph or ShardedGraph), got "
                f"{type(graph).__name__}"
            )
        self.graph = graph
        self._cursor = events.cursor()
        self._stale = True
        self._synced_version = -1
        self._pending: list = []
        #: How the last query was served: "incremental", "warm", "cold",
        #: or "cached".
        self.last_mode: str | None = None

    def close(self) -> None:
        """Detach from the event log (queries then always re-derive the
        live answer via the version check)."""
        self._cursor = None

    # -- event folding -----------------------------------------------------------

    def _absorbs(self, event) -> bool:
        """Whether ``event`` can be folded without a cold pass.  Default:
        insert batches only — a deletion can split a component, lengthen a
        path or demote a core member, and only a cold pass can tell."""
        return isinstance(event, EdgeBatch) and event.is_insert

    def _fold_event(self, event) -> None:
        if self._stale:
            return  # the pending cold pass will absorb this event too
        if not self._absorbs(event) or event.before_version != self._synced_version:
            # Not absorbable, or the version chain does not connect our
            # last sync to this batch — something mutated the backend
            # out-of-band between them.  Folding the batch anyway would
            # mask the missed change behind a fresh-looking version.
            self._stale = True
            return
        self._pending.append(event)
        self._synced_version = event.after_version

    def _drain(self) -> None:
        """Fold every pending event; a retention gap marks the state stale
        (trimmed events are an unknowable history)."""
        if self._cursor is None:
            return
        events, gapped = self._cursor.poll()
        if gapped:
            self._stale = True
        for event in events:
            self._fold_event(event)

    # -- plumbing ----------------------------------------------------------------

    def _rebuild(self) -> None:
        """Recompute the state cold from the live snapshot."""
        raise NotImplementedError

    def _repair(self, window) -> bool:
        """Fold the absorbed ``window`` into the state; False means it
        turned out not to be foldable and the caller rebuilds cold."""
        raise NotImplementedError

    def _refresh(self) -> None:
        """Bring the state up to the live graph and record ``last_mode``."""
        self._drain()
        repairable = self._in_sync()
        if repairable and not self._pending:
            self.last_mode = "cached"
            return
        # Stale until the new state commits: a repair or rebuild that
        # raises leaves the next query cold, never the old answer as fresh.
        self._stale = True
        if repairable and self._repair(self._pending):
            mode = "incremental"
        else:
            self._rebuild()
            mode = "cold"
        self._reanchor()
        self.last_mode = mode

    def _reanchor(self) -> None:
        """Mark the state in sync with the live graph (call only after the
        new state is assigned)."""
        self._pending.clear()
        self._stale = False
        self._synced_version = self._live_version()
        if self._cursor is not None:
            self._cursor.poll()  # the snapshot absorbed everything pending

    def _live_version(self) -> int:
        version = getattr(self.graph, "mutation_version", None)
        return -1 if version is None else int(version)

    def _in_sync(self) -> bool:
        return not self._stale and self._synced_version == self._live_version()


class IncrementalConnectedComponents(IncrementalAnalytic):
    """Connected-component labels maintained from the event log.

    Insert-only windows are folded into a union-find forest (union by
    minimum root, path halving) in O(batch α); each new edge is one union.
    Deletions can split components, so a delete batch — like any
    structural event, retention gap, or version-chain break — marks the
    forest stale and the next :meth:`labels` call re-labels cold from the
    live snapshot.  After the cold pass the forest is rebuilt from the
    labels themselves (every vertex points at its component's minimum id,
    which is a union-find fixpoint), so streaming resumes incrementally.

    :meth:`labels` is always exactly equal to
    :func:`repro.analytics.connected_components` on the live snapshot.
    """

    def __init__(self, graph) -> None:
        super().__init__(graph)
        self._parent: np.ndarray | None = None
        self._rebuild()
        self._reanchor()

    # -- event folding -----------------------------------------------------------

    def _fold_event(self, event) -> None:
        super()._fold_event(event)
        if not self._pending:
            return
        # Absorbed: union it now — a forest has no use for a deferred window.
        event = self._pending.pop()
        parent = self._parent
        counters = get_counters()
        counters.atomics += int(event.src.shape[0])
        counters.bytes_copied += int(event.src.shape[0]) * 16
        for a, b in zip(event.src.tolist(), event.dst.tolist()):
            ra, rb = _find(parent, a), _find(parent, b)
            if ra == rb:
                continue
            # Union by minimum root keeps every root the smallest id of
            # its component — exactly the label connected_components emits.
            if ra < rb:
                parent[rb] = ra
            else:
                parent[ra] = rb

    # -- queries ------------------------------------------------------------------

    def labels(self) -> np.ndarray:
        """Component label per vertex (= smallest id in the component)."""
        self._drain()
        if not self._in_sync():
            self._rebuild()
            self._reanchor()
            self.last_mode = "cold"
            return self._parent.copy()
        # Vectorized pointer-jump to the (min-id) roots; keep the
        # compressed forest so repeated queries are one pass.
        counters = get_counters()
        p = self._parent
        while True:
            counters.kernel_launches += 1
            counters.bytes_copied += 2 * p.shape[0] * 8
            q = p[p]
            if np.array_equal(q, p):
                break
            p = q
        self._parent = p
        self.last_mode = "incremental"
        return p.copy()

    # -- plumbing ----------------------------------------------------------------

    def _rebuild(self) -> None:
        # The label array doubles as a valid union-find forest: each
        # vertex points at its component's min id, roots point at
        # themselves.
        self._parent = connected_components(self.graph.snapshot()).copy()


def _find(parent: np.ndarray, x: int) -> int:
    """Union-find root of ``x`` with path halving."""
    x = int(x)
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = int(parent[x])
    return x


class IncrementalPageRank(IncrementalAnalytic):
    """PageRank maintained by warm-start power iteration.

    The previous phase's ranks are already within ``tol`` of the old
    fixpoint; after an O(batch) delta the new fixpoint moved by a
    correspondingly small, delta-localized amount (the initial residual
    is concentrated on the touched vertices and their neighborhoods), so
    re-iterating from the previous ranks reaches the same ``tol`` in far
    fewer sweeps than a uniform cold start.  Warm starting is always
    exact-within-``tol``: the sweep operator contracts to the unique
    fixpoint from any start vector, so even structural events only cost
    extra sweeps, never correctness.  An unchanged graph returns the
    cached ranks with zero sweeps.

    ``touched_count`` reports how many distinct vertices the deltas since
    the last compute touched (the locality the warm start exploits).
    """

    def __init__(
        self,
        graph,
        damping: float = 0.85,
        tol: float = 1e-8,
        max_iters: int = 100,
    ) -> None:
        if not (0.0 < damping < 1.0):
            raise ValidationError("damping must be in (0, 1)")
        super().__init__(graph)
        self.damping = float(damping)
        self.tol = float(tol)
        self.max_iters = int(max_iters)
        self._ranks: np.ndarray | None = None
        self._touched: np.ndarray | None = None
        #: Sweeps the last compute() needed (0 when served from cache).
        self.last_sweeps = 0

    # -- event folding -----------------------------------------------------------

    def _fold_event(self, event) -> None:
        if isinstance(event, EdgeBatch):
            if self._touched is not None:
                self._touched[event.src] = True
                self._touched[event.dst] = True
        else:
            self._stale = True
            # A structural event may have resized the vertex space (bulk
            # build growth); the mask is re-allocated at the next compute.
            self._touched = None

    # -- queries ------------------------------------------------------------------

    @property
    def touched_count(self) -> int:
        """Distinct vertices touched by deltas since the last compute."""
        self._drain()
        return int(self._touched.sum()) if self._touched is not None else 0

    def compute(self) -> np.ndarray:
        """Current PageRank scores (within ``tol`` of a cold computation)."""
        self._drain()
        if self._ranks is not None and self._in_sync():
            self.last_mode, self.last_sweeps = "cached", 0
            return self._ranks.copy()
        snap = self.graph.snapshot()
        n = snap.num_vertices
        if self._ranks is not None and self._ranks.shape[0] == n:
            # Warm start: renormalize the previous solution (edge churn
            # shifts mass only near the delta-touched vertices).
            rank = self._ranks / self._ranks.sum()
            self.last_mode = "warm"
        else:
            rank = np.full(n, 1.0 / n, dtype=np.float64)
            self.last_mode = "cold"
        rank, sweeps = power_iteration(
            snap, rank, damping=self.damping, tol=self.tol, max_iters=self.max_iters
        )
        self._ranks = rank
        self._touched = np.zeros(n, dtype=bool)
        self._reanchor()
        self.last_sweeps = sweeps
        return rank.copy()


def _sorted_member(haystack: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Membership of ``needles`` in a sorted unique ``haystack`` (charged
    one ``sorted_probes`` per needle — it is a batched binary search)."""
    if haystack.shape[0] == 0 or needles.shape[0] == 0:
        return np.zeros(needles.shape[0], dtype=bool)
    get_counters().add("sorted_probes", int(needles.shape[0]))
    loc = np.searchsorted(haystack, needles)
    safe = np.minimum(loc, haystack.shape[0] - 1)
    return (loc < haystack.shape[0]) & (haystack[safe] == needles)


def _composite(snap: CSRSnapshot) -> np.ndarray:
    """The snapshot's globally sorted ``(src << 32) | dst`` edge keys
    (charged as one pass over the edge stream)."""
    get_counters().bytes_copied += snap.num_edges * 8
    return snap.keys()


def _mirrored(keys: np.ndarray) -> np.ndarray:
    """Both orientations of canonical ``u < v`` keys as one sorted array
    (the O(B log B) delta sort, charged as ``sorted_elements``)."""
    u, v = split_keys(keys)
    both = np.sort(np.concatenate([keys, (v << np.int64(32)) | u]))
    get_counters().sorted_elements += int(both.shape[0])
    return both


def _triangles_through(sym: CSRSnapshot, comp: np.ndarray, keys: np.ndarray) -> int:
    """Triangles of the symmetric CSR ``sym`` (composite ``comp``) with at
    least one edge among the sorted canonical ``keys``, each counted once:
    a closed wedge is credited to the triangle's *largest* key in ``keys``."""
    if keys.shape[0] == 0:
        return 0
    ku, kv = split_keys(keys)
    edge_of, w = closing_wedges(sym.row_ptr, sym.col_idx, comp, ku, kv, return_hits=True)
    if edge_of.shape[0] == 0:
        return 0
    hu, hv, key_uv = ku[edge_of], kv[edge_of], keys[edge_of]
    e1 = (np.minimum(hu, w) << np.int64(32)) | np.maximum(hu, w)
    e2 = (np.minimum(hv, w) << np.int64(32)) | np.maximum(hv, w)
    ok = (~_sorted_member(keys, e1) | (e1 < key_uv)) & (
        ~_sorted_member(keys, e2) | (e2 < key_uv)
    )
    return int(ok.sum())


class IncrementalTriangleCount(IncrementalAnalytic):
    """The undirected triangle count maintained from the event log.

    State is the symmetric sorted CSR of the graph's undirected view (its
    canonical ``u < v`` edges mirrored) plus the current count ``T``.  The
    whole pending window — insert *and* delete batches — folds once at
    query time in O(E + B log E): the window reduces to the canonical keys
    it touched; ``was`` (member of the cached CSR) against ``now`` (either
    orientation live — probed only when the window holds a delete batch,
    an insert-only window leaves every touched key live) splits off the
    undirected edges that genuinely left (``removed``) or arrived
    (``added``), so absent-edge deletes, replace-semantics upserts,
    reversed duplicates and insert-then-delete pairs are all no-ops.  Then
    ``T' = T - D + A``: ``D`` the triangles of the old CSR through a
    removed edge, ``A`` the triangles of the merged CSR
    (:func:`repro.api.snapshot.merge_csr_delta`) through an added edge,
    both closed through the shared Table VII/IX wedge kernel
    (:func:`repro.analytics.wedges.closing_wedges`).

    Structural events, retention gaps, and version-chain breaks mark the
    state stale; the next :meth:`count` rebuilds cold — the same
    symmetrize-and-close pass as
    :func:`repro.analytics.undirected_triangles`, to which the result is
    always exactly equal on the live snapshot.
    """

    def __init__(self, graph) -> None:
        """Attach to ``graph``'s event log and cold-build the initial
        symmetric CSR and count."""
        super().__init__(graph)
        self._sym: CSRSnapshot | None = None
        self._count = 0
        self._rebuild()
        self._reanchor()

    def _absorbs(self, event) -> bool:
        return isinstance(event, EdgeBatch)  # deletions fold too

    # -- queries ------------------------------------------------------------------

    def count(self) -> int:
        """Triangles in the undirected view of the live graph (exactly
        :func:`repro.analytics.undirected_triangles` of the snapshot)."""
        self._refresh()
        return self._count

    # -- plumbing ----------------------------------------------------------------

    def _repair(self, window) -> bool:
        counters = get_counters()
        src = np.concatenate([e.src for e in window])
        dst = np.concatenate([e.dst for e in window])
        counters.bytes_copied += int(src.shape[0]) * 16
        touched = canonical_edge_keys(src, dst)
        was = _sorted_member(self._sym.keys(), touched)
        if all(e.is_insert for e in window):
            now = np.ones_like(was)  # nothing left the graph
        else:
            live = _composite(self.graph.snapshot())
            u, v = split_keys(touched)
            now = _sorted_member(live, touched) | _sorted_member(live, (v << np.int64(32)) | u)
        removed, added = touched[was & ~now], touched[~was & now]
        if removed.shape[0] or added.shape[0]:
            count = self._count - _triangles_through(self._sym, self._sym.keys(), removed)
            merged = merge_csr_delta(self._sym, _mirrored(added), None, _mirrored(removed))
            count += _triangles_through(merged, _composite(merged), added)
            self._sym, self._count = merged, count
        return True

    def _rebuild(self) -> None:
        snap = self.graph.snapshot()
        n = snap.num_vertices
        canonical = canonical_edge_keys(snap.sources(), snap.col_idx)
        if canonical.shape[0]:
            row_ptr, col_idx, comp = symmetric_csr(canonical, n)
            u, v = split_keys(canonical)
            count = closing_wedges(row_ptr, col_idx, comp, u, v) // 3
        else:
            row_ptr, col_idx = np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64)
            comp, count = np.empty(0, dtype=np.int64), 0
        self._sym, self._count = CSRSnapshot(row_ptr, col_idx, None, n, _keys=comp), count


class _IncrementalDistances(IncrementalAnalytic):
    """Shared machinery of :class:`IncrementalBFS` / :class:`IncrementalSSSP`.

    Holds the distance array of the last sync (INF-sentinel internally)
    and the pending insert-only window.  Repair is frontier re-relaxation
    over the live snapshot, seeded from the new edges whose relaxation
    improves a distance: inserts only add paths, so distances only
    decrease, and relaxing to a fixpoint from the improved set reaches
    exactly the cold answer (shortest distances are the unique fixpoint).
    """

    #: True → hop distances (every edge weight treated as 1).
    _unit_weights = True

    def __init__(self, graph, source: int = 0) -> None:
        super().__init__(graph)
        n = int(graph.num_vertices)
        source = int(source)
        if not (0 <= source < n):
            raise ValidationError(f"source {source} out of range [0, {n})")
        self.source = source
        self._dist: np.ndarray | None = None
        self._prev_snap: CSRSnapshot | None = None

    # -- queries ------------------------------------------------------------------

    def distances(self) -> np.ndarray:
        """Distances from ``source``; unreachable vertices get -1.

        Bit-identical to the cold kernel (:func:`repro.analytics.bfs` /
        :func:`repro.analytics.sssp`) on the live snapshot.
        """
        self._refresh()
        return np.where(self._dist >= _INF, np.int64(-1), self._dist)

    # -- plumbing ----------------------------------------------------------------

    def _cold_kernel(self, snap) -> np.ndarray:
        raise NotImplementedError

    def _rebuild(self) -> None:
        snap = self.graph.snapshot()
        raw = self._cold_kernel(snap)
        self._dist, self._prev_snap = np.where(raw < 0, _INF, raw).astype(np.int64), snap

    def _net_window(self, window):
        """Reduce the pending window to net per-key (src, dst, weight)
        arrays — last occurrence wins, matching replace semantics — with
        undirected facades' mirroring applied."""
        src = np.concatenate([e.src for e in window])
        dst = np.concatenate([e.dst for e in window])
        weighted = window[0].weights is not None
        w = np.concatenate([e.weights for e in window]) if weighted else None
        if not getattr(self.graph, "directed", True):
            src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
            if w is not None:
                w = np.concatenate([w, w])
        comp = (src << np.int64(32)) | dst
        get_counters().sorted_elements += int(comp.shape[0])  # the window reduce
        keep = last_occurrence_mask(comp)
        return src[keep], dst[keep], (w[keep] if w is not None else None)

    def _repair(self, window) -> bool:
        """Fold the pending window by seeded re-relaxation; False means
        the window is not monotone (a grown upsert) → caller goes cold."""
        snap = self.graph.snapshot()
        src, dst, w = self._net_window(window)
        counters = get_counters()
        if self._unit_weights:
            w = np.ones(src.shape[0], dtype=np.int64)
        else:
            if w is None or self._prev_snap is None or self._prev_snap.weights is None:
                return False
            # Replace semantics: an upsert that *grew* an existing edge's
            # weight can lengthen shortest paths — not monotone, go cold.
            prev = self._prev_snap
            old_comp = _composite(prev)
            keys = (src << np.int64(32)) | dst
            hit = _sorted_member(old_comp, keys)
            if hit.any():
                loc = np.searchsorted(old_comp, keys[hit])
                if bool(np.any(w[hit] > prev.weights[loc])):
                    return False
        dist = self._dist.copy()
        n = dist.shape[0]
        # Seed relaxation: only the new edges can have created shorter
        # paths, and only their destinations can improve directly.
        counters.kernel_launches += 1
        counters.bytes_copied += int(src.shape[0]) * 24
        proposed = dist.copy()
        np.minimum.at(proposed, dst, dist[src] + w)
        frontier = np.flatnonzero(proposed < dist)
        dist = proposed
        rounds = 0
        while frontier.size:
            rounds += 1
            if rounds > n:
                raise ValidationError(
                    "negative cycle reachable from source: distances still "
                    f"improving after {n} repair rounds"
                )
            owner_pos, adst, aw = snap.adjacencies(frontier)
            if self._unit_weights:
                aw = np.ones(adst.shape[0], dtype=np.int64)
            proposed = dist.copy()
            np.minimum.at(proposed, adst, dist[frontier[owner_pos]] + aw)
            frontier = np.flatnonzero(proposed < dist)
            dist = proposed
        self._dist, self._prev_snap = dist, snap
        return True


class IncrementalBFS(_IncrementalDistances):
    """Hop distances from a fixed source, repaired from the event log.

    Insert-only windows are folded by re-relaxation seeded from the new
    edges (unit weights); deletions, structural events, gaps, and
    version-chain breaks trigger a cold :func:`repro.analytics.bfs` over
    the live snapshot.  :meth:`distances` is always bit-identical to the
    cold run.
    """

    _unit_weights = True

    def _cold_kernel(self, snap) -> np.ndarray:
        return bfs(snap, self.source)


class IncrementalSSSP(_IncrementalDistances):
    """Shortest-path distances from a fixed source, repaired from the
    event log (weighted graphs only).

    Insert-only windows fold incrementally unless an upsert grew an
    existing edge's weight (replace semantics make that a non-monotone
    change — shortest paths can lengthen — so the window is answered
    cold, like any deletion or structural event).  :meth:`distances` is
    always bit-identical to :func:`repro.analytics.sssp` on the live
    snapshot.
    """

    _unit_weights = False

    def __init__(self, graph, source: int = 0) -> None:
        """Attach to a *weighted* facade; raises
        :class:`ValidationError` otherwise (SSSP needs edge weights)."""
        if not getattr(graph, "weighted", False):
            raise ValidationError("IncrementalSSSP requires a weighted graph")
        super().__init__(graph, source)

    def _cold_kernel(self, snap) -> np.ndarray:
        return sssp(snap, self.source)


class IncrementalKCore(IncrementalAnalytic):
    """Fixed-``k`` core membership maintained from the event log.

    The k-core (the maximal set whose members keep ≥ k out-neighbors
    within the set — the classical undirected core for symmetric edge
    sets) can only *grow* under insert-only windows, and only candidates
    ``K`` — non-core vertices with live out-degree ≥ k — can join.  Repair
    peels ``K`` alone, with the old core ``C`` credited as permanent
    neighbors: the survivors ``A`` (the greatest subset of ``K`` whose
    members keep ≥ k out-neighbors in ``C ∪ A``) make ``C ∪ A`` closed,
    hence inside the new core, and the new core's growth is itself such a
    subset of ``K``, hence inside ``A``.  A window in which no vertex of
    ``K`` gained an out-edge changes nothing (the new core would already
    have been closed in the old graph).  Cost follows ``K``'s adjacency,
    not the edge set.

    Deletions, structural events, gaps, and version-chain breaks rebuild
    cold via :func:`repro.analytics.kcore_membership`, to which
    :meth:`members` is always exactly equal on the live snapshot.
    """

    def __init__(self, graph, k: int = 3) -> None:
        """Attach to ``graph``'s event log; ``k`` must be >= 1."""
        if int(k) < 1:
            raise ValidationError("k must be >= 1")
        super().__init__(graph)
        self.k = int(k)
        self._in_core: np.ndarray | None = None

    # -- queries ------------------------------------------------------------------

    def members(self) -> np.ndarray:
        """Boolean k-core membership per vertex (exactly
        :func:`repro.analytics.kcore_membership` on the live snapshot)."""
        self._refresh()
        return self._in_core.copy()

    # -- plumbing ----------------------------------------------------------------

    def _rebuild(self) -> None:
        self._in_core = kcore_membership(self.graph.snapshot(), self.k)

    def _repair(self, window) -> bool:
        snap = self.graph.snapshot()
        in_core = self._in_core
        seeds = [e.src for e in window]
        if not getattr(self.graph, "directed", True):
            seeds += [e.dst for e in window]
        seeds = sorted_unique(np.concatenate(seeds))
        counters = get_counters()
        # Candidate-mask pass over the degree and membership arrays.
        counters.kernel_launches += 1
        counters.bytes_copied += int(seeds.shape[0]) * 8 + snap.num_vertices * 8
        alive = ~in_core & (snap.out_degrees() >= self.k)
        if not alive[seeds].any():
            return True  # no candidate's out-row grew: the core is unchanged
        cand = np.flatnonzero(alive)
        owner_pos, nbrs, _ = snap.adjacencies(cand)
        while True:
            counters.kernel_launches += 1
            counters.bytes_copied += int(nbrs.shape[0]) * 16 + int(cand.shape[0]) * 8
            good = in_core[nbrs] | alive[nbrs]
            deg_eff = np.bincount(owner_pos[good], minlength=cand.shape[0])
            weak = cand[alive[cand] & (deg_eff < self.k)]
            if weak.size == 0:
                break
            alive[weak] = False
        self._in_core = in_core | alive
        return True
