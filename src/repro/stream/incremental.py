"""Delta-aware incremental analytics: cursor consumers of the event log.

A compute phase in a streaming workload does not need to recompute a
whole-graph analytic from scratch when only a small batch of edges changed
since the last phase.  The classes here hold an
:class:`repro.eventlog.EventCursor` on a facade's event log
(:attr:`repro.api.Graph.events` — the sharded facade in
:mod:`repro.api.sharding` publishes the same log) and fold the pending
events into their state at query time:

- :class:`IncrementalConnectedComponents` — a union-find forest updated in
  O(batch α) per insert-only window; deletions and structural events fall
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

Staleness can never masquerade as freshness, and one rule decides it —
:meth:`repro.eventlog.EventCursor.window`, the same call the facade's
snapshot merge makes: the pending window is folded only if it is a
complete history (no retention gap), every event in it is one the
analytic :meth:`~IncrementalAnalytic._absorbs`, and its version chain
connects the version the state reflects to the live ``mutation_version``.
A mutation applied to the backend behind the facade's back breaks that
chain and is answered with a cold recompute.  The only staleness state
an analytic keeps is that one version.

Every class charges the device model for its incremental work (union-find
traffic, warm sweeps, probes, gathers, peel rounds), so the ``t11`` stream
bench prices it against the full-recompute baseline honestly.
"""

from __future__ import annotations

import numpy as np

from repro.analytics.bfs import bfs
from repro.analytics.connected_components import connected_components
from repro.analytics.kcore import _checked_k, kcore_membership
from repro.analytics.pagerank import _checked_params, power_iteration
from repro.analytics.sssp import sssp
from repro.analytics.wedges import canonical_edge_keys, closing_wedges, split_keys, symmetric_csr
from repro.api.backend import _checked_id
from repro.api.snapshot import CSRSnapshot, merge_csr_delta, window_rows
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

    A subclass sets its parameters and then calls ``super().__init__``,
    which builds the state cold.  It supplies the cold :meth:`_rebuild`,
    the window :meth:`_repair` and, when it folds more than insert
    batches, :meth:`_absorbs`; :meth:`_refresh` is the one place that
    chooses between them.
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
        #: The ``mutation_version`` the state reflects (None: the next
        #: query rebuilds cold).
        self._version: int | None = None
        #: How the state was last brought up to date: "cached",
        #: "incremental" or "cold".
        self.last_mode: str | None = None
        self._refresh()

    def close(self) -> None:
        """Detach from the event log: the cursor then reads a log nothing
        publishes to, so any mutation after the last sync is answered cold."""
        self._cursor = EventLog().cursor()

    def _absorbs(self, event) -> bool:
        """Whether ``event`` can be folded without a cold pass.  Default:
        insert batches only — a deletion can split a component, lengthen a
        path or demote a core member, and only a cold pass can tell."""
        return isinstance(event, EdgeBatch) and event.is_insert

    def _rebuild(self) -> None:
        """Recompute the state cold from the live snapshot."""
        raise NotImplementedError

    def _repair(self, window) -> bool:
        """Fold a non-empty absorbable ``window`` into the state; False
        means it turned out not to be foldable and the caller rebuilds
        cold."""
        raise NotImplementedError

    def _peek(self) -> list:
        """The events the next refresh will see (the cursor stays put)."""
        return self._cursor.peek()[0]

    def _refresh(self) -> None:
        """Bring the state up to the live graph and record ``last_mode``."""
        live = self.graph.mutation_version
        window = self._cursor.window(self._absorbs, self._version, live)
        if window == []:  # in sync, nothing pending
            self.last_mode = "cached"
            return
        # Unsynced until the new state is in place: a repair or rebuild
        # that raises leaves the next query cold, never the old answer.
        self._version = None
        if window and self._repair(window):
            self.last_mode = "incremental"
        else:
            self._rebuild()
            self.last_mode = "cold"
        self._version = live


class IncrementalConnectedComponents(IncrementalAnalytic):
    """Connected-component labels maintained from the event log.

    Insert-only windows are folded into a union-find forest (union by
    minimum root, path halving) in O(batch α); each new edge is one union.
    Deletions can split components, so a window holding a delete batch —
    like one holding a structural event, a retention gap, or a
    version-chain break — re-labels cold from the live snapshot.  The
    cold labels are themselves a union-find fixpoint (every vertex points
    at its component's minimum id), so streaming resumes incrementally.

    :meth:`labels` is always exactly equal to
    :func:`repro.analytics.connected_components` on the live snapshot.
    """

    def labels(self) -> np.ndarray:
        """Component label per vertex (= smallest id in the component)."""
        self._refresh()
        return self._parent.copy()

    def _repair(self, window) -> bool:
        src, dst, _, _ = window_rows(window)
        counters = get_counters()
        counters.atomics += int(src.shape[0])
        counters.bytes_copied += int(src.shape[0]) * 16
        parent = self._parent
        for a, b in zip(src.tolist(), dst.tolist()):
            ra, rb = _find(parent, a), _find(parent, b)
            if ra == rb:
                continue
            # Union by minimum root keeps every root the smallest id of
            # its component — exactly the label connected_components emits.
            if ra < rb:
                parent[rb] = ra
            else:
                parent[ra] = rb
        # Vectorized pointer-jump to the (min-id) roots: the compressed
        # forest is the label array.
        while True:
            counters.kernel_launches += 1
            counters.bytes_copied += 2 * parent.shape[0] * 8
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
        self._parent = parent
        return True

    def _rebuild(self) -> None:
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
    fewer sweeps than a uniform cold start.  The sweep operator contracts
    to the unique fixpoint from any start vector, so every event — a
    deletion or a structural event too — folds by warm start; only a
    grown vertex space, a retention gap or a version-chain break starts
    cold.  An unchanged graph returns the cached ranks with zero sweeps.

    ``touched_count`` reports how many distinct vertices the pending edge
    batches touch (the locality the warm start exploits).
    """

    def __init__(
        self,
        graph,
        damping: float = 0.85,
        tol: float = 1e-8,
        max_iters: int = 100,
    ) -> None:
        self.damping, self.tol, self.max_iters = _checked_params(damping, tol, max_iters)
        #: Sweeps the last compute() needed (0 when served from cache).
        self.last_sweeps = 0
        super().__init__(graph)

    def _absorbs(self, event) -> bool:
        return True  # the sweeps converge from any start vector

    @property
    def touched_count(self) -> int:
        """Distinct vertices touched by the edge batches since the last
        compute."""
        ends = [a for e in self._peek() if isinstance(e, EdgeBatch) for a in (e.src, e.dst)]
        return int(sorted_unique(np.concatenate(ends)).shape[0]) if ends else 0

    def compute(self) -> np.ndarray:
        """Current PageRank scores (within ``tol`` of a cold computation)."""
        self.last_sweeps = 0
        self._refresh()
        return self._ranks.copy()

    def _repair(self, window) -> bool:
        snap = self.graph.snapshot()
        if snap.num_vertices != self._ranks.shape[0]:
            return False  # the vertex space grew: start cold
        # Warm start: renormalize the previous solution (edge churn
        # shifts mass only near the delta-touched vertices).
        self._iterate(snap, self._ranks / self._ranks.sum())
        return True

    def _rebuild(self) -> None:
        snap = self.graph.snapshot()
        n = snap.num_vertices
        self._iterate(snap, np.full(n, 1.0 / n, dtype=np.float64))

    def _iterate(self, snap, rank) -> None:
        self._ranks, self.last_sweeps = power_iteration(
            snap, rank, damping=self.damping, tol=self.tol, max_iters=self.max_iters
        )


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

    Structural events, retention gaps, and version-chain breaks rebuild
    cold — the same symmetrize-and-close pass as
    :func:`repro.analytics.undirected_triangles`, to which the result is
    always exactly equal on the live snapshot.
    """

    def _absorbs(self, event) -> bool:
        return isinstance(event, EdgeBatch)  # deletions fold too

    def count(self) -> int:
        """Triangles in the undirected view of the live graph (exactly
        :func:`repro.analytics.undirected_triangles` of the snapshot)."""
        self._refresh()
        return self._count

    def _repair(self, window) -> bool:
        src, dst, _, is_insert = window_rows(window)
        get_counters().bytes_copied += int(src.shape[0]) * 16
        touched = canonical_edge_keys(src, dst)
        was = _sorted_member(self._sym.keys(), touched)
        if is_insert.all():
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

    Holds the distance array of the last sync (INF-sentinel internally).
    Repair is frontier re-relaxation over the live snapshot, seeded from
    the new edges whose relaxation improves a distance: inserts only add
    paths, so distances only decrease, and relaxing to a fixpoint from the
    improved set reaches exactly the cold answer (shortest distances are
    the unique fixpoint).
    """

    #: True → hop distances (every edge weight treated as 1).
    _unit_weights = True

    def __init__(self, graph, source: int = 0) -> None:
        self.source = _checked_id(source, int(graph.num_vertices), "source")
        super().__init__(graph)

    def distances(self) -> np.ndarray:
        """Distances from ``source``; unreachable vertices get -1.

        Bit-identical to the cold kernel (:func:`repro.analytics.bfs` /
        :func:`repro.analytics.sssp`) on the live snapshot.
        """
        self._refresh()
        return np.where(self._dist >= _INF, np.int64(-1), self._dist)

    def _cold_kernel(self, snap) -> np.ndarray:
        raise NotImplementedError

    def _rebuild(self) -> None:
        snap = self.graph.snapshot()
        raw = self._cold_kernel(snap)
        self._dist, self._prev_snap = np.where(raw < 0, _INF, raw).astype(np.int64), snap

    def _repair(self, window) -> bool:
        """Fold the window by seeded re-relaxation; False means the window
        is not monotone (a grown upsert) → caller goes cold."""
        snap = self.graph.snapshot()
        # Reduce the window to net per-key rows: the last occurrence wins,
        # matching replace semantics.
        src, dst, w, _ = window_rows(window, self.graph.directed)
        keys = (src << np.int64(32)) | dst
        counters = get_counters()
        counters.sorted_elements += int(keys.shape[0])  # the window reduce
        keep = last_occurrence_mask(keys)
        src, dst, w, keys = src[keep], dst[keep], w[keep], keys[keep]
        if self._unit_weights:
            w = np.ones(src.shape[0], dtype=np.int64)
        else:
            # Replace semantics: an upsert that *grew* an existing edge's
            # weight can lengthen shortest paths — not monotone, go cold.
            prev = self._prev_snap
            old_comp = _composite(prev)
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
        """Attach to ``graph``'s event log; ``k`` must be an integer >= 1."""
        self.k = _checked_k(k)
        super().__init__(graph)

    def members(self) -> np.ndarray:
        """Boolean k-core membership per vertex (exactly
        :func:`repro.analytics.kcore_membership` on the live snapshot)."""
        self._refresh()
        return self._in_core.copy()

    def _rebuild(self) -> None:
        self._in_core = kcore_membership(self.graph.snapshot(), self.k)

    def _repair(self, window) -> bool:
        snap = self.graph.snapshot()
        in_core = self._in_core
        src, _, _, _ = window_rows(window, self.graph.directed)
        seeds = sorted_unique(src)
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
