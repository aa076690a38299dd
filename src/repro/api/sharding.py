"""The shard router: one :class:`~repro.api.Graph` over N per-shard graphs.

The paper's phase-concurrent model assumes one device-resident structure;
scaling past one device (or one allocator arena) means partitioning the
vertex space across N independent :class:`repro.api.Graph` shards and
routing work to them.  This module is that layer:

- :class:`Partitioner` — a deterministic multiplicative-hash partition of
  the vertex-id space (balanced for both random and contiguous id
  populations, unlike a plain modulus);
- :class:`ShardRouter` — a :class:`~repro.api.GraphBackend` whose hooks
  route rows by the *source* vertex's owner to per-shard facades.  A cut
  edge ``(u, v)`` with ``owner(u) != owner(v)`` is stored in ``u``'s
  shard, so every vertex's full out-adjacency lives in exactly one shard.
  Queries scatter to the owning shards and gather results back into the
  caller's order;
- :class:`ShardedGraph` — the :class:`~repro.api.Graph` facade over a
  router.  It adds construction and one-hop access to the router's fault
  and durability surface, nothing else.

So a sharded batch takes the one argument pipeline, the one event log and
the one snapshot merge a single graph's does: incremental analytics attach
to :attr:`ShardedGraph.events` unchanged, and the global snapshot is
bit-identical to a single :class:`Graph`'s given the same workload.  The
shards stay facades because each shard's WAL follows that shard's own
event log.  The router's ``snapshot()`` is only the cold path (per-shard
snapshots' sorted key runs merged); warm global snapshots are the
facade's cursor-window merge.

Robustness (see ``docs/robustness.md``): every shard carries a health
state (``"healthy"`` / ``"degraded"`` / ``"dead"``), and every shard call
a routed operation makes — mutation, query, snapshot or export read —
takes one retry path: a transient fault is retried at once, up to
:data:`MAX_ATTEMPTS` tries in all; a permanent fault marks the shard dead.
A mutation that fails on some shards raises :class:`PartialDispatchError`,
whose :class:`DispatchReport` says **exactly which shards applied** and
can be re-driven (:meth:`ShardedGraph.redrive`).  A change the facade does
not publish — a partial dispatch, a redrive, a kill or a rebuild — is a
step of the router's version with no event, so every event-log consumer
(the snapshot merge, the incremental analytics) rebuilds cold instead of
silently diverging.  Reads survive dead shards through
:meth:`ShardedGraph.degraded_snapshot`, which serves a dead shard's rows
from the last exact global snapshot, tagged with its version; a dead shard
is restored **bit-identically** from its durable per-shard WAL by
:meth:`ShardedGraph.rebuild_shard` (after
:meth:`ShardedGraph.attach_durability`).

The router keeps no clock and charges the device counters nothing: its
routing, gathers and snapshot assembly are host work, which the device
model does not describe.  Only the shards' own structures charge it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from repro.api.backend import GraphBackend, _checked_id
from repro.api.facade import Graph
from repro.api.snapshot import CSRSnapshot
from repro.coo import COO
from repro.persist.wal import DEFAULT_SEGMENT_BYTES
from repro.util.errors import (
    PermanentFault,
    ReproError,
    TransientFault,
    ValidationError,
)
from repro.util.groupby import stable_argsort

__all__ = [
    "Partitioner",
    "ShardedGraph",
    "ShardError",
    "PartialDispatchError",
    "DispatchReport",
]

#: Fibonacci multiplier (golden-ratio reciprocal in 64 bits) — spreads
#: consecutive ids across the hash space.
_FIB = np.uint64(0x9E3779B97F4A7C15)

#: Shard health states (see the module docstring and docs/robustness.md).
SHARD_HEALTHY = "healthy"
SHARD_DEGRADED = "degraded"
SHARD_DEAD = "dead"

#: Tries per shard call, the first included: a transient fault is retried
#: at once until this many have failed, and then degrades the shard.
MAX_ATTEMPTS = 3


class ShardError(ReproError, RuntimeError):
    """A shard failed while serving a routed operation.

    Carries the shard index and the operation name so scatter-gather
    failures are diagnosable instead of surfacing as a raw backend
    exception with no routing context; the original fault (when there is
    one) rides along as ``__cause__``.
    """

    def __init__(self, message: str, *, shard: int, op: str) -> None:
        super().__init__(message)
        #: Index of the shard that failed.
        self.shard = int(shard)
        #: The routed operation that was in flight.
        self.op = op


@dataclass(frozen=True)
class DispatchReport:
    """Exactly what happened to one partially-dispatched mutation.

    ``applied`` / ``failed`` name the shards the batch did and did not
    reach (``failed`` pairs each shard with the failure description);
    ``payload`` keeps the normalized batch arrays so
    :meth:`ShardedGraph.redrive` can re-dispatch the failed rows without
    re-normalizing; ``result`` is the count the applied shards returned.
    """

    op: str
    applied: tuple
    failed: tuple
    payload: dict
    result: int

    @property
    def failed_shards(self) -> tuple:
        """Just the failed shard indices, in order."""
        return tuple(s for s, _ in self.failed)


class PartialDispatchError(ShardError):
    """A mutation applied on some shards and failed on others.

    The attached :class:`DispatchReport` says exactly which — the batch
    is diagnosable and re-driveable (:meth:`ShardedGraph.redrive`), never
    silently divergent.
    """

    def __init__(self, message: str, *, shard: int, op: str, report: DispatchReport) -> None:
        super().__init__(message, shard=shard, op=op)
        #: Which shards the partial dispatch reached, and which it missed.
        self.report = report


@dataclass(frozen=True)
class DegradedSnapshot:
    """A global snapshot assembled while some shards could not serve.

    ``snapshot`` is the assembled :class:`CSRSnapshot`; ``stale_shards``
    served their rows of the last exact global snapshot, taken at the
    service version ``cut_version`` (None when no shard is stale);
    ``missing_shards`` had no such snapshot to serve from and contribute
    no edges.
    """

    snapshot: CSRSnapshot
    stale_shards: tuple
    missing_shards: tuple
    cut_version: int | None

    @property
    def fresh(self) -> bool:
        """True when every shard served live (nothing stale or missing)."""
        return not self.stale_shards and not self.missing_shards


class Partitioner:
    """Deterministic hash partition of the vertex-id space into N shards.

    Uses a multiplicative (Fibonacci) hash so both random and contiguous
    id populations balance; a plain ``id % N`` would stripe contiguous
    ranges perfectly but correlate with any id-structured workload.
    """

    def __init__(self, num_shards: int) -> None:
        self.num_shards = _checked_id(num_shards, None, "num_shards", lo=1)

    def shard_of(self, vertex_ids) -> np.ndarray:
        """Owner shard per vertex id (vectorized, int64 in [0, N))."""
        ids = np.asarray(vertex_ids, dtype=np.int64).astype(np.uint64)
        h = (ids * _FIB) >> np.uint64(40)
        return (h % np.uint64(self.num_shards)).astype(np.int64)

    def cut_mask(self, src, dst) -> np.ndarray:
        """True per edge when its endpoints live on different shards."""
        return self.shard_of(src) != self.shard_of(dst)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Partitioner(num_shards={self.num_shards})"


def _edge_rows(payload: dict, mask):
    weights = payload["weights"]
    return payload["src"][mask], payload["dst"][mask], None if weights is None else weights[mask]


def _delete_vertices_in(shard, payload: dict, mask) -> int:
    """One shard's share of a vertex deletion: first the reverse pairs
    ``u -> v`` this shard owns (see :meth:`ShardRouter._delete_vertices`),
    then the whole victim batch.  What the pairs removed is kept in the
    payload per shard, so a retry after the victims' delete faulted
    neither re-sends them nor loses their count."""
    pairs = payload["pairs_removed"]
    if mask.any() and shard not in pairs:
        pairs[shard] = shard.delete_edges(payload["src"][mask], payload["dst"][mask])
    return pairs.get(shard, 0) + shard.delete_vertices(payload["vids"])


def _bulk_build_in(shard, payload: dict, mask) -> int:
    src, dst, weights = _edge_rows(payload, mask)
    return shard.bulk_build(COO(src, dst, shard.num_vertices, weights=weights))


#: ``send(shard, payload, mask)`` per mutation: apply one shard's share
#: (the rows under ``owner == shard``) and return its count.
_MUTATIONS = {
    "insert_edges": lambda shard, p, m: shard.insert_edges(*_edge_rows(p, m)),
    "delete_edges": lambda shard, p, m: shard.delete_edges(*_edge_rows(p, m)[:2]),
    "delete_vertices": _delete_vertices_in,
    "bulk_build": _bulk_build_in,
}
#: The mutations that reach every shard, not only the owners of rows: a
#: victim's in-edges live wherever their source is owned, and a build is
#: of the whole service, so a shard that is dead when it arrives fails it
#: (and takes it on redrive, its own template checking it is empty) even
#: when that shard owns no row.
_BROADCAST = ("delete_vertices", "bulk_build")


class ShardRouter(GraphBackend):
    """A :class:`~repro.api.GraphBackend` whose hooks route rows to N
    per-shard :class:`Graph` facades (see the module docstring).

    Builds its shards itself, each ``Graph.create(name, num_vertices,
    weighted=weighted, **backend_kwargs)`` — empty, so the routing
    invariant (each vertex's out-edges live only in its owner shard)
    holds from the first batch — and keeps that recipe, so
    :meth:`rebuild_shard` mints an identical empty replacement.  Only
    directed shard backends are supported: an undirected backend mirrors
    ``(u, v)`` into ``v``'s adjacency *inside u's shard*, which would
    scatter a vertex's neighborhood across shards.

    Its capabilities are the shards', with ``rehash``, ``tombstone_flush``
    and ``range_queries`` switched off: those stay per-shard operations.
    Its :attr:`mutation_version` is its own monotone counter — the template
    bumps it per routed mutation, and every change the facade does not
    publish (:meth:`redrive`, a shard's death, :meth:`rebuild_shard`)
    bumps it too.
    """

    def __init__(
        self, name: str, num_vertices: int, num_shards: int, weighted: bool, backend_kwargs: dict
    ) -> None:
        self.partitioner = Partitioner(num_shards)  # checks num_shards first
        self._recipe = (name, num_vertices, weighted, backend_kwargs)
        self.shards = [self._new_shard() for _ in range(self.partitioner.num_shards)]
        first = self.shards[0]
        if not first.directed:
            raise ValidationError(
                "ShardedGraph requires directed shard backends (an "
                "undirected backend would mirror cut edges inside the "
                "wrong shard); symmetric edge sets work fine — insert "
                "both orientations, as the dataset generators do"
            )
        self.capabilities = replace(
            first.capabilities, rehash=False, tombstone_flush=False, range_queries=False
        )
        # The weights every shard stores exactly; the template checks them
        # before any shard applies its share.
        self._weight_range = first.backend._weight_range
        #: Per-shard health: ``SHARD_HEALTHY`` / ``SHARD_DEGRADED`` /
        #: ``SHARD_DEAD`` (dead shards are skipped by fan-outs and only
        #: return via :meth:`rebuild_shard`).
        self.health = [SHARD_HEALTHY] * self.num_shards
        #: Counters of faults absorbed, retries spent, and recoveries.
        self.fault_stats = {
            "transient_faults": 0,
            "permanent_faults": 0,
            "shard_errors": 0,
            "retries": 0,
            "partial_dispatches": 0,
            "degraded_reads": 0,
            "rebuilds": 0,
        }
        #: Durable per-shard stores (set by :meth:`attach_durability`).
        self.stores = None

    def _new_shard(self) -> Graph:
        """An empty shard from the service's construction recipe."""
        name, num_vertices, weighted, backend_kwargs = self._recipe
        return Graph.create(name, num_vertices, weighted=weighted, **backend_kwargs)

    # -- identity ---------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        """Number of shard instances behind the router."""
        return len(self.shards)

    @property
    def num_vertices(self) -> int:
        """Global vertex-id space (each shard owns a hash slice of it)."""
        return self.shards[0].num_vertices

    @property
    def weighted(self) -> bool:
        """Whether the shards store per-edge weights (uniform)."""
        return self.shards[0].weighted

    # -- health -----------------------------------------------------------------

    def shard_health(self, shard_index: int) -> str:
        """The health state of one shard."""
        return self.health[self._check_shard(shard_index)]

    def _check_shard(self, shard_index) -> int:
        return _checked_id(shard_index, self.num_shards, "shard_index")

    def kill_shard(self, shard_index: int) -> None:
        """Mark a shard dead, as an injected permanent fault would.

        The shard's in-memory structure is treated as lost: fan-outs skip
        it (mutations report it in ``failed``, queries raise
        :class:`ShardError`), :meth:`snapshot` refuses, and
        :meth:`degraded_snapshot` serves its rows from the last exact
        global snapshot.  Restore it with :meth:`rebuild_shard`.
        """
        self._kill(self._check_shard(shard_index))

    def _kill(self, s: int) -> None:
        # A version step with no event: every window across a death is
        # broken, so no snapshot is served from a cache while s is dead.
        self.health[s] = SHARD_DEAD
        self._bump_version()

    # -- routing helpers ----------------------------------------------------------

    def _attempt(self, s: int, call, mask):
        """Run ``call(shard, mask)`` on shard ``s``, retrying a transient
        fault up to :data:`MAX_ATTEMPTS` tries in all.

        Every routed shard call — mutation, scatter-gather query,
        ``neighbors``, per-shard snapshot or export read — comes through
        here, so faults are classified, counted, retried and reflected in
        shard health one way.

        Returns ``(value, failure)`` — ``failure`` is None on success,
        else the exception that ended the tries.  Health transitions: a
        transient-fault exhaustion or unexpected error degrades the shard,
        a permanent fault kills it, and a success restores a degraded
        shard to healthy.
        """
        last: Exception | None = None
        for attempt in range(MAX_ATTEMPTS):
            try:
                value = call(self.shards[s], mask)
            except TransientFault as exc:
                self.fault_stats["transient_faults"] += 1
                last = exc
                if attempt + 1 < MAX_ATTEMPTS:
                    self.fault_stats["retries"] += 1
                continue
            except PermanentFault as exc:
                self.fault_stats["permanent_faults"] += 1
                self._kill(s)
                return None, exc
            except ValidationError:
                raise  # a caller/router bug, not an environmental fault
            except Exception as exc:
                self.fault_stats["shard_errors"] += 1
                self.health[s] = SHARD_DEGRADED
                return None, exc
            else:
                if self.health[s] == SHARD_DEGRADED:
                    self.health[s] = SHARD_HEALTHY
                return value, None
        self.health[s] = SHARD_DEGRADED
        return None, last

    def _fan_out(self, call, owner=None, targets=None, *, broadcast: bool = False):
        """The one per-shard loop: run ``call(shard, row_mask)`` through
        :meth:`_attempt` on each shard of ``targets`` (default: all) that
        owns rows of ``owner`` (on every target when ``owner`` is None or
        ``broadcast`` is set); dead shards are failed without an attempt.

        Returns ``(done, failures)``: ``done`` maps each shard that
        succeeded to what its call returned, in dispatch order;
        ``failures`` pairs shard indices with the exception (or the reason
        string, for dead shards)."""
        done: dict = {}
        failures = []
        for s in range(self.num_shards) if targets is None else targets:
            mask = None if owner is None else owner == s
            if not (broadcast or mask is None or mask.any()):
                continue
            if self.health[s] == SHARD_DEAD:
                failures.append((s, f"shard {s} is dead (not attempted)"))
                continue
            value, err = self._attempt(s, call, mask)
            if err is None:
                done[s] = value
            else:
                failures.append((s, err))
        return done, failures

    # -- mutation -----------------------------------------------------------------

    def _mutate(self, op: str, payload: dict, report: DispatchReport | None = None):
        """The one mutation pipeline, for first dispatches and redrives.

        Applies ``payload`` (see ``_MUTATIONS``) to every shard it has rows
        for — or, redriving ``report``, to ``report.failed_shards``.  The
        facade publishes a first dispatch that every shard applied;
        anything else is the version step the caller already took, with no
        event.

        A first dispatch returns the count the applied shards reported,
        or raises :class:`PartialDispatchError` when some shard failed.  A
        redrive returns the follow-up report, or None once every shard has
        applied.
        """
        send = _MUTATIONS[op]
        redrive = report is not None
        done, failures = self._fan_out(
            lambda shard, mask: send(shard, payload, mask),
            payload["owner"],
            report.failed_shards if redrive else None,
            broadcast=op in _BROADCAST,
        )
        result = sum(done.values()) + (report.result if redrive else 0)
        if not failures:
            return None if redrive else result
        follow_up = DispatchReport(
            op=op,
            applied=(report.applied if redrive else ()) + tuple(done),
            failed=tuple((s, str(e)) for s, e in failures),
            payload=payload,
            result=int(result),
        )
        self.fault_stats["partial_dispatches"] += 1
        if redrive:
            return follow_up
        first_shard, first_err = failures[0]
        cause = first_err if isinstance(first_err, BaseException) else None
        raise PartialDispatchError(
            f"{op} applied on shards {list(follow_up.applied)} but failed on "
            f"{list(follow_up.failed_shards)}; the batch is re-driveable "
            "(see the attached DispatchReport and ShardedGraph.redrive)",
            shard=first_shard,
            op=op,
            report=follow_up,
        ) from cause

    def _route_edges(self, op: str, src, dst, weights) -> int:
        owner = self.partitioner.shard_of(src)
        return self._mutate(op, {"src": src, "dst": dst, "weights": weights, "owner": owner})

    def _insert_edges(self, src, dst, weights) -> int:
        return self._route_edges("insert_edges", src, dst, weights)

    def _delete_edges(self, src, dst) -> int:
        return self._route_edges("delete_edges", src, dst, None)

    def _delete_vertices(self, vids) -> int:
        """Out-edges live in the owner shard, but *in*-edges live wherever
        their source is owned — so the batch fans out to every shard, and
        the count sums what the shards removed.  B-tree and faimGraph
        erase a victim ``v``'s in-edges by walking its own out-list, and
        that list lives only in ``owner(v)``; so the router first reads
        each victim's out-neighbours ``u`` and, inside the same dispatch,
        deletes ``u -> v`` in ``owner(u)``'s shard.  The pairs ride in the
        payload, so :meth:`redrive` re-sends them to a shard that has not
        applied them.  Reading them needs every victim's owner: while one
        cannot serve, this raises :class:`ShardError` before any shard
        applies anything."""
        pos, nbrs, _ = self._gather_adjacencies("delete_vertices", vids)
        payload = {
            "vids": vids.copy(),  # a copy: the payload outlives the caller's buffer
            "src": nbrs,
            "dst": vids[pos],
            "owner": self.partitioner.shard_of(nbrs),
            "pairs_removed": {},
        }
        return self._mutate("delete_vertices", payload)

    def _bulk_build(self, src, dst, weights) -> int:
        """Split the rows by owner shard and build every shard, one that
        owns no row included (see ``_BROADCAST``).  The template has
        checked the whole COO, so a caller's error reaches no shard.  A
        partial dispatch raises as the other mutators do; a failed shard
        is still empty, so a redrive re-attempts its part of the build."""
        return self._route_edges("bulk_build", src, dst, weights)

    def redrive(self, report: DispatchReport):
        """Re-dispatch a partial mutation's failed shards.

        Rows for shards that are healthy (or degraded) again are applied —
        a version step the facade does not publish, so consumers rebuild
        cold; shards still dead (or failing) stay in the returned
        follow-up report.  Returns None once every shard has applied.
        """
        self._bump_version()
        return self._mutate(report.op, report.payload, report)

    # -- queries (scatter-gather) ----------------------------------------------------

    def _raise_query_failures(self, op: str, failures) -> None:
        if not failures:
            return
        s, err = failures[0]
        cause = err if isinstance(err, BaseException) else None
        hint = (
            " (the shard is dead — degraded_snapshot() serves cached reads, "
            "rebuild_shard() restores it)"
            if self.health[s] == SHARD_DEAD
            else ""
        )
        raise ShardError(
            f"shard {s} failed during {op}: {err}{hint}", shard=s, op=op
        ) from cause

    def _scatter(self, op: str, gather, keys) -> None:
        """The one scatter-gather read path: route the template's clean
        rows by the owner of ``keys``, run ``gather(shard, row_mask)`` on
        each owning shard through :meth:`_attempt`, and raise a typed
        :class:`ShardError` if any shard failed.  An empty batch touches
        no shard."""
        if keys.size == 0:
            return
        _, failures = self._fan_out(gather, self.partitioner.shard_of(keys))
        self._raise_query_failures(op, failures)

    def _edge_exists(self, src, dst) -> np.ndarray:
        out = np.zeros(src.shape[0], dtype=bool)

        def gather(shard, mask):
            out[mask] = shard.edge_exists(src[mask], dst[mask])

        self._scatter("edge_exists", gather, src)
        return out

    def _edge_weights(self, src, dst) -> tuple[np.ndarray, np.ndarray]:
        exists = np.zeros(src.shape[0], dtype=bool)
        weights = np.zeros(src.shape[0], dtype=np.int64)

        def gather(shard, mask):
            exists[mask], weights[mask] = shard.edge_weights(src[mask], dst[mask])

        self._scatter("edge_weights", gather, src)
        return exists, weights

    def _degree(self, vids) -> np.ndarray:
        out = np.zeros(vids.shape[0], dtype=np.int64)

        def gather(shard, mask):
            out[mask] = shard.degree(vids[mask])

        self._scatter("degree", gather, vids)
        return out

    def _neighbors(self, vertex: int) -> tuple[np.ndarray, np.ndarray]:
        s = int(self.partitioner.shard_of(np.array([vertex]))[0])
        return self._read_shards("neighbors", lambda shard, _: shard.neighbors(vertex), [s])[s]

    def _adjacencies(self, vids) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # Rows grouped by ascending position in vids; neighbor order within
        # a vertex is shard-native.
        return self._gather_adjacencies("adjacencies", vids)

    def _gather_adjacencies(self, op: str, vids):
        parts: list = []

        def gather(shard, mask):
            owner_pos, dsts, ws = shard.adjacencies(vids[mask])
            parts.append((np.flatnonzero(mask)[owner_pos], dsts, ws))

        self._scatter(op, gather, vids)
        if not parts:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), empty.copy()
        pos, dsts, ws = (np.concatenate(column) for column in zip(*parts))
        order = stable_argsort(pos)
        return pos[order], dsts[order], ws[order]

    def num_edges(self) -> int:
        """Global edge count (shards partition the edge set)."""
        return sum(shard.num_edges() for shard in self.shards)

    def memory_bytes(self) -> int:
        """Total modeled resident bytes across all shards."""
        return sum(shard.memory_bytes() for shard in self.shards)

    def _read_shards(self, op: str, read, targets=None) -> dict:
        """``{shard: read(shard, None)}`` over ``targets`` (default: all)
        through :meth:`_attempt` — the reads that are not row batches
        (``neighbors``, :meth:`snapshot`, :meth:`export_coo`).  A shard
        failure surfaces as a typed :class:`ShardError`."""
        done, failures = self._fan_out(read, targets=targets)
        self._raise_query_failures(op, failures)
        return done

    def export_coo(self) -> COO:
        """Concatenated unsorted COO export of every shard's edges."""
        parts = self._read_shards("export_coo", lambda shard, _: shard.export_coo()).values()
        return COO(
            np.concatenate([p.src for p in parts]),
            np.concatenate([p.dst for p in parts]),
            self.num_vertices,
            weights=np.concatenate([p.weights for p in parts]) if self.weighted else None,
        )

    def sorted_adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """The global snapshot's ``(row_ptr, col_idx)``."""
        snap = self.snapshot()
        return snap.row_ptr, snap.col_idx

    # -- global snapshot ---------------------------------------------------------------

    def _assemble(self, shard_snaps) -> CSRSnapshot:
        """Merge per-shard sorted key runs into the global snapshot — one
        stable sort of their concatenation, no work over the vertex space.
        Correct because a vertex's out-edges live in exactly one shard: the
        runs are disjoint, so their sorted union is the global key order."""
        empty = [np.empty(0, dtype=np.int64)]  # a degraded read may have no shard
        keys = np.concatenate(empty + [snap.keys() for snap in shard_snaps])
        order = stable_argsort(keys)
        weights = None
        if self.weighted:
            weights = np.concatenate(empty + [snap.weights for snap in shard_snaps])[order]
        return CSRSnapshot(keys[order], weights, self.num_vertices)

    def snapshot(self) -> CSRSnapshot:
        """The cold global snapshot: every shard's snapshot, assembled.

        Version-keyed on :attr:`mutation_version` like every backend's;
        the facade's cursor-window merge serves the warm path.  Refuses (a
        typed :class:`ShardError`, like every other read) while any shard
        is dead or failing — that state cannot serve an exact global view;
        use :meth:`degraded_snapshot` (tagged with its cut version) or
        :meth:`rebuild_shard` (exact recovery) instead.
        """
        version = self.mutation_version
        cached = self._snapshot_cache
        if cached is not None and cached[0] == version:
            return cached[1]
        shard_snaps = self._read_shards("snapshot", lambda shard, _: shard.snapshot())
        snap = self._assemble(list(shard_snaps.values()))
        self._snapshot_cache = (version, snap)
        return snap

    def _owned_rows(self, cut: CSRSnapshot, s: int) -> CSRSnapshot:
        """Shard ``s``'s rows of the global snapshot ``cut`` as a per-shard CSR."""
        rows = self.partitioner.shard_of(cut.sources()) == s
        weights = None if cut.weights is None else cut.weights[rows]
        return CSRSnapshot(cut.keys()[rows], weights, self.num_vertices)

    def degraded_snapshot(self) -> DegradedSnapshot:
        """Best-effort global snapshot that survives dead or failing shards.

        Live shards serve live.  A dead (or currently faulting) shard
        contributes its rows of the last exact global snapshot — listed in
        ``stale_shards``, with that snapshot's version in ``cut_version`` —
        and is reported in ``missing_shards``, contributing nothing, when
        no such snapshot exists.
        """
        live, _ = self._fan_out(lambda shard, _: shard.snapshot())
        cut = self._snapshot_cache
        shard_snaps = []
        stale = []
        missing = []
        for s in range(self.num_shards):
            if s in live:
                shard_snaps.append(live[s])
                continue
            self.fault_stats["degraded_reads"] += 1
            if cut is None:
                missing.append(s)
                continue
            stale.append(s)
            shard_snaps.append(self._owned_rows(cut[1], s))
        return DegradedSnapshot(
            snapshot=self._assemble(shard_snaps),
            stale_shards=tuple(stale),
            missing_shards=tuple(missing),
            cut_version=cut[0] if stale else None,
        )

    # -- durability and recovery -----------------------------------------------------

    def attach_durability(self, directory, **knobs):
        """Attach durable per-shard stores (WAL + checkpoints) under
        ``directory`` — the recovery source :meth:`rebuild_shard` replays;
        ``knobs`` are :class:`repro.persist.sharded.ShardStores`'.

        Each shard gets its own segmented WAL as the sink of that shard's
        event log, so per-shard durable order equals per-shard applied
        order (the facade publishes only after the backend succeeds);
        since every vertex's out-edges live in exactly one shard, that is
        all the ordering a bit-identical rebuild needs.  Returns the
        :class:`repro.persist.sharded.ShardStores`.

        Refused while an attached store still holds an open writer; after
        :meth:`~repro.persist.sharded.ShardStores.close` the service may
        attach again to the same directory — the live shards hold its
        history, and attaching anchors each shard's WAL with a checkpoint
        of them.  Refused (:class:`ValidationError`, nothing written) when
        any ``shard-<i>/`` holds WAL records or checkpoints that this
        service did not write: the live shards do not hold that history.
        """
        # Imported lazily: repro.persist.store imports the facade module,
        # so a top-level import here would be circular (repro.persist.wal,
        # imported above, depends on nothing under repro.api).
        from repro.persist.sharded import ShardStores

        if self.stores is not None and any(w is not None for w in self.stores.writers):
            raise ValidationError("durability is already attached to this service")
        self.stores = ShardStores(self, directory, **knobs)
        return self.stores

    def rebuild_shard(self, shard_index: int):
        """Restore a dead shard bit-identically from its durable store.

        A fresh empty shard (from the service's construction recipe) is
        recovered as checkpoint + WAL-tail replay, swapped in, and marked
        healthy — a version step with no event, so consumers rebuild cold.
        Returns the recovery stats the store reports (events replayed,
        checkpoint used).
        """
        s = self._check_shard(shard_index)
        if self.stores is None:
            raise ValidationError(
                "rebuild_shard() needs durable per-shard stores — call "
                "attach_durability(directory) before faults strike"
            )
        fresh = self._new_shard()
        info = self.stores.rebuild(s, fresh)
        self.shards[s] = fresh
        self.health[s] = SHARD_HEALTHY
        self.fault_stats["rebuilds"] += 1
        self._bump_version()
        return info


def _router_attribute(name: str, doc: str) -> property:
    return property(lambda self: getattr(self.backend, name), doc=doc)


class ShardedGraph(Graph):
    """The :class:`Graph` facade over a :class:`ShardRouter`.

    Construct with :meth:`ShardedGraph.create` (fresh shards by registry
    name).  Every :class:`Graph` operation works unchanged; the rest is
    one hop to the router's fault and durability surface.

    A mutation that fails on some shards raises
    :class:`PartialDispatchError` carrying its :class:`DispatchReport`;
    keep the report and :meth:`redrive` it once the shards are back
    (after :meth:`rebuild_shard`, for a dead one).
    """

    def __init__(self, backend: ShardRouter) -> None:
        # Every method below is one hop to the router: over any other
        # backend the facade would build and then fail on first use.
        if not isinstance(backend, ShardRouter):
            raise ValidationError(
                f"ShardedGraph() wraps a ShardRouter, got {type(backend).__name__}; "
                "use ShardedGraph.create(name, num_vertices, num_shards=...) "
                "or Graph(backend) for a single backend"
            )
        super().__init__(backend)

    @classmethod
    def create(
        cls,
        name: str,
        num_vertices: int,
        *,
        num_shards: int = 4,
        weighted: bool = False,
        **backend_kwargs: Any,
    ) -> "ShardedGraph":
        """Construct ``num_shards`` fresh registry backends and shard them.

        Every shard addresses the full global vertex-id space, so global
        ids route and query without translation; per-shard structures
        only ever hold the edges they own.  ``num_shards`` follows the
        id rule (one integral value >= 1) and is checked before any shard
        is built.  The router keeps this recipe, so :meth:`rebuild_shard`
        mints an identical empty replacement.
        """
        return cls(ShardRouter(name, num_vertices, num_shards, weighted, backend_kwargs))

    # -- one hop to the router ------------------------------------------------------

    shards = _router_attribute("shards", "The per-shard :class:`Graph` facades.")
    num_shards = _router_attribute("num_shards", "Number of shards behind the router.")
    partitioner = _router_attribute("partitioner", "The router's :class:`Partitioner`.")
    health = _router_attribute("health", "Per-shard health states, by shard index.")
    fault_stats = _router_attribute("fault_stats", "Faults absorbed, retries, recoveries.")
    stores = _router_attribute("stores", "Durable per-shard stores, once attached.")

    def shard_health(self, shard_index: int) -> str:
        """The health state of one shard (:meth:`ShardRouter.shard_health`)."""
        return self.backend.shard_health(shard_index)

    def kill_shard(self, shard_index: int) -> None:
        """Mark a shard dead (:meth:`ShardRouter.kill_shard`)."""
        self.backend.kill_shard(shard_index)

    def redrive(self, report: DispatchReport):
        """Re-dispatch a partial mutation's failed shards
        (:meth:`ShardRouter.redrive`)."""
        return self.backend.redrive(report)

    def degraded_snapshot(self) -> DegradedSnapshot:
        """A global snapshot that survives dead shards
        (:meth:`ShardRouter.degraded_snapshot`)."""
        return self.backend.degraded_snapshot()

    def attach_durability(
        self,
        directory,
        *,
        fsync: str = "batch",
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        opener=open,
    ):
        """Attach durable per-shard stores under ``directory``
        (:meth:`ShardRouter.attach_durability`)."""
        return self.backend.attach_durability(
            directory, fsync=fsync, segment_bytes=segment_bytes, opener=opener
        )

    def rebuild_shard(self, shard_index: int):
        """Restore a dead shard from its durable store
        (:meth:`ShardRouter.rebuild_shard`)."""
        return self.backend.rebuild_shard(shard_index)
