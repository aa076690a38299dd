"""The durable store: a :class:`repro.api.Graph` that survives crashes.

:func:`open_graph` ties the pieces together under one directory::

    store/
      store.json         # graph identity (backend, |V|, weighted, backend kwargs)
      wal/seg-*.wal      # the write-ahead event log (repro.persist.wal)
      checkpoints/       # atomic snapshots (repro.persist.checkpoint)

Opening recovers: load the latest valid checkpoint into a fresh backend
(:meth:`repro.api.Graph.restore_snapshot`), replay the WAL records at or
after the checkpoint's seq through the facade (:func:`apply_event`), then
bind a :class:`~repro.persist.wal.WalWriter` as the event log's one
:attr:`~repro.eventlog.EventLog.sink` (:meth:`DurableGraph.on_event`), so
every subsequent mutation is appended inside the facade call that
published it, before control returns to the caller.  A torn final
record — the partial write of a crash — is detected by the scan's
CRC/length framing and truncated away (writer mode only).
Replay re-applies the *normalized* batches the backend originally saw,
so the recovered graph's :meth:`~repro.api.Graph.snapshot` is
bit-identical to the lost instance's (pinned by the contract tests).

``read_only=True`` opens the same directory as a **read replica**: no
writer is attached, no file is ever modified, and :meth:`DurableGraph.tail`
applies whatever records another process has appended since the last
call — the replica's ``graph.events`` republishes them, so cursor-based
incremental analytics (:mod:`repro.stream.incremental`) work unchanged.

Single-writer discipline is assumed across processes: one process owns
a store directory for writing; any number may follow it read-only.
Within a process a graph takes one writer: binding a second
:class:`DurableGraph` to a graph whose log already has a sink is a
:class:`ValidationError`, raised before any WAL file is created.
"""

from __future__ import annotations

from pathlib import Path

from repro.api.facade import Graph
from repro.eventlog.events import EdgeBatch, StructuralEvent
from repro.persist.checkpoint import (
    CheckpointManifest,
    _read_identity,
    _write_identity,
    env_fingerprint,
    latest_valid_checkpoint,
    write_checkpoint,
)
from repro.persist.wal import (
    DEFAULT_SEGMENT_BYTES,
    LogFollower,
    WalWriter,
    _check_writer_options,
    list_segments,
    repair_wal,
    scan_wal,
)
from repro.util.errors import PersistError, ValidationError

__all__ = ["DurableGraph", "open_graph", "apply_event"]

STORE_FILE = "store.json"
WAL_DIR = "wal"
CHECKPOINT_DIR = "checkpoints"
STORE_KIND = "repro-durable-graph"
STORE_SCHEMA_VERSION = 2

#: Structural reasons replay skips: maintenance events (rehash, tombstone
#: flush) do not change the logical edge set.  A sharded service's partial
#: dispatch, kill or rebuild is a version step with no event, so no
#: ``partial_dispatch`` / ``kill_shard`` / ``rebuild_shard`` marker is
#: published anywhere, and a WAL holding
#: one is a typed "cannot replay" error like any other unknown reason.
_SKIPPED_REASONS = ("rehash", "flush_tombstones")


def apply_event(graph: Graph, event) -> None:
    """Re-apply one logged event through the facade.

    Replay is content-deterministic: batches were normalized before they
    were logged, and edge mutations have replace semantics, so applying
    the same history to the same starting state reproduces the same
    logical edge set (and hence a bit-identical snapshot).
    """
    if isinstance(event, EdgeBatch):
        if event.is_insert:
            graph.insert_edges(event.src, event.dst, event.weights)
        else:
            graph.delete_edges(event.src, event.dst)
        return
    if isinstance(event, StructuralEvent):
        if event.reason in _SKIPPED_REASONS:
            return
        if event.payload is None:
            raise ValidationError(
                f"structural event {event.reason!r} (seq {event.seq}) carries no "
                "payload — this WAL was written before payloads existed and "
                "cannot be replayed"
            )
        if event.reason == "delete_vertices":
            graph.delete_vertices(event.payload)
            return
        if event.reason == "bulk_build":
            graph.bulk_build(event.payload)
            return
        raise ValidationError(f"cannot replay structural event {event.reason!r}")
    raise ValidationError(f"cannot replay event of type {type(event).__name__}")


class DurableGraph:
    """A :class:`~repro.api.Graph` bound to a store directory — the one
    graph↔WAL binding (a recovered store, or one shard of a service).

    Mutate through :attr:`graph` exactly as usual — a WAL writer
    (``writer_knobs`` are :class:`WalWriter`'s fsync / segment_bytes /
    opener) positioned at ``next_seq`` is the event log's sink, so
    durability is transparent.  A graph takes one writer at a time
    (:class:`ValidationError` otherwise).  Call :meth:`checkpoint` to
    bound recovery's replay length, :meth:`sync` to force the WAL to
    disk, and :meth:`close` when done: it releases the graph.
    Read replicas (``read_only=True``) expose :meth:`tail` instead of a
    writer.
    """

    def __init__(
        self,
        directory,
        graph: Graph,
        *,
        backend_name: str,
        next_seq: int,
        read_only: bool = False,
        recovered_checkpoint: CheckpointManifest | None = None,
        replayed_events: int = 0,
        repaired_torn_tail: bool = False,
        **writer_knobs,
    ) -> None:
        self.directory = Path(directory)
        self.graph = graph
        #: Stamped into this store's checkpoint manifests.
        self.backend_name = backend_name
        #: Manifest recovery started from (None → replayed from empty).
        self.recovered_checkpoint = recovered_checkpoint
        #: WAL records replayed during recovery.
        self.replayed_events = replayed_events
        #: True when recovery truncated a torn tail / dropped segments.
        self.repaired_torn_tail = repaired_torn_tail
        #: Events applied in memory but lost to a failed WAL append (a
        #: crash now would recover to a state missing them).  Healed by
        #: :meth:`checkpoint`, which captures the full live state.
        self.durability_gap = 0
        wal_dir = self.directory / WAL_DIR
        self.wal = self.follower = None
        if read_only:
            self.follower = LogFollower(wal_dir, start_seq=next_seq)
        else:
            if graph.events.sink is not None:
                # A second writer would stamp the same seqs as the first.
                raise ValidationError(
                    "this graph's event log already has a sink (a store bound "
                    f"to it is still open) — close it before binding {str(wal_dir)!r}"
                )
            self.wal = WalWriter(wal_dir, start_seq=next_seq, **writer_knobs)
            graph.events.sink = self.on_event

    @property
    def read_only(self) -> bool:
        """True for a replica: how the store was opened, not whether it
        is still open."""
        return self.follower is not None

    # -- the event log's sink (writer mode) ---------------------------------------

    def on_event(self, event) -> None:
        try:
            self.wal.append(event)
        except PersistError:
            # The mutation already applied in memory; the WAL missed it.
            # Record the gap (checkpoint() heals it) and let the typed
            # error reach the caller through the publishing facade call.
            self.durability_gap += 1
            raise

    # -- durability operations ---------------------------------------------------

    def checkpoint(self) -> CheckpointManifest:
        """Write an atomic checkpoint of the current graph.

        The WAL is flushed first and the manifest records the current
        durable seq, so recovery replays exactly the records this
        snapshot does not already contain.
        """
        if self.read_only:
            raise ValidationError("read-only replicas cannot write checkpoints")
        if self.wal is None:
            raise ValidationError(
                f"the store at {str(self.directory)!r} is closed — checkpoints "
                "need an open writer"
            )
        self.wal.flush()
        snap = self.graph.snapshot()
        manifest = write_checkpoint(
            self.directory / CHECKPOINT_DIR,
            snap,
            seq=self.wal.next_seq,
            backend=self.backend_name,
            weighted=self.graph.weighted,
            mutation_version=self.graph.mutation_version,
        )
        # The snapshot captures the full live state, including any
        # events a failed append never logged — the gap is healed.
        self.durability_gap = 0
        return manifest

    def tail(self) -> int:
        """Read-replica catch-up: apply the records another process has
        appended since the last call; returns how many were applied."""
        if self.follower is None:
            raise ValidationError("tail() is for read replicas (open with read_only=True)")
        events = self.follower.poll()
        for event in events:
            apply_event(self.graph, event)
        return len(events)

    def sync(self) -> None:
        """Force buffered WAL records to disk (no-op for replicas)."""
        if self.wal is not None:
            self.wal.flush()

    def close(self) -> None:
        """Release the event log's sink and close the WAL."""
        if self.wal is not None:
            self.graph.events.sink = None
            self.wal.close()
            self.wal = None

    def __enter__(self) -> "DurableGraph":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = "read-only" if self.read_only else "writer"
        return f"DurableGraph({self.backend_name!r}, {mode}, dir={str(self.directory)!r})"


def _scan(wal_dir: Path, repair: bool):
    """``(scan, repaired)``: the WAL's valid prefix; with ``repair``
    (writer side only) whatever lies past it is cut away on disk."""
    scan = scan_wal(wal_dir)
    repaired = repair_wal(scan) if repair and scan.torn else False
    return scan, repaired


def _recover(graph: Graph, directory: Path, *, repair: bool) -> dict:
    """Crash recovery (the module docstring's sequence) of the store at
    ``directory`` into the empty ``graph`` — the one routine behind
    :func:`open_graph` and :meth:`repro.persist.sharded.ShardStores.rebuild`.

    Returns the recovery half of :class:`DurableGraph`'s arguments;
    nothing is bound yet, so a failure leaves no writer open and no
    sink set.
    """
    wal_dir = directory / WAL_DIR
    scan, repaired = _scan(wal_dir, repair)
    found = latest_valid_checkpoint(
        directory / CHECKPOINT_DIR,
        min_seq=scan.start_seq if scan.events else 0,
    )
    manifest = None
    replay_from = 0
    if found is not None:
        snap, manifest = found
        replay_from = manifest.seq
        # An all-empty snapshot has nothing to restore, and restoring it
        # would mark the backend built — breaking replay of a logged
        # bulk_build that legitimately expects an empty graph.
        if manifest.num_edges:
            graph.restore_snapshot(snap)
    elif scan.events and scan.start_seq > 0:
        raise ValidationError(
            f"WAL history in {wal_dir} starts at seq {scan.start_seq} but "
            "no valid checkpoint covers the records before it — the store "
            "cannot be recovered"
        )

    to_replay = [e for e in scan.events if e.seq >= replay_from]
    for event in to_replay:
        apply_event(graph, event)

    next_seq = scan.next_seq
    if replay_from > next_seq:
        # The checkpoint post-dates every surviving WAL record (the log
        # was lost after the checkpoint was cut).  Every on-disk record is
        # already baked into the snapshot; clear them so the new
        # segment's seq range stays contiguous.
        if repair:
            for seg in list_segments(wal_dir):
                seg.unlink()
        next_seq = replay_from
    return {
        "next_seq": next_seq,
        "recovered_checkpoint": manifest,
        "replayed_events": len(to_replay),
        "repaired_torn_tail": repaired,
    }


def open_graph(
    directory,
    backend: str | None = None,
    num_vertices: int | None = None,
    *,
    weighted: bool | None = None,
    backend_kwargs: dict | None = None,
    fsync: str = "batch",
    segment_bytes: int = DEFAULT_SEGMENT_BYTES,
    read_only: bool = False,
) -> DurableGraph:
    """Open (creating or recovering) a durable graph store at ``directory``.

    First open requires ``num_vertices`` (and takes ``backend``, default
    ``"slabhash"``, ``weighted`` and ``backend_kwargs``); the identity is
    persisted to ``store.json`` and later opens recover with it — passing
    a *different* explicit identity raises :class:`ValidationError` (omit
    an argument to accept the recorded value).  A first open the backend
    or the WAL writer rejects writes nothing.
    ``fsync`` and ``segment_bytes`` are per-open operational knobs, not
    identity.  See the module docstring for recovery semantics and
    ``read_only`` replicas.
    """
    directory = Path(directory)
    store_path = directory / STORE_FILE
    fresh = not store_path.exists()
    if not fresh:
        requested = {
            "backend": backend,
            "num_vertices": num_vertices,
            "weighted": weighted,
            "backend_kwargs": backend_kwargs or None,
        }
        meta = _read_identity(store_path, STORE_KIND, STORE_SCHEMA_VERSION, expected=requested)
    else:
        if read_only:
            raise ValidationError(
                f"no durable store at {directory} — a read replica needs an "
                "existing store to follow"
            )
        if num_vertices is None:
            raise ValidationError("creating a new store requires num_vertices")
        meta = {
            "backend": backend or "slabhash",
            "num_vertices": int(num_vertices),
            "weighted": bool(weighted),
            "backend_kwargs": dict(backend_kwargs or {}),
        }

    graph = Graph.create(
        meta["backend"],
        meta["num_vertices"],
        weighted=meta["weighted"],
        **meta["backend_kwargs"],
    )
    if fresh:
        # Written only once the graph and the writer's knobs are accepted,
        # so a rejected first open leaves the directory free for a
        # corrected one.
        _check_writer_options(fsync, segment_bytes)
        directory.mkdir(parents=True, exist_ok=True)
        meta["environment"] = env_fingerprint()
        _write_identity(store_path, STORE_KIND, STORE_SCHEMA_VERSION, meta)
    return DurableGraph(
        directory,
        graph,
        backend_name=meta["backend"],
        read_only=read_only,
        fsync=fsync,
        segment_bytes=segment_bytes,
        **_recover(graph, directory, repair=not read_only),
    )
