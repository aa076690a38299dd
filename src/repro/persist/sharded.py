"""Durable per-shard stores for :class:`repro.api.sharding.ShardedGraph`.

:class:`ShardStores` gives every shard of a sharded service its own
segmented WAL and checkpoint directory::

    <directory>/
      shards.json              # service identity (shard count, layout)
      shard-0/wal/             # shard 0's segmented event log
      shard-0/checkpoints/
      shard-1/...

Each ``shard-<i>/`` is a single-graph store (what
:func:`repro.persist.store.open_graph` reads, minus ``store.json``), bound
to its shard by one :class:`~repro.persist.store.DurableGraph` subscribed
to that shard's *own* facade event log.  The shard facade publishes only
after its backend succeeds, so each shard's durable order equals its
applied order.  The router partitions edges by source vertex, so per-shard
order is the *only* order a bit-identical rebuild needs:
:meth:`ShardStores.rebuild` runs ``open_graph``'s own recovery routine
(:func:`repro.persist.store._recover`) on the shard's directory.

Durability gaps: a WAL append that fails (disk fault) after the shard
backend already applied the mutation leaves that shard's log missing an
event.  The store counts it (:attr:`ShardStores.gaps`) and *refuses* to
rebuild from a gapped log — a rebuild would silently lose the unlogged
mutations.  :meth:`ShardStores.checkpoint_shard` heals a gap, because a
checkpoint captures the full live shard state.  Re-driving the failed
batch (:meth:`~repro.api.sharding.ShardedGraph.redrive`) is also safe:
edge mutations have replace semantics, so the re-published event both
reaches the WAL and leaves the shard state unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.persist.checkpoint import CheckpointManifest, _read_identity, _write_identity
from repro.persist.store import CHECKPOINT_DIR, WAL_DIR, DurableGraph, _recover, _scan
from repro.persist.wal import DEFAULT_SEGMENT_BYTES
from repro.util.errors import PersistError, ValidationError

__all__ = ["ShardStores"]

SHARDS_FILE = "shards.json"
SHARDS_KIND = "repro-shard-stores"
SHARDS_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ShardRecovery:
    """What one :meth:`ShardStores.rebuild` did to restore a shard."""

    shard: int
    #: WAL records replayed on top of the checkpoint (or from empty).
    replayed_events: int
    #: Checkpoint recovery started from (None → replayed from empty).
    recovered_checkpoint: CheckpointManifest | None
    #: True when recovery truncated a torn tail / dropped segments.
    repaired_torn_tail: bool


class ShardStores:
    """Per-shard WAL + checkpoint stores for a sharded service.

    Construct via :meth:`repro.api.sharding.ShardedGraph.attach_durability`
    — attaching binds a :class:`~repro.persist.store.DurableGraph` to every
    shard, scanning (and repairing) any existing per-shard history first.
    """

    def __init__(
        self,
        service,
        directory,
        *,
        fsync: str = "batch",
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        opener=open,
    ) -> None:
        self.service = service
        self.directory = Path(directory)
        self.fsync = fsync
        self.segment_bytes = segment_bytes
        self._opener = opener
        self.directory.mkdir(parents=True, exist_ok=True)
        identity = {
            "num_shards": service.num_shards,
            "num_vertices": service.num_vertices,
            "weighted": service.weighted,
        }
        meta_path = self.directory / SHARDS_FILE
        if meta_path.exists():
            # Per-shard logs cannot be reinterpreted under another layout.
            _read_identity(meta_path, SHARDS_KIND, SHARDS_SCHEMA_VERSION, expected=identity)
        else:
            _write_identity(meta_path, SHARDS_KIND, SHARDS_SCHEMA_VERSION, identity)
        #: One :class:`DurableGraph` per shard, index-aligned with
        #: ``service.shards``.
        self._durable: list = []
        try:
            for s, shard in enumerate(self.service.shards):
                # The live shard, not the directory, is the truth here: old
                # history is only scanned for the seq to continue from.
                scan, _repaired = _scan(self.wal_dir(s), repair=True)
                durable = self._bind(s, shard, next_seq=scan.next_seq)
                self._durable.append(durable)
                if shard.num_edges() > 0 or scan.next_seq > 0:
                    # Anchor: the WAL from here on is a complete history
                    # only relative to the shard's state at attach time, so
                    # recovery must never need records that predate it.
                    durable.checkpoint()
        except BaseException:
            # A half-attached service keeps no writer: a later attach
            # would bind a second one to the same WAL.
            self.close()
            raise

    def _bind(self, s: int, shard, **recovery) -> DurableGraph:
        return DurableGraph(
            self.shard_dir(s),
            shard,
            backend_name=type(shard.backend).__name__,
            fsync=self.fsync,
            segment_bytes=self.segment_bytes,
            opener=self._opener,
            **recovery,
        )

    # -- layout -------------------------------------------------------------------

    def shard_dir(self, s: int) -> Path:
        """Root directory of shard ``s``'s durable state."""
        return self.directory / f"shard-{s}"

    def wal_dir(self, s: int) -> Path:
        """Shard ``s``'s WAL segment directory."""
        return self.shard_dir(s) / WAL_DIR

    def checkpoint_dir(self, s: int) -> Path:
        """Shard ``s``'s checkpoint directory."""
        return self.shard_dir(s) / CHECKPOINT_DIR

    # -- the per-shard stores -----------------------------------------------------

    @property
    def writers(self) -> tuple:
        """Each shard's :class:`~repro.persist.wal.WalWriter` (read-only
        view, index-aligned with ``service.shards``)."""
        return tuple(durable.wal for durable in self._durable)

    @property
    def gaps(self) -> tuple:
        """Durability gaps per shard (see module docstring): events
        applied in memory but lost to a failed append."""
        return tuple(durable.durability_gap for durable in self._durable)

    def checkpoint_shard(self, s: int) -> CheckpointManifest:
        """Write an atomic checkpoint of shard ``s``'s live state.

        Bounds the shard's recovery replay and heals any durability gap
        (the snapshot captures events a failed append never logged).
        """
        return self._durable[s].checkpoint()

    def checkpoint(self) -> list:
        """Checkpoint every shard; returns the manifests in shard order."""
        return [self.checkpoint_shard(s) for s in range(self.service.num_shards)]

    def sync(self) -> None:
        """Force every shard's buffered WAL records to disk."""
        for durable in self._durable:
            durable.sync()

    # -- recovery -----------------------------------------------------------------

    def rebuild(self, s: int, new_shard) -> ShardRecovery:
        """Restore shard ``s``'s durable history into the empty ``new_shard``.

        Single-store crash recovery (:func:`repro.persist.store._recover`)
        runs on ``shard-<s>/`` — yielding a shard bit-identical to the lost
        one as of its last durable event — and a fresh :class:`DurableGraph`
        binds the result; the caller (the sharded service) swaps the facade
        in afterwards.  The old shard's store is detached only once all of
        that has succeeded: if recovery raises, the old shard is still in
        the service and its next event opens a fresh WAL segment.

        Refuses (:class:`PersistError`) while the shard has a durability
        gap — the log is missing applied events, so a rebuild would
        silently lose them; :meth:`checkpoint_shard` heals the gap first.
        Refuses (:class:`ValidationError`) once :meth:`close` has run.
        """
        old = self._durable[s]
        if old.wal is None:
            raise ValidationError(
                f"shard {s}'s store at {str(self.shard_dir(s))!r} is closed — "
                "rebuilding needs the stores attached"
            )
        if old.durability_gap > 0:
            raise PersistError(
                f"shard {s} has {old.durability_gap} durability gap(s): events "
                "applied in memory never reached its WAL, so a rebuild "
                "would lose them — checkpoint_shard() heals the gap "
                "(while the shard is still alive)",
                op="write",
            )
        old.wal.close()  # recovery reads the disk, not the old writer's buffer
        new = self._bind(s, new_shard, **_recover(new_shard, self.shard_dir(s), repair=True))
        old.close()
        self._durable[s] = new
        return ShardRecovery(
            shard=s,
            replayed_events=new.replayed_events,
            recovered_checkpoint=new.recovered_checkpoint,
            repaired_torn_tail=new.repaired_torn_tail,
        )

    # -- teardown -----------------------------------------------------------------

    def close(self) -> None:
        """Detach every shard's subscriber and close its writer (idempotent)."""
        for durable in self._durable:
            durable.close()

    def __enter__(self) -> "ShardStores":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardStores({self.service.num_shards} shards, "
            f"dir={str(self.directory)!r}, fsync={self.fsync!r})"
        )
