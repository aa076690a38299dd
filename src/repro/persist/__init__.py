"""Durable graphs: write-ahead log + checkpointed snapshots + recovery.

The in-memory :class:`repro.eventlog.EventLog` already gives every graph
a complete, versioned mutation history; this package makes that history
survive the process.  Four modules, each built on the ones before it:

- :mod:`repro.persist.wal` — segmented append-only log of framed
  (length- and CRC32-checked) event records: a
  :class:`~repro.persist.wal.WalWriter` appends them, a
  :class:`~repro.persist.wal.LogFollower` tails another process's log;
- :mod:`repro.persist.checkpoint` — atomic ``CSRSnapshot`` checkpoints
  (NPZ + JSON manifest commit point) that bound replay length;
- :mod:`repro.persist.store` — the one owner of crash recovery (latest
  valid checkpoint + WAL-tail replay) and of the graph↔WAL binding:
  :func:`~repro.persist.store.open_graph` recovers a
  :class:`~repro.persist.store.DurableGraph`, the one sink of
  ``graph.events``, which appends every event to the WAL as it is
  published;
- :mod:`repro.persist.sharded` — :class:`~repro.persist.sharded.ShardStores`,
  one such store per shard of a :class:`~repro.api.sharding.ShardedGraph`
  (attach via ``attach_durability()``), recovered by the same routine
  when ``rebuild_shard()`` restores a shard.

See ``examples/durable_service.py`` for the checkpoint → crash →
recover → replica-tail round trip, and the README's "Durability and
recovery" section for the design rationale.
"""

from repro.persist.checkpoint import (
    CheckpointManifest,
    env_fingerprint,
    latest_valid_checkpoint,
    load_checkpoint,
    write_checkpoint,
)
from repro.persist.sharded import ShardStores
from repro.persist.store import DurableGraph, apply_event, open_graph
from repro.persist.wal import (
    DEFAULT_SEGMENT_BYTES,
    LogFollower,
    WalWriter,
    list_segments,
    repair_wal,
    scan_wal,
)

__all__ = [
    "CheckpointManifest",
    "DEFAULT_SEGMENT_BYTES",
    "DurableGraph",
    "LogFollower",
    "ShardStores",
    "WalWriter",
    "apply_event",
    "env_fingerprint",
    "latest_valid_checkpoint",
    "list_segments",
    "load_checkpoint",
    "open_graph",
    "repair_wal",
    "scan_wal",
    "write_checkpoint",
]
