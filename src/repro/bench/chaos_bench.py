"""Chaos artifact (``t14``): pricing failover, degraded reads, recovery.

The hardened sharded service (:mod:`repro.api.sharding` +
:mod:`repro.persist.sharded`) promises bounded costs under faults, and
this artifact prices two of them on an insert-heavy history at
|E| = 2^18 over 4 shards:

- **Overhead** — with one shard dead,
  :meth:`~repro.api.sharding.ShardedGraph.degraded_snapshot` assembles
  the global view from the live shards plus the dead shard's rows of the
  last global snapshot; its modeled cost over a healthy fresh assemble.  The
  scorecard's ``t14-degraded-read`` claim keeps it ≤ 2x (a degraded read
  re-pays the global assemble, never a per-shard rebuild);
- **Speedup** — the modeled cost of re-ingesting the dead shard by
  replaying its *entire* per-shard WAL from an empty backend over that of
  :meth:`~repro.api.sharding.ShardedGraph.rebuild_shard` (restore the
  shard's last checkpoint, replay only the 2^12-row WAL tail past it).
  The ``t14-rebuild`` claim keeps it ≥ 2x.

All numbers come from the deterministic device model
(:func:`repro.gpusim.counters.counting`), so they are exact functions of
the seed; host time for the same path is the wall-clock ledger's
``service`` workload (``benchmarks/wallclock/``).  See
``docs/robustness.md`` for the fault model these costs price.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.api.facade import Graph
from repro.api.sharding import ShardedGraph
from repro.bench.results import ArtifactBuilder, ArtifactResult
from repro.gpusim.counters import counting
from repro.gpusim.model import simulated_seconds
from repro.persist import apply_event, scan_wal

__all__ = ["chaos_artifact"]

#: Backends priced in the full sweep.
CHAOS_BACKENDS = ("slabhash", "hornet")
#: Quick-mode subset (the claims' backend).
QUICK_CHAOS_BACKENDS = ("slabhash",)

#: Total inserted rows, per-batch size, and the WAL tail (rows past the
#: last checkpoint) the rebuild replays — the same shape as the ``t13``
#: single-store claim, scattered over the shards.
TOTAL_ROWS = 1 << 18
BATCH_ROWS = 1 << 9
TAIL_ROWS = 1 << 12
NUM_SHARDS = 4
#: The shard the artifact kills and recovers.
VICTIM = 1


def _measure(backend: str, seed: int) -> tuple[float, float]:
    """Degraded-read overhead and rebuild speedup on one seeded history."""
    rng = np.random.default_rng(seed)
    num_vertices = TOTAL_ROWS // 4
    with tempfile.TemporaryDirectory(prefix="repro-t14-") as tmp:
        service = ShardedGraph.create(backend, num_vertices, num_shards=NUM_SHARDS)
        service.attach_durability(Path(tmp) / "stores", fsync="never")

        def insert_rows(rows: int) -> None:
            for _ in range(rows // BATCH_ROWS):
                src = rng.integers(0, num_vertices, BATCH_ROWS, dtype=np.int64)
                dst = rng.integers(0, num_vertices, BATCH_ROWS, dtype=np.int64)
                service.insert_edges(src, dst)

        insert_rows(TOTAL_ROWS - TAIL_ROWS)
        service.stores.checkpoint()
        insert_rows(TAIL_ROWS)

        # Healthy fresh assemble: per-shard snapshots + global placement.
        # Also cuts the global snapshot the dead shard's rows are served from.
        with counting() as delta:
            live = service.snapshot()
        fresh_model_s = simulated_seconds(delta)

        service.kill_shard(VICTIM)
        with counting() as delta:
            degraded = service.degraded_snapshot()
        degraded_model_s = simulated_seconds(delta)
        if degraded.stale_shards != (VICTIM,):  # pragma: no cover - sharding bug
            raise AssertionError("degraded read did not serve the dead shard from cache")

        with counting() as delta:
            service.rebuild_shard(VICTIM)
        rebuild_model_s = simulated_seconds(delta)
        snap = service.snapshot()
        if not (
            np.array_equal(snap.row_ptr, live.row_ptr)
            and np.array_equal(snap.col_idx, live.col_idx)
        ):  # pragma: no cover - a failure here is a recovery bug
            raise AssertionError("rebuilt service diverged from the pre-kill snapshot")

        # Cold re-ingest baseline: the victim's entire per-shard WAL
        # replayed from empty (no checkpoint to bound the replay).
        events = scan_wal(service.stores.wal_dir(VICTIM)).events
        with counting() as delta:
            cold = Graph.create(backend, num_vertices)
            for event in events:
                apply_event(cold, event)
        cold_model_s = simulated_seconds(delta)
        service.stores.close()
    return degraded_model_s / fresh_model_s, cold_model_s / rebuild_model_s


def chaos_artifact(seed: int = 0, quick: bool = False) -> ArtifactResult:
    """Price degraded reads and shard recovery under faults (module doc)."""
    out = ArtifactBuilder(
        "t14",
        "Table XIV — chaos: degraded-read overhead, cold re-ingest / shard rebuild",
        ["Backend", "|E|", "Shards", "Overhead", "Speedup"],
    )
    log2_e = TOTAL_ROWS.bit_length() - 1
    for name in QUICK_CHAOS_BACKENDS if quick else CHAOS_BACKENDS:
        overhead, speedup = _measure(name, seed)
        out.add_row([name, f"2^{log2_e}", NUM_SHARDS, overhead, speedup])
        key = (f"E=2^{log2_e}", f"shards={NUM_SHARDS}", name)
        out.metric(overhead, "ratio", *key, "degraded_read_overhead", backend=name)
        out.metric(speedup, "x", *key, "recovery_speedup", backend=name, items=TOTAL_ROWS)
    return out.build()
