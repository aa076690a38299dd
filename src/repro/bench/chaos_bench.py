"""Chaos artifact (``t14``): pricing failover, degraded reads, recovery.

The hardened sharded service (:mod:`repro.api.sharding` +
:mod:`repro.persist.sharded`) promises three things under faults, and
this artifact prices each of them on an insert-heavy history at
|E| = 2^18 over 4 shards:

- **Degraded reads** — with one shard dead,
  :meth:`~repro.api.sharding.ShardedGraph.degraded_snapshot` assembles
  the global view from the live shards plus the dead shard's last cached
  snapshot.  **Overhead** is its modeled cost relative to a healthy
  fresh assemble; the quick CI gate keeps the ratio bounded (a degraded
  read re-pays the global assemble, never a per-shard rebuild);
- **Rebuild ms** — modeled cost of
  :meth:`~repro.api.sharding.ShardedGraph.rebuild_shard`: restore the
  shard's last checkpoint, replay only the WAL tail past it;
- **Cold ms** — modeled cost of re-ingesting the same shard by
  replaying its *entire* per-shard WAL from an empty backend (what
  recovery degrades to with no checkpoint); **Speedup** is their ratio
  and the quick CI gate keeps it ≥ 2x with a 2^12-row tail;
- **Scenario model** — a full seeded chaos scenario
  (:func:`repro.stream.chaos.kill_rebuild_scenario`: kill mid-stream,
  serve degraded, rebuild, re-drive) run end to end, so CI exercises the
  whole fault → failover → recovery path every run.

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
from repro.stream.chaos import kill_rebuild_scenario, run_chaos_scenario

__all__ = ["chaos_artifact"]

#: Backends priced in the full sweep.
CHAOS_BACKENDS = ("slabhash", "hornet")
#: Quick-mode subset (the CI gate's backend).
QUICK_CHAOS_BACKENDS = ("slabhash",)

#: Total inserted rows, per-batch size, and the WAL tail (rows past the
#: last checkpoint) the rebuild replays — the same shape as the ``t13``
#: single-store gate, scattered over the shards.
TOTAL_ROWS = 1 << 18
BATCH_ROWS = 1 << 9
TAIL_ROWS = 1 << 12
NUM_SHARDS = 4
#: The shard the artifact kills and recovers.
VICTIM = 1


def _measure(backend: str, seed: int) -> dict:
    """Price degraded reads and kill → rebuild on one seeded history."""
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
        # Also populates the per-shard snapshot cache degraded reads serve.
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
            info = service.rebuild_shard(VICTIM)
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

    # End-to-end chaos scenario: the whole fault → degraded → rebuild →
    # re-drive path under the seeded plan (small: this is a path check,
    # not a throughput probe).
    scenario = kill_rebuild_scenario(1 << 8, batch=64, shard=VICTIM, seed=seed)
    with run_chaos_scenario(scenario, backend, num_shards=NUM_SHARDS, fault_seed=seed) as res:
        scen_model_s = sum(p.model_seconds for p in res.phases)
        degraded_phases = sum(1 for p in res.phases if p.detail.get("degraded"))
    if degraded_phases == 0:  # pragma: no cover - scenario engine bug
        raise AssertionError("kill-rebuild scenario never served a degraded read")

    return {
        "fresh_model_ms": fresh_model_s * 1e3,
        "degraded_model_ms": degraded_model_s * 1e3,
        "degraded_overhead": degraded_model_s / fresh_model_s,
        "rebuild_model_ms": rebuild_model_s * 1e3,
        "cold_model_ms": cold_model_s * 1e3,
        "recovery_speedup": cold_model_s / rebuild_model_s,
        "replayed_events": info.replayed_events,
        "scenario_model_ms": scen_model_s * 1e3,
    }


def chaos_artifact(seed: int = 0, quick: bool = False) -> ArtifactResult:
    """Price degraded reads and shard recovery under faults (module doc)."""
    out = ArtifactBuilder(
        "t14",
        "Table XIV — chaos: degraded reads, shard rebuild vs cold re-ingest",
        [
            "Backend",
            "|E|",
            "Shards",
            "Fresh ms",
            "Degraded ms",
            "Overhead",
            "Rebuild ms",
            "Cold ms",
            "Speedup",
        ],
    )
    backends = QUICK_CHAOS_BACKENDS if quick else CHAOS_BACKENDS
    log2_e = int(np.log2(TOTAL_ROWS))
    for name in backends:
        m = _measure(name, seed)
        out.add_row(
            [
                name,
                f"2^{log2_e}",
                NUM_SHARDS,
                m["fresh_model_ms"],
                m["degraded_model_ms"],
                m["degraded_overhead"],
                m["rebuild_model_ms"],
                m["cold_model_ms"],
                m["recovery_speedup"],
            ]
        )
        key = (f"E=2^{log2_e}", f"shards={NUM_SHARDS}", name)
        out.metric(m["fresh_model_ms"], "ms", *key, "fresh_read", backend=name)
        out.metric(m["degraded_model_ms"], "ms", *key, "degraded_read", backend=name)
        out.metric(
            m["degraded_overhead"], "ratio", *key, "degraded_read_overhead", backend=name
        )
        out.metric(m["rebuild_model_ms"], "ms", *key, "rebuild", backend=name)
        out.metric(m["cold_model_ms"], "ms", *key, "cold_reingest", backend=name)
        out.metric(
            m["recovery_speedup"], "x", *key, "recovery_speedup",
            backend=name, items=TOTAL_ROWS,
        )
        out.metric(m["scenario_model_ms"], "ms", *key, "scenario_model", backend=name)
    return out.build()
