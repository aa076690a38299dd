"""Fault injection, shard failover, and degraded-mode serving.

Run:  python examples/chaos_failover.py

A sharded graph service has to keep answering while parts of it fail.
This example walks the full robustness story with :mod:`repro.chaos`
and the hardened :class:`repro.api.ShardedGraph`:

1. build a 4-shard durable service and wrap every shard in a seeded
   fault plan — the fault schedule is deterministic, so this script
   prints the same story on every run;
2. transient faults: the router's retry-with-backoff absorbs them
   transparently (the workload never notices);
3. a permanent fault kills a shard mid-batch: the router is strict —
   the batch raises ``PartialDispatchError``, whose report says exactly
   which shards applied, and the caller keeps that report; queries on
   the dead shard raise a typed ShardError, and reads continue through
   ``degraded_snapshot()`` — the dead shard's rows served from the last
   global snapshot, tagged with its version;
4. failover: ``rebuild_shard()`` replays the shard's own write-ahead
   log into a fresh backend and ``redrive(report)`` re-applies the kept
   batch on the shard that missed it — the service converges to the
   exact state of a run where the fault never happened.
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.api import PartialDispatchError, ShardedGraph, ShardError
from repro.chaos import FaultPlan, FaultSpec, FaultyBackend


def main() -> None:
    rng = np.random.default_rng(7)
    num_vertices = 2_000

    # --- 1. a durable sharded service under a seeded fault plan --------
    plan = FaultPlan(
        seed=42,
        specs=(
            # Two transient blips on shard 2's inserts, then one
            # permanent failure on shard 1 (its third insert batch).
            FaultSpec("shard2.insert_edges", kind="transient", max_fires=2),
            FaultSpec("shard1.insert_edges", kind="permanent", after=2),
        ),
    )
    service = ShardedGraph.create("slabhash", num_vertices, num_shards=4)
    for s, shard in enumerate(service.shards):
        shard.backend = FaultyBackend(shard.backend, plan, prefix=f"shard{s}")

    with tempfile.TemporaryDirectory() as tmp:
        service.attach_durability(Path(tmp) / "stores", fsync="never")

        def insert_batch(size=400):
            src = rng.integers(0, num_vertices, size, dtype=np.int64)
            dst = rng.integers(0, num_vertices, size, dtype=np.int64)
            return service.insert_edges(src, dst)

        # --- 2. transient faults: absorbed by retry ---------------------
        insert_batch()
        insert_batch()
        stats = service.fault_stats
        print(
            f"transient faults absorbed: {stats['transient_faults']} "
            f"(retries {stats['retries']}, health {service.health})"
        )
        healthy_snapshot = service.snapshot()  # the cut degraded reads serve

        # --- 3. a shard dies mid-batch ----------------------------------
        try:
            insert_batch()
        except PartialDispatchError as exc:
            report = exc.report  # kept until the shard is back
        print(
            f"strict mode: PartialDispatchError applied={report.applied} "
            f"failed={report.failed_shards}"
        )
        print(f"health after permanent fault: {service.health}")

        try:
            service.degree(np.arange(num_vertices, dtype=np.int64))
        except ShardError as exc:
            print(f"typed query failure: shard={exc.shard} op={exc.op}")

        degraded = service.degraded_snapshot()
        (shard, cut_version, _) = degraded.staleness[0]
        print(
            f"degraded read: {degraded.snapshot.num_edges} edges served, "
            f"shard {shard} stale (served from the snapshot at v{cut_version})"
        )
        assert degraded.snapshot.num_edges >= healthy_snapshot.num_edges

        # --- 4. failover: WAL replay + redrive --------------------------
        info = service.rebuild_shard(1)
        follow_up = service.redrive(report)
        print(
            f"rebuilt shard {info.shard}: replayed {info.replayed_events} WAL "
            f"events, re-drove the kept batch (complete: {follow_up is None})"
        )

        # The recovered service equals a never-faulted replay of the same
        # batches: re-run the whole workload fault-free and compare.
        clean = ShardedGraph.create("slabhash", num_vertices, num_shards=4)
        clean_rng = np.random.default_rng(7)
        for _ in range(3):
            src = clean_rng.integers(0, num_vertices, 400, dtype=np.int64)
            dst = clean_rng.integers(0, num_vertices, 400, dtype=np.int64)
            clean.insert_edges(src, dst)
        got, want = service.snapshot(), clean.snapshot()
        assert np.array_equal(got.row_ptr, want.row_ptr)
        assert np.array_equal(got.col_idx, want.col_idx)
        print("recovered service verified bit-identical to a never-faulted run")
        assert service.health == ["healthy"] * 4
        service.stores.close()


if __name__ == "__main__":
    main()
