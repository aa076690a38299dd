"""Sharded-service artifact (``t12``): scaling the event-log router.

The paper's structure saturates one device; the
:class:`repro.api.ShardedGraph` router scales update throughput past it by
hash-partitioning the vertex space across N independent per-shard
structures.  This artifact prices that trade on an insert-heavy streaming
workload under the device model: **Speedup** is the aggregate modeled
insert throughput of the 4-shard service (shards executing independently:
router overhead + slowest shard per batch) over the 1-shard service, whose
router overhead is included so the comparison is apples-to-apples.  The scorecard's
``t12-shard-scaling`` claim keeps it ≥ 2x.
"""

from __future__ import annotations

import numpy as np

from repro.api.sharding import ShardedGraph
from repro.bench.results import ArtifactBuilder, ArtifactResult

__all__ = ["shard_artifact"]

#: Backends priced in the full sweep (registry defaults are all directed,
#: which is what the router requires).
SHARD_BACKENDS = ("slabhash", "hornet")

#: Quick-mode subset.
QUICK_SHARD_BACKENDS = ("slabhash",)

#: The sharded point measured against the 1-shard baseline.
NUM_SHARDS = 4


def _insert_workload(num_vertices: int, batch_rows: int, batches: int, seed: int):
    """Seeded insert-heavy stream: ``batches`` batches of random edges."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(batches):
        src = rng.integers(0, num_vertices, batch_rows, dtype=np.int64)
        dst = rng.integers(0, num_vertices, batch_rows, dtype=np.int64)
        out.append((src, dst))
    return out


def _insert_seconds(name: str, num_vertices: int, shards: int, inserts) -> float:
    """Modeled parallel insert time of the whole stream on ``shards`` shards."""
    service = ShardedGraph.create(name, num_vertices, num_shards=shards)
    for src, dst in inserts:
        service.insert_edges(src, dst)
    return service.update_costs.parallel_seconds


def shard_artifact(seed: int = 0, quick: bool = False) -> ArtifactResult:
    """Price the sharded service's modeled insert scaling."""
    out = ArtifactBuilder(
        "t12",
        "Table XII — sharded service: modeled insert speedup over one shard",
        ["Backend", "Shards", "Speedup"],
    )
    if quick:
        backends, num_vertices, batches = QUICK_SHARD_BACKENDS, 1 << 15, 10
    else:
        backends, num_vertices, batches = SHARD_BACKENDS, 1 << 17, 24
    inserts = _insert_workload(num_vertices, 1 << 14, batches, seed)
    for name in backends:
        speedup = _insert_seconds(name, num_vertices, 1, inserts) / _insert_seconds(
            name, num_vertices, NUM_SHARDS, inserts
        )
        out.add_row([name, NUM_SHARDS, speedup])
        out.metric(speedup, "x", name, f"shards={NUM_SHARDS}", "insert_speedup", backend=name)
    return out.build()
