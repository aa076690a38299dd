"""Snapshot cost artifact (``t10``): cold vs. cached vs. incremental.

The paper's usage model is phase-concurrent — update phases mutate the
structure, compute phases read a sorted-CSR snapshot.  This artifact prices
the three ways a compute phase can obtain that snapshot after the versioned
cache landed:

- **cold** — the first snapshot: full slab/page export plus the
  O(E log E) whole-edge-set sort (the re-sort cost Table VIII prices);
- **cached** — snapshot of an *unchanged* graph: the version check hits
  the cache, zero slab reads and zero sorts;
- **incremental** — snapshot after one small edge batch applied through
  the :class:`repro.api.Graph` facade: the O(batch) delta is sorted and
  merged into the cached sorted CSR in O(E + B log B).

Reported times are modeled device milliseconds (deterministic, baseline-
gated); the ``cold/incr`` column is the speedup the delta-merge buys over
rebuilding, which the quick CI gate keeps ≥ 2x at |E| = 2^18 with 2^9-edge
deltas.  The B-tree backend is exercised by the contract tests instead:
its per-edge Python build dominates wall-clock at these sizes while its
snapshot path is the identical protocol default.
"""

from __future__ import annotations

import numpy as np

from repro.api import Graph, create as create_backend
from repro.bench.harness import time_call
from repro.bench.results import ArtifactBuilder, ArtifactResult
from repro.bench.workloads import random_edge_batch
from repro.coo import COO

__all__ = ["snapshot_artifact"]

#: Vectorized backends priced head-to-head (full mode).
SNAPSHOT_BACKENDS = ("slabhash", "hornet", "faimgraph", "gpma")

#: Quick-mode subset (keeps the CI suite fast).
QUICK_SNAPSHOT_BACKENDS = ("slabhash", "hornet")

#: Live edge-set sizes; quick mode keeps 2^18 (the gate's floor).
EDGE_COUNTS = [1 << 14, 1 << 16, 1 << 18]
QUICK_EDGE_COUNTS = [1 << 14, 1 << 18]

#: Delta batch sizes merged into the cached snapshot.
DELTA_SIZES = [1 << 7, 1 << 9, 1 << 11]
QUICK_DELTA_SIZES = [1 << 9]


def _log2_label(x: int) -> str:
    return f"2^{int(np.log2(x))}"


def snapshot_artifact(seed: int = 0, quick: bool = False) -> ArtifactResult:
    """Price cold/cached/incremental snapshots across backends and sizes."""
    out = ArtifactBuilder(
        "t10",
        "Table X — snapshot cost: cold vs cached vs incremental (ms)",
        ["|E|", "Delta", "Backend", "Cold", "Cached", "Incremental", "Cold/Incr"],
    )
    backends = QUICK_SNAPSHOT_BACKENDS if quick else SNAPSHOT_BACKENDS
    edge_counts = QUICK_EDGE_COUNTS if quick else EDGE_COUNTS
    delta_sizes = QUICK_DELTA_SIZES if quick else DELTA_SIZES
    for num_edges in edge_counts:
        num_vertices = max(num_edges // 4, 1024)
        src, dst, _ = random_edge_batch(num_vertices, num_edges, seed=seed ^ num_edges)
        base = COO(src, dst, num_vertices)
        for batch in delta_sizes:
            bs, bd, _ = random_edge_batch(num_vertices, batch, seed=seed ^ batch ^ 0x5A)
            for name in backends:
                backend = create_backend(name, num_vertices)
                backend.bulk_build(base)
                g = Graph(backend)
                rec_cold, snap = time_call("cold", g.snapshot)
                rec_cached, snap2 = time_call("cached", g.snapshot)
                assert snap2 is snap, name  # cache hit must be identity
                g.insert_edges(bs, bd)
                rec_incr, _ = time_call("incr", g.snapshot)
                speedup = (
                    rec_cold.model_seconds / rec_incr.model_seconds
                    if rec_incr.model_seconds > 0
                    else 0.0
                )
                e_label, b_label = _log2_label(num_edges), _log2_label(batch)
                out.add_row(
                    [
                        e_label,
                        b_label,
                        name,
                        rec_cold.model_millis,
                        rec_cached.model_millis,
                        rec_incr.model_millis,
                        speedup,
                    ]
                )
                key = (f"E={e_label}", f"batch={b_label}", name)
                for tier, rec in (("cold", rec_cold), ("cached", rec_cached), ("incr", rec_incr)):
                    out.metric(
                        rec.model_millis,
                        "ms",
                        *key,
                        tier,
                        backend=name,
                        record=rec,
                        items=num_edges if tier != "incr" else batch,
                    )
                out.metric(speedup, "x", *key, "speedup", backend=name)
    return out.build()
