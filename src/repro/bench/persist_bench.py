"""Durability artifact (``t13``): pricing crash recovery and WAL overhead.

The durable store (:mod:`repro.persist`) trades a per-batch write-ahead
append plus periodic checkpoints for bounded-time crash recovery.  This
artifact prices both sides of that trade on an insert-heavy history of
small batches (the paper's dominant streaming pattern):

- **Recover ms** — modeled device cost of ``open_graph`` on a store with
  a checkpoint covering all but a WAL tail: bulk-restore the snapshot +
  replay only the tail;
- **Cold ms** — modeled cost of rebuilding the same graph by replaying
  the *entire* WAL from an empty backend (what recovery degrades to with
  no checkpoint); **Speedup** is their ratio, and the quick CI gate
  keeps it ≥ 3x at |E| = 2^18 with a 2^12-row tail;
- **WAL B/row** — on-disk log bytes per edge row (framing overhead over
  the 16 raw endpoint bytes; deterministic);
- **Ckpt MB** — size of the checkpoint the recovery restores.

Recovery and cold replay are measured under the device model
(:func:`repro.gpusim.counters.counting`), so every number here is
deterministic for a fixed seed; what the append, the checkpoint write and
the recovery cost in host time is the wall-clock ledger's ``service``
workload (``benchmarks/wallclock/``).  Varying the tail length prices the
checkpoint-cadence knob directly: the tail *is* the replay the last
checkpoint did not absorb.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.api.facade import Graph
from repro.bench.results import ArtifactBuilder, ArtifactResult
from repro.gpusim.counters import counting
from repro.gpusim.model import simulated_seconds
from repro.persist import apply_event, open_graph, scan_wal

__all__ = ["persist_artifact"]

#: Backends priced in the full sweep.
PERSIST_BACKENDS = ("slabhash", "hornet")
#: Quick-mode subset (the CI gate's backend).
QUICK_PERSIST_BACKENDS = ("slabhash",)

#: WAL-tail lengths (rows past the last checkpoint) swept in full mode —
#: the checkpoint-cadence axis.  Quick mode pins the gate's 2^12 tail.
TAIL_ROWS = (1 << 10, 1 << 12, 1 << 14)
QUICK_TAIL_ROWS = (1 << 12,)

#: Total inserted rows and per-batch size.  Small batches are the point:
#: cold replay pays the per-batch dispatch constants |E|/batch times,
#: the checkpoint restore pays them once.
TOTAL_ROWS = 1 << 18
BATCH_ROWS = 1 << 9


def _measure(backend: str, total_rows: int, tail_rows: int, seed: int) -> dict:
    """Build one store (checkpoint cut ``tail_rows`` before the end),
    then price recovery against a full cold replay of its WAL."""
    rng = np.random.default_rng(seed)
    num_vertices = total_rows // 4
    with tempfile.TemporaryDirectory(prefix="repro-t13-") as tmp:
        store_dir = Path(tmp) / "store"
        dg = open_graph(store_dir, backend, num_vertices=num_vertices, fsync="never")
        for _ in range((total_rows - tail_rows) // BATCH_ROWS):
            src = rng.integers(0, num_vertices, BATCH_ROWS, dtype=np.int64)
            dst = rng.integers(0, num_vertices, BATCH_ROWS, dtype=np.int64)
            dg.graph.insert_edges(src, dst)
        ckpt_bytes = dg.checkpoint().npz_path.stat().st_size
        for _ in range(tail_rows // BATCH_ROWS):
            src = rng.integers(0, num_vertices, BATCH_ROWS, dtype=np.int64)
            dst = rng.integers(0, num_vertices, BATCH_ROWS, dtype=np.int64)
            dg.graph.insert_edges(src, dst)
        wal_bytes_per_row = dg.wal.bytes_written / dg.wal.rows_written
        live = dg.graph.snapshot()
        dg.close()

        with counting() as delta:
            recovered = open_graph(store_dir, fsync="never")
        recover_model_s = simulated_seconds(delta)
        snap = recovered.graph.snapshot()
        if not (
            np.array_equal(snap.row_ptr, live.row_ptr)
            and np.array_equal(snap.col_idx, live.col_idx)
        ):  # pragma: no cover - a failure here is a persist-layer bug
            raise AssertionError("recovered snapshot diverged from the live graph")
        recovered.close()

        events = scan_wal(store_dir / "wal").events
        with counting() as delta:
            cold = Graph.create(backend, num_vertices)
            for event in events:
                apply_event(cold, event)
        cold_model_s = simulated_seconds(delta)

    return {
        "recover_model_ms": recover_model_s * 1e3,
        "cold_model_ms": cold_model_s * 1e3,
        "speedup": cold_model_s / recover_model_s,
        "wal_bytes_per_row": wal_bytes_per_row,
        "ckpt_mb": ckpt_bytes / 2**20,
    }


def persist_artifact(seed: int = 0, quick: bool = False) -> ArtifactResult:
    """Price durable-store recovery vs. cold WAL replay (see module doc)."""
    out = ArtifactBuilder(
        "t13",
        "Table XIII — durable graphs: checkpoint+tail recovery vs cold WAL replay",
        [
            "Backend",
            "|E|",
            "Tail",
            "WAL B/row",
            "Ckpt MB",
            "Recover ms",
            "Cold ms",
            "Speedup",
        ],
    )
    backends = QUICK_PERSIST_BACKENDS if quick else PERSIST_BACKENDS
    tails = QUICK_TAIL_ROWS if quick else TAIL_ROWS
    log2_e = int(np.log2(TOTAL_ROWS))
    for name in backends:
        for tail in tails:
            m = _measure(name, TOTAL_ROWS, tail, seed)
            out.add_row(
                [
                    name,
                    f"2^{log2_e}",
                    f"2^{int(np.log2(tail))}",
                    m["wal_bytes_per_row"],
                    m["ckpt_mb"],
                    m["recover_model_ms"],
                    m["cold_model_ms"],
                    m["speedup"],
                ]
            )
            key = (f"E=2^{log2_e}", f"tail=2^{int(np.log2(tail))}", name)
            out.metric(m["recover_model_ms"], "ms", *key, "recover", backend=name)
            out.metric(m["cold_model_ms"], "ms", *key, "cold_replay", backend=name)
            out.metric(
                m["speedup"], "x", *key, "recovery_speedup", backend=name, items=TOTAL_ROWS
            )
            out.metric(m["wal_bytes_per_row"], "ratio", *key, "wal_bytes_per_row", backend=name)
            out.metric(m["ckpt_mb"], "MB", *key, "ckpt_size", backend=name)
    return out.build()
