"""Durability artifact (``t13``): pricing crash recovery and WAL overhead.

The durable store (:mod:`repro.persist`) trades a per-batch write-ahead
append plus periodic checkpoints for bounded-time crash recovery.  This
artifact prices the recovery side on an insert-heavy history of small
batches (the paper's dominant streaming pattern): **Speedup** is the
modeled device cost of rebuilding the graph by replaying the *entire* WAL
from an empty backend (what recovery degrades to with no checkpoint) over
the cost of ``open_graph`` on a store whose checkpoint covers all but a
2^12-row WAL tail (bulk-restore the snapshot + replay only the tail).  The
scorecard's ``t13-recovery`` claim keeps it ≥ 3x at |E| = 2^18.

Both sides are measured under the device model
(:func:`repro.gpusim.counters.counting`), so the ratio is deterministic for
a fixed seed; what the append, the checkpoint write and the recovery cost
in host time is the wall-clock ledger's ``service`` workload
(``benchmarks/wallclock/``).
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
#: Quick-mode subset (the claim's backend).
QUICK_PERSIST_BACKENDS = ("slabhash",)

#: Total inserted rows, per-batch size, and the WAL tail (rows past the
#: last checkpoint) recovery replays.  Small batches are the point: cold
#: replay pays the per-batch dispatch constants |E|/batch times, the
#: checkpoint restore pays them once.
TOTAL_ROWS = 1 << 18
BATCH_ROWS = 1 << 9
TAIL_ROWS = 1 << 12


def _recovery_speedup(backend: str, seed: int) -> float:
    """Build one store (checkpoint cut ``TAIL_ROWS`` before the end), then
    price a full cold replay of its WAL over recovery."""
    rng = np.random.default_rng(seed)
    num_vertices = TOTAL_ROWS // 4
    with tempfile.TemporaryDirectory(prefix="repro-t13-") as tmp:
        store_dir = Path(tmp) / "store"
        dg = open_graph(store_dir, backend, num_vertices=num_vertices, fsync="never")
        for batch in range(TOTAL_ROWS // BATCH_ROWS):
            if batch == (TOTAL_ROWS - TAIL_ROWS) // BATCH_ROWS:
                dg.checkpoint()
            src = rng.integers(0, num_vertices, BATCH_ROWS, dtype=np.int64)
            dst = rng.integers(0, num_vertices, BATCH_ROWS, dtype=np.int64)
            dg.graph.insert_edges(src, dst)
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
        return simulated_seconds(delta) / recover_model_s


def persist_artifact(seed: int = 0, quick: bool = False) -> ArtifactResult:
    """Price durable-store recovery vs. cold WAL replay (see module doc)."""
    out = ArtifactBuilder(
        "t13",
        "Table XIII — durable graphs: cold WAL replay / checkpoint+tail recovery",
        ["Backend", "|E|", "Tail", "Speedup"],
    )
    log2_e, log2_tail = TOTAL_ROWS.bit_length() - 1, TAIL_ROWS.bit_length() - 1
    for name in QUICK_PERSIST_BACKENDS if quick else PERSIST_BACKENDS:
        speedup = _recovery_speedup(name, seed)
        out.add_row([name, f"2^{log2_e}", f"2^{log2_tail}", speedup])
        key = (f"E=2^{log2_e}", f"tail=2^{log2_tail}", name)
        out.metric(speedup, "x", *key, "recovery_speedup", backend=name, items=TOTAL_ROWS)
    return out.build()
