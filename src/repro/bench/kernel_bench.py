"""Kernel-tier parity proofs (``t15``): reference vs jit per op.

Proves the selectable kernel tiers behind :mod:`repro.kernels`
interchangeable on the four kernel paths — batched insert, search, delete,
and the snapshot delta merge:

- ``t15/<op>/jit_parity`` — **deterministic**: 1.0 iff running the same
  seeded workload through the jit tier (forced, so it works without numba
  via the uncompiled fallback) reproduces the reference tier's outputs,
  pool mutations, *and* :mod:`repro.gpusim` counter deltas bit-for-bit.
  Gated at zero tolerance; this is the counter-parity proof the baseline
  carries.

What each tier costs in host time is not this artifact's question: the
wall-clock ledger's ``kernels`` layer (``benchmarks/wallclock/``) prices it.
Run it with ``python -m repro.bench.runner t15``.
"""

from __future__ import annotations

import numpy as np

from repro.api.snapshot import CSRSnapshot, merge_csr_delta
from repro.bench.results import ArtifactBuilder, ArtifactResult
from repro.gpusim.counters import get_counters
from repro.kernels import use_tier
from repro.slabhash.arena import SlabArena
from repro.slabhash.delete import delete_batch
from repro.slabhash.insert import insert_batch
from repro.slabhash.search import search_batch

__all__ = ["OPS", "kernel_artifact", "op_parity"]

#: The kernel paths this artifact proves tier-interchangeable.
OPS = ("insert", "search", "delete", "merge")

# The jit tier runs its *uncompiled* Python fallback when numba is absent,
# so the workload stays small.
_BATCH, _TABLES, _KEYS = 1200, 64, 512
_MERGE_VERTICES, _MERGE_EDGES, _MERGE_DELTA = 1024, 5_000, 600


def _counter_state() -> dict:
    c = get_counters()
    return {k: v for k, v in vars(c).items() if k != "_extra"}


def _update_inputs(seed: int):
    rng = np.random.default_rng(seed)
    t = rng.integers(0, _TABLES, _BATCH, dtype=np.int64)
    k = rng.integers(0, _KEYS, _BATCH, dtype=np.int64)
    v = rng.integers(1, 100, _BATCH, dtype=np.int64)
    return t, k, v


def _fresh_arena() -> SlabArena:
    arena = SlabArena(num_tables=_TABLES, weighted=True)
    arena.create_tables(np.arange(_TABLES, dtype=np.int64), np.full(_TABLES, 2, dtype=np.int64))
    return arena


def _loaded_arena(seed: int) -> SlabArena:
    """An arena pre-populated with the seeded batch (uncounted setup)."""
    arena = _fresh_arena()
    t, k, v = _update_inputs(seed)
    insert_batch(arena, t, k, v)
    return arena


def _merge_inputs(seed: int):
    rng = np.random.default_rng(seed ^ 0xD1F)
    v_count = _MERGE_VERTICES
    comp = np.unique(
        (rng.integers(0, v_count, _MERGE_EDGES).astype(np.int64) << 32)
        | rng.integers(0, v_count, _MERGE_EDGES)
    )
    w = rng.integers(1, 100, comp.size).astype(np.int64)
    counts = np.bincount(comp >> np.int64(32), minlength=v_count)
    row_ptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    base = CSRSnapshot(
        row_ptr=row_ptr,
        col_idx=(comp & np.int64(0xFFFFFFFF)).astype(np.int64),
        weights=w,
        num_vertices=v_count,
    )
    ups = np.unique(
        (rng.integers(0, v_count, _MERGE_DELTA).astype(np.int64) << 32)
        | rng.integers(0, v_count, _MERGE_DELTA)
    )
    uw = rng.integers(1, 100, ups.size).astype(np.int64)
    dels = np.setdiff1d(comp[::5], ups)[:_MERGE_DELTA]
    return base, ups, uw, dels


def _run_op(op: str, seed: int):
    """Run one seeded op under the active tier; return its comparable
    outputs and the counter delta of the kernel path alone (arena
    construction, pre-population and delta generation are not counted)."""
    if op == "insert":
        t, k, v = _update_inputs(seed)
        arena = _fresh_arena()
        before = _counter_state()
        out = insert_batch(arena, t, k, v)
        state = (out, arena.pool.keys.copy(), arena.pool.values.copy(), arena.pool.next_slab.copy())
    elif op == "search":
        arena = _loaded_arena(seed)
        t, k, _ = _update_inputs(seed ^ 0xA5)
        before = _counter_state()
        state = search_batch(arena, t, k)
    elif op == "delete":
        arena = _loaded_arena(seed)
        t, k, _ = _update_inputs(seed)
        before = _counter_state()
        out = delete_batch(arena, t, k)
        state = (out, arena.pool.keys.copy())
    elif op == "merge":
        base, ups, uw, dels = _merge_inputs(seed)
        before = _counter_state()
        snap = merge_csr_delta(base, ups, uw, dels)
        state = (snap.row_ptr, snap.col_idx, snap.weights)
    else:  # pragma: no cover - guarded by OPS
        raise ValueError(f"unknown op {op!r}")
    after = _counter_state()
    return state, {key: after[key] - before[key] for key in after}


def _states_equal(a, b) -> bool:
    for x, y in zip(a, b):
        if x is None or y is None:
            if x is not y:
                return False
        elif not np.array_equal(x, y):
            return False
    return True


def op_parity(op: str, seed: int) -> float:
    """1.0 iff jit and reference tiers agree bit-for-bit on ``op``.

    Agreement covers returned arrays, arena mutations, and the
    :mod:`repro.gpusim` counter delta.  Forces the jit tier so the proof
    runs (uncompiled) even where numba is missing.
    """
    ref_state, ref_delta = _run_op(op, seed)
    with use_tier("jit", force=True):
        jit_state, jit_delta = _run_op(op, seed)
    return 1.0 if _states_equal(ref_state, jit_state) and ref_delta == jit_delta else 0.0


def kernel_artifact(seed: int = 0, quick: bool = False) -> ArtifactResult:
    """Build the ``t15`` artifact: one bit-parity proof per kernel path
    (the same small workload at either size — ``quick`` changes nothing)."""
    out = ArtifactBuilder(
        "t15", "Kernel tiers: jit vs reference bit-parity proofs", ["op", "parity"]
    )
    for op in OPS:
        parity = op_parity(op, seed)
        out.add_row([op, parity])
        out.metric(parity, "ok", op, "jit_parity")
    return out.build()

