"""Kernel-tier pricing bench (``t15``): reference vs jit per op.

Prices the four kernel paths behind :mod:`repro.kernels` — batched insert,
search, delete, and the snapshot delta merge — under each selectable kernel
tier, and proves the tiers interchangeable:

- ``t15/<op>/<tier>_wall_ms`` — wall-clock per op per tier.  Host-dependent;
  the baseline gives them a loose band (see
  :data:`repro.bench.compare.TOLERANCE_OVERRIDES`).  Jit wall metrics are
  emitted only when numba is actually importable — the committed baseline
  is reference-tier, so jit rows show up as informational ``new`` metrics
  on jit-enabled hosts instead of poisoning the gate.
- ``t15/<op>/jit_speedup`` — reference wall over jit wall (numba runs only).
- ``t15/<op>/jit_parity`` — **deterministic**: 1.0 iff running the same
  seeded workload through the jit tier (forced, so it works without numba
  via the uncompiled fallback) reproduces the reference tier's outputs,
  pool mutations, *and* :mod:`repro.gpusim` counter deltas bit-for-bit.
  Gated at zero tolerance; this is the counter-parity proof the baseline
  carries.

Usage::

    PYTHONPATH=src python -m repro.bench.kernel_bench [--quick]
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.api.snapshot import CSRSnapshot, merge_csr_delta
from repro.bench.harness import format_table
from repro.bench.results import ArtifactBuilder, ArtifactResult
from repro.gpusim.counters import get_counters
from repro.kernels import jit_available, use_tier
from repro.slabhash.arena import SlabArena
from repro.slabhash.delete import delete_batch
from repro.slabhash.insert import insert_batch
from repro.slabhash.search import search_batch

__all__ = ["OPS", "kernel_artifact", "op_parity", "time_op"]

#: The refactored kernel paths this artifact prices.
OPS = ("insert", "search", "delete", "merge")

# batch/table/key sizes per mode; parity runs the jit tier's *uncompiled*
# Python fallback when numba is absent, so its workload stays small.
_FULL = {
    "batch": 16384, "tables": 1024, "keys": 8192,
    "edges": 150_000, "delta": 20_000, "repeats": 3,
}
_QUICK = {"batch": 4096, "tables": 512, "keys": 2048, "edges": 30_000, "delta": 4_000, "repeats": 2}
_PARITY = {"batch": 1200, "tables": 64, "keys": 512, "edges": 5_000, "delta": 600, "repeats": 1}

_MERGE_VERTICES = 1024


def _counter_state() -> dict:
    c = get_counters()
    return {k: v for k, v in vars(c).items() if k != "_extra"}


def _update_inputs(cfg: dict, seed: int):
    rng = np.random.default_rng(seed)
    t = rng.integers(0, cfg["tables"], cfg["batch"], dtype=np.int64)
    k = rng.integers(0, cfg["keys"], cfg["batch"], dtype=np.int64)
    v = rng.integers(1, 100, cfg["batch"], dtype=np.int64)
    return t, k, v


def _fresh_arena(cfg: dict) -> SlabArena:
    arena = SlabArena(num_tables=cfg["tables"], weighted=True)
    arena.create_tables(
        np.arange(cfg["tables"], dtype=np.int64),
        np.full(cfg["tables"], 2, dtype=np.int64),
    )
    return arena


def _loaded_arena(cfg: dict, seed: int) -> SlabArena:
    """An arena pre-populated with the seeded batch (untimed setup)."""
    arena = _fresh_arena(cfg)
    t, k, v = _update_inputs(cfg, seed)
    insert_batch(arena, t, k, v)
    return arena


def _merge_inputs(cfg: dict, seed: int):
    rng = np.random.default_rng(seed ^ 0xD1F)
    v_count = _MERGE_VERTICES
    comp = np.unique(
        (rng.integers(0, v_count, cfg["edges"]).astype(np.int64) << 32)
        | rng.integers(0, v_count, cfg["edges"])
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
        (rng.integers(0, v_count, cfg["delta"]).astype(np.int64) << 32)
        | rng.integers(0, v_count, cfg["delta"])
    )
    uw = rng.integers(1, 100, ups.size).astype(np.int64)
    dels = np.setdiff1d(comp[::5], ups)[: cfg["delta"]]
    return base, ups, uw, dels


def _run_op(op: str, cfg: dict, seed: int):
    """Run one seeded op; return comparable outputs + the counter delta.

    Setup (arena construction, pre-population, delta generation) happens
    outside the measured window: the returned ``seconds`` covers only the
    kernel path under test.
    """
    if op == "insert":
        t, k, v = _update_inputs(cfg, seed)
        arena = _fresh_arena(cfg)
        before = _counter_state()
        t0 = perf_counter()
        out = insert_batch(arena, t, k, v)
        seconds = perf_counter() - t0
        state = (out, arena.pool.keys.copy(), arena.pool.values.copy(), arena.pool.next_slab.copy())
    elif op == "search":
        arena = _loaded_arena(cfg, seed)
        t, k, _ = _update_inputs(cfg, seed ^ 0xA5)
        before = _counter_state()
        t0 = perf_counter()
        found, vals = search_batch(arena, t, k)
        seconds = perf_counter() - t0
        state = (found, vals)
    elif op == "delete":
        arena = _loaded_arena(cfg, seed)
        t, k, _ = _update_inputs(cfg, seed)
        before = _counter_state()
        t0 = perf_counter()
        out = delete_batch(arena, t, k)
        seconds = perf_counter() - t0
        state = (out, arena.pool.keys.copy())
    elif op == "merge":
        base, ups, uw, dels = _merge_inputs(cfg, seed)
        before = _counter_state()
        t0 = perf_counter()
        snap = merge_csr_delta(base, ups, uw, dels)
        seconds = perf_counter() - t0
        state = (snap.row_ptr, snap.col_idx, snap.weights)
    else:  # pragma: no cover - guarded by OPS
        raise ValueError(f"unknown op {op!r}")
    after = _counter_state()
    delta = {key: after[key] - before[key] for key in after}
    return state, delta, seconds


def time_op(op: str, cfg: dict, seed: int) -> float:
    """Best-of-repeats wall milliseconds for one op under the active tier."""
    best = min(_run_op(op, cfg, seed + r)[2] for r in range(cfg["repeats"]))
    return best * 1e3


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
    ref_state, ref_delta, _ = _run_op(op, _PARITY, seed)
    with use_tier("jit", force=True):
        jit_state, jit_delta, _ = _run_op(op, _PARITY, seed)
    return 1.0 if _states_equal(ref_state, jit_state) and ref_delta == jit_delta else 0.0


def kernel_artifact(seed: int = 0, quick: bool = False) -> ArtifactResult:
    """Build the ``t15`` artifact: per-op tier pricing + parity proofs."""
    cfg = _QUICK if quick else _FULL
    out = ArtifactBuilder(
        "t15",
        "Kernel tiers: wall-clock per op (reference / jit) + bit-parity proofs",
        ["op", "variant", "wall ms", "parity"],
    )
    have_jit = jit_available()
    for op in OPS:
        ref_ms = time_op(op, cfg, seed)
        out.add_row([op, "reference", ref_ms, "—"])
        out.metric(ref_ms, "ms", op, "reference_wall_ms", items=cfg["batch"])

        parity = op_parity(op, seed)
        out.metric(parity, "ok", op, "jit_parity")
        if have_jit:
            with use_tier("jit"):
                jit_ms = time_op(op, cfg, seed)
            out.add_row([op, "jit", jit_ms, parity])
            out.metric(jit_ms, "ms", op, "jit_wall_ms", items=cfg["batch"])
            out.metric(
                ref_ms / jit_ms if jit_ms > 0 else float("inf"),
                "x",
                op,
                "jit_speedup",
            )
        else:
            out.add_row([op, "jit(parity-only)", "—", parity])
    return out.build()


def main(argv=None) -> None:  # pragma: no cover - CLI convenience
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI-size sweep")
    args = parser.parse_args(argv)
    art = kernel_artifact(quick=args.quick)
    print(format_table(art.title, art.headers, art.rows))
    for res in art.results:
        if res.metric.endswith("_parity"):
            print(f"{res.metric}: {'OK' if res.value == 1.0 else 'MISMATCH'}")


if __name__ == "__main__":  # pragma: no cover
    main()
