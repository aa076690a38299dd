"""Streaming scenarios with delta-aware incremental analytics.

Run:  python examples/streaming_incremental_analytics.py

The paper's workload is phase-concurrent: batches of edge updates
interleaved with query and compute phases.  This example declares one
seeded :class:`repro.stream.Scenario` (insert bursts + queries + compute
probes over an RMAT seed graph), runs it twice against the paper's
structure — once recomputing every compute phase from scratch, once with
the delta-subscribed incremental analytics — and prices the two against
each other with the calibrated device model.  A final pass with
``validate=True`` re-derives the cold references after every phase to
prove the incremental answers are exact.
"""

import numpy as np

from repro.stream import (
    IncrementalConnectedComponents,
    IncrementalPageRank,
    insert_heavy_scenario,
    run_scenario,
)

TOL = 1e-6


def main() -> None:
    scenario = insert_heavy_scenario(1 << 14, batch=256, rounds=3)
    print(
        f"scenario {scenario.name}: {len(scenario.phases)} phases over an "
        f"rmat graph with {scenario.num_vertices} vertices\n"
    )

    # --- The same schedule, two compute strategies -----------------------
    full = run_scenario(scenario, "slabhash", mode="full", tol=TOL)
    incr = run_scenario(scenario, "slabhash", mode="incremental", tol=TOL)

    print("per compute phase (modeled device ms):")
    for p, q in zip(full.compute_phases(), incr.compute_phases()):
        print(
            f"  phase {p.index}: full {p.model_seconds * 1e3:7.4f} ms "
            f"({p.detail['pr_sweeps']} cold sweeps)   "
            f"incremental {q.model_seconds * 1e3:7.4f} ms "
            f"({q.detail['pr_sweeps']} warm sweeps, CC {q.detail['modes']['cc']})"
        )
    speedup = full.mean_compute_model_seconds() / incr.mean_compute_model_seconds()
    print(f"incremental vs full-recompute speedup: {speedup:.2f}x\n")

    # --- Exactness: validated after every phase --------------------------
    run_scenario(
        scenario, "slabhash", mode="incremental", tol=1e-10, max_iters=500, validate=True
    )
    print("incremental analytics verified exact after every phase")

    # --- The subscriber API directly --------------------------------------
    from repro.api import Graph

    g = Graph.create("hornet", num_vertices=512)
    rng = np.random.default_rng(7)
    g.insert_edges(rng.integers(0, 512, 2000), rng.integers(0, 512, 2000))
    cc = IncrementalConnectedComponents(g)   # subscribes to g's deltas
    pr = IncrementalPageRank(g, tol=TOL)     # both build their state cold here
    g.insert_edges(rng.integers(0, 512, 64), rng.integers(0, 512, 64))
    touched = pr.touched_count
    labels = cc.labels()
    pr.compute()
    print(
        f"after one 64-edge burst: {len(np.unique(labels))} components "
        f"(CC served {cc.last_mode}), PageRank re-converged in "
        f"{pr.last_sweeps} warm sweeps from {touched} delta-touched vertices"
    )


if __name__ == "__main__":
    main()
