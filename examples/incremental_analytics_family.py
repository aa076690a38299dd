"""The whole delta-aware analytics family on one churn-style scenario.

Run:  python examples/incremental_analytics_family.py

One weighted churn-style schedule — insert bursts, a deletion window,
re-anchoring inserts — priced under all six analytics at once: connected
components, PageRank, triangle count, BFS, SSSP, and k-core.  The run
prints the per-phase, per-analytic modeled cost and serving mode, so you
can watch each analytic fold insert windows incrementally, the component,
distance and k-core repairs fall back cold on the deletion (PageRank and
the triangle count fold it), and all resume incrementally afterwards.  A
final pass with ``validate=True`` re-derives every cold reference after
every phase to prove the incremental answers are exact.

See docs/analytics.md for the family's contracts and fallback triggers.
"""

import numpy as np

from repro.stream import (
    ANALYTICS,
    IncrementalKCore,
    IncrementalSSSP,
    IncrementalTriangleCount,
    Phase,
    Scenario,
    run_scenario,
)

TOL = 1e-6


def churn_family_scenario() -> Scenario:
    """Weighted churn-style schedule (the stock ``churn_scenario`` is
    unweighted; SSSP needs weights, so this example declares its own)."""
    return Scenario(
        name="family-churn-2^11",
        family="powerlaw",
        num_vertices=1 << 11,
        avg_degree=6.0,
        weighted=True,
        phases=(
            Phase("insert", size=256, batches=2),
            Phase("compute"),
            Phase("insert", size=256),
            Phase("compute"),
            Phase("delete", size=96),
            Phase("compute"),
            Phase("insert", size=256),
            Phase("compute"),
        ),
    )


def main() -> None:
    scenario = churn_family_scenario()
    print(
        f"scenario {scenario.name}: {len(scenario.phases)} phases, "
        f"analytics {', '.join(ANALYTICS)}\n"
    )

    full = run_scenario(scenario, "slabhash", mode="full", tol=TOL, analytics=ANALYTICS)
    incr = run_scenario(scenario, "slabhash", mode="incremental", tol=TOL, analytics=ANALYTICS)

    print("per compute phase, per analytic (modeled device ms, incremental mode):")
    for p, q in zip(full.compute_phases(), incr.compute_phases()):
        print(f"  phase {q.index} (after {scenario.phases[q.index - 1].kind}):")
        for name in ANALYTICS:
            cold_ms = p.detail["analytic_model"][name] * 1e3
            warm_ms = q.detail["analytic_model"][name] * 1e3
            print(
                f"    {name:9s} full {cold_ms:8.4f} ms   "
                f"incr {warm_ms:8.4f} ms   ({q.detail['modes'][name]})"
            )
    speedup = full.mean_compute_model_seconds() / incr.mean_compute_model_seconds()
    print(f"\nfamily speedup, incremental vs full recompute: {speedup:.2f}x\n")

    # --- Exactness: validated after every phase --------------------------
    run_scenario(
        scenario,
        "slabhash",
        mode="incremental",
        tol=1e-10,
        max_iters=500,
        analytics=ANALYTICS,
        validate=True,
    )
    print("all six incremental analytics verified exact after every phase\n")

    # --- The cursor-driven classes directly ------------------------------
    from repro.api import Graph

    g = Graph.create("hornet", num_vertices=512, weighted=True)
    rng = np.random.default_rng(11)
    g.insert_edges(
        rng.integers(0, 512, 3000), rng.integers(0, 512, 3000), weights=rng.integers(1, 10, 3000)
    )
    tc = IncrementalTriangleCount(g)
    sssp = IncrementalSSSP(g, source=0)
    core = IncrementalKCore(g, k=3)  # each constructor builds its state cold
    # Burst weights stay at the minimum: an upsert that *grew* an existing
    # edge's weight would (correctly) force SSSP back to a cold run.
    g.insert_edges(rng.integers(0, 512, 64), rng.integers(0, 512, 64), weights=np.ones(64))
    triangles = tc.count()
    reachable = int(np.count_nonzero(sssp.distances() >= 0))
    in_core = int(np.count_nonzero(core.members()))
    print(
        f"after one 64-edge burst: {triangles} triangles (TC {tc.last_mode}), "
        f"{reachable} reachable from 0 (SSSP {sssp.last_mode}), "
        f"{in_core} vertices in the {core.k}-core (k-core {core.last_mode})"
    )


if __name__ == "__main__":
    main()
