"""The whole delta-aware analytics family through insert and delete windows.

Run:  python examples/incremental_analytics_family.py

One weighted graph with all six incremental analytics attached at once —
connected components, PageRank, triangle count, BFS, SSSP, and k-core —
driven through three update phases: an insert burst, a deletion window,
and re-anchoring inserts.  After each phase every analytic is queried; the
example prints how it was served and its modeled device cost next to the
cold kernel's, and checks the answer against that cold kernel on the live
edge set.  Watch each analytic fold the insert windows incrementally, the
component, distance and k-core repairs fall back cold on the deletion
(PageRank and the triangle count fold it), and all resume incrementally
afterwards.

See docs/analytics.md for the family's contracts and fallback triggers.
"""

import numpy as np

from repro.analytics import (
    bfs,
    connected_components,
    kcore_membership,
    pagerank,
    sssp,
    undirected_triangles,
)
from repro.analytics.pagerank import DAMPING
from repro.api import Graph
from repro.api.snapshot import CSRSnapshot
from repro.datasets import powerlaw_graph
from repro.gpusim.counters import counting
from repro.gpusim.model import simulated_seconds
from repro.stream import (
    IncrementalBFS,
    IncrementalConnectedComponents,
    IncrementalKCore,
    IncrementalPageRank,
    IncrementalSSSP,
    IncrementalTriangleCount,
)

N = 1 << 11
TOL = 1e-10
#: PageRank stops once a sweep moves the ranks by less than ``TOL`` (L1),
#: which puts the warm and the cold answer each within
#: ``DAMPING / (1 - DAMPING) * TOL`` of the fixpoint, so within twice that
#: of each other.
PR_BOUND = 2 * DAMPING / (1 - DAMPING) * TOL


def attach(g) -> dict:
    """``name -> (incremental analytic, its query method, cold kernel)``;
    each constructor builds its state cold."""
    return {
        "cc": (IncrementalConnectedComponents(g), "labels", connected_components),
        "pagerank": (
            IncrementalPageRank(g, tol=TOL, max_iters=500),
            "compute",
            lambda snap: pagerank(snap, tol=TOL, max_iters=500),
        ),
        "tc": (IncrementalTriangleCount(g), "count", undirected_triangles),
        "bfs": (IncrementalBFS(g, source=0), "distances", lambda snap: bfs(snap, 0)),
        "sssp": (IncrementalSSSP(g, source=0), "distances", lambda snap: sssp(snap, 0)),
        "kcore": (IncrementalKCore(g, k=3), "members", lambda snap: kcore_membership(snap, 3)),
    }


def modeled_ms(call):
    """``(result, modeled device ms)`` of one call."""
    with counting() as delta:
        result = call()
    return result, simulated_seconds(delta) * 1e3


def main() -> None:
    rng = np.random.default_rng(11)
    seed = powerlaw_graph(N, 6.0, seed=0)
    g = Graph.create("slabhash", num_vertices=N, weighted=True)
    g.insert_edges(seed.src, seed.dst, weights=rng.integers(1, 100, seed.num_edges))
    family = attach(g)
    print(f"powerlaw graph: {N} vertices, {g.num_edges()} edges, analytics {', '.join(family)}\n")

    def insert(size):
        src, dst = rng.integers(0, N, size), rng.integers(0, N, size)
        g.insert_edges(src, dst, weights=rng.integers(1, 100, size))

    def delete(size):
        coo = g.export_coo()
        pick = rng.choice(coo.num_edges, size, replace=False)
        g.delete_edges(coo.src[pick], coo.dst[pick])

    phases = [("insert", insert, 512), ("delete", delete, 96), ("insert", insert, 256)]
    cold_total = incr_total = 0.0
    print("per phase, per analytic (modeled device ms):")
    for index, (kind, mutate, size) in enumerate(phases, start=1):
        mutate(size)
        print(f"  phase {index} (after {kind} {size}):")
        # The shared snapshot slice: a cold export + sort vs the delta merge.
        cold_snap, cold_ms = modeled_ms(lambda: CSRSnapshot.from_coo(g.export_coo()))
        _, incr_ms = modeled_ms(g.snapshot)
        cold_total, incr_total = cold_total + cold_ms, incr_total + incr_ms
        for name, (inc, method, kernel) in family.items():
            want, cold_ms = modeled_ms(lambda: kernel(cold_snap))
            got, incr_ms = modeled_ms(getattr(inc, method))
            cold_total, incr_total = cold_total + cold_ms, incr_total + incr_ms
            if name == "pagerank":
                exact = np.abs(got - want).sum() <= PR_BOUND
            else:
                exact = np.array_equal(got, want)
            assert exact, f"incremental {name} diverged from its cold kernel after phase {index}"
            print(
                f"    {name:9s} cold {cold_ms:8.4f} ms   "
                f"incr {incr_ms:8.4f} ms   ({inc.last_mode})"
            )
    print(f"\nfamily speedup, incremental vs cold recompute: {cold_total / incr_total:.2f}x")
    print("all six incremental analytics verified exact after every phase")


if __name__ == "__main__":
    main()
