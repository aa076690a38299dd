"""Figure 2 and Figure 3 load-factor sweeps.

The paper builds RMAT graphs (2^20 vertices, 15M-135M edges → average
degree ≈ 14-129) at different load factors and reports, against the
resulting *average chain length*:

- Fig. 2a — insertion throughput (drops ~2.5x by chain length 5);
- Fig. 2b — memory utilization (rises toward 1);
- Fig. 2c — memory usage in MB (falls as fewer buckets are allocated);
- Fig. 3  — static triangle-counting time: slow at very low load factor
  (iterating sparse lists touches many near-empty slabs) and at high load
  factor (probes walk long chains), optimal near 0.7.

Scaled setup: RMAT scale 12 with edge factors 16-128 reproduces the
paper's degree range at 1/256 the vertex count.  "Load factor" is the
bucket-sizing parameter ``lf`` in ``buckets = ceil(d / (lf * Bc))``: lf < 1
leaves slack per bucket, lf ≫ 1 forces multi-slab chains, so sweeping lf
sweeps the x-axis of all four plots.  Figure 2 uses the weighted map
variant (15 lanes/slab, as when edge values are stored); Figure 3 uses the
set variant on the symmetrized graph, like the paper's TC experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analytics.triangle_count import triangle_count_hash
from repro.api import create as create_backend
from repro.bench.harness import time_call
from repro.bench.results import ArtifactBuilder, ArtifactResult
from repro.datasets.rmat import rmat_graph

__all__ = [
    "figure2_artifact",
    "figure3_artifact",
]

#: Sizing load factors realizing average chain lengths ≈ 0.3 .. 5.
LOAD_FACTORS = [0.3, 0.5, 0.7, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0]

#: Scaled analogues of the paper's 15M..135M-edge series (avg deg 16..128).
EDGE_FACTORS = [16, 32, 64, 96, 128]

#: Quick-mode degree series: the sweep's two extremes.
QUICK_EDGE_FACTORS = [16, 64]

#: Smaller degree series for the (probe-heavy) Figure 3 sweep.
TC_EDGE_FACTORS = [8, 24, 48]

#: Quick-mode Figure 3 degree series.
QUICK_TC_EDGE_FACTORS = [8, 24]


@dataclass
class LoadFactorPoint:
    """One point of the Figure 2/3 sweeps (model-time metrics); each sweep
    fills the series its figure plots against ``mean_chain_length``."""

    edge_factor: int
    load_factor: float
    mean_chain_length: float
    insertion_rate_medges: float | None = None
    memory_utilization: float | None = None
    memory_mb: float | None = None
    tc_seconds: float | None = None


#: ``(header, unit, metric suffix, value)`` of each persisted series: the
#: x-axis (chain length) and every y-axis of the figure.
_F2_SERIES = (
    ("Insert MEdge/s", "MEdge/s", "insert", lambda p: p.insertion_rate_medges),
    ("Chain length", "chain", "chain", lambda p: p.mean_chain_length),
    ("Mem util", "util", "util", lambda p: p.memory_utilization),
    ("Mem MB", "MB", "mem", lambda p: p.memory_mb),
)
_F3_SERIES = (
    ("Chain length", "chain", "chain", lambda p: p.mean_chain_length),
    ("TC ms", "ms", "tc", lambda p: p.tc_seconds * 1e3),
)


def figure2_sweep(
    scale: int = 12, seed: int = 0, edge_factors=None
) -> list[LoadFactorPoint]:
    """Fig. 2a/2b/2c: build each (edge factor, load factor) pair and
    measure insertion rate, utilization, and memory."""
    points = []
    for ef in edge_factors if edge_factors is not None else EDGE_FACTORS:
        coo = rmat_graph(scale, ef, seed=seed)
        for lf in LOAD_FACTORS:
            g = create_backend("slabhash", coo.num_vertices, weighted=True, load_factor=lf)
            rec, _ = time_call("build", g.bulk_build, coo, items=coo.num_edges)
            st = g.stats()
            points.append(
                LoadFactorPoint(
                    edge_factor=ef,
                    load_factor=lf,
                    mean_chain_length=st.mean_bucket_load,
                    insertion_rate_medges=rec.throughput_m,
                    memory_utilization=st.memory_utilization,
                    memory_mb=st.memory_bytes / 2**20,
                )
            )
    return points


def figure3_sweep(
    scale: int = 11, seed: int = 0, edge_factors=None
) -> list[LoadFactorPoint]:
    """Fig. 3: static TC model time versus chain length on undirected RMAT."""
    points = []
    for ef in edge_factors if edge_factors is not None else TC_EDGE_FACTORS:
        coo = rmat_graph(scale, ef, seed=seed).symmetrized().deduplicated()
        for lf in LOAD_FACTORS:
            g = create_backend("slabhash", coo.num_vertices, weighted=False, load_factor=lf)
            g.bulk_build(coo)
            chain = g.stats().mean_bucket_load
            rec_tc, _ = time_call("tc", triangle_count_hash, g)
            points.append(
                LoadFactorPoint(
                    edge_factor=ef,
                    load_factor=lf,
                    mean_chain_length=chain,
                    tc_seconds=rec_tc.model_seconds,
                )
            )
    return points


def figure2_artifact(scale=12, seed=0, quick=False) -> ArtifactResult:
    """Figure 2 sweep as a structured artifact with per-point metrics."""
    efs = QUICK_EDGE_FACTORS if quick else None
    points = figure2_sweep(scale=10 if quick else scale, seed=seed, edge_factors=efs)
    return _points_artifact("f2", "Figure 2 — load-factor sweep (RMAT)", points, _F2_SERIES)


def figure3_artifact(scale=12, seed=0, quick=False) -> ArtifactResult:
    """Figure 3 sweep as a structured artifact with per-point metrics."""
    efs = QUICK_TC_EDGE_FACTORS if quick else None
    points = figure3_sweep(scale=10 if quick else scale, seed=seed, edge_factors=efs)
    return _points_artifact(
        "f3", "Figure 3 — TC time vs chain length (RMAT)", points, _F3_SERIES
    )


def _points_artifact(
    artifact: str, title: str, points: list[LoadFactorPoint], series
) -> ArtifactResult:
    out = ArtifactBuilder(artifact, title, ["Edge factor", "Load factor", *(s[0] for s in series)])
    for p in points:
        values = [value(p) for *_, value in series]
        out.add_row([p.edge_factor, p.load_factor, *values])
        at = (f"ef={p.edge_factor}", f"lf={p.load_factor:g}")
        for (_, unit, name, _), v in zip(series, values):
            out.metric(v, unit, *at, name)
    return out.build()
