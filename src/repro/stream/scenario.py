"""The ``t11`` streaming schedule: insert bursts, queries and compute phases.

The paper's workload is *phase-concurrent*: batches of edge updates
interleaved with query and compute phases.  A :class:`Scenario` is a
declarative, seeded spec of such a schedule over an R-MAT seed graph, and
:func:`run_scenario` executes it against any registered backend through
the :class:`repro.api.Graph` facade, recording modeled device time and
kernel counters per phase.

Compute phases run in one of two modes:

- ``mode="full"`` — the full-recompute baseline (what a Hornet- or
  faimGraph-style pipeline does between update phases): export the live
  edge set, pay the cold O(E log E) snapshot sort, and run every selected
  analytic from scratch;
- ``mode="incremental"`` — the facade's delta-merged snapshot plus the
  delta-aware analytics of :mod:`repro.stream.incremental`
  (O(batch α) union-find updates, warm-started PageRank sweeps, wedge
  closure of the window's net added and removed edges, seeded distance
  re-relaxation, candidate-set k-core peeling).

Which analytics a compute phase runs is the runner's ``analytics``
selection — any subset of :data:`ANALYTICS`, BFS and SSSP from vertex 0,
k-core at k = 3 — and each compute phase records a per-analytic
modeled-cost slice, so the ``t11`` bench artifact can price and gate
every family member separately.  Both modes are deterministic for a fixed
scenario seed.  That every incremental answer equals its cold kernel
after insert, delete, vertex-churn and out-of-band windows is tested on
the analytics themselves (``tests/test_stream_family.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analytics.bfs import bfs
from repro.analytics.connected_components import connected_components
from repro.analytics.kcore import kcore_membership
from repro.analytics.pagerank import _checked_tol, power_iteration
from repro.analytics.sssp import sssp
from repro.analytics.triangle_count import undirected_triangles
from repro.api.facade import Graph
from repro.api.snapshot import CSRSnapshot
from repro.coo import COO
from repro.datasets import rmat_graph
from repro.gpusim.counters import counting
from repro.gpusim.model import simulated_seconds
from repro.stream.incremental import (
    IncrementalBFS,
    IncrementalConnectedComponents,
    IncrementalKCore,
    IncrementalPageRank,
    IncrementalSSSP,
    IncrementalTriangleCount,
)
from repro.util.errors import ValidationError

__all__ = [
    "ANALYTICS",
    "Phase",
    "Scenario",
    "run_scenario",
    "insert_heavy_scenario",
]

#: Everything a phase can do to the graph.
PHASE_KINDS = ("insert", "query", "compute")


def _cold_pagerank(snap, tol):
    uniform = np.full(snap.num_vertices, 1.0 / snap.num_vertices, dtype=np.float64)
    return power_iteration(snap, uniform, tol=tol)


#: The delta-aware analytic family, one row per member: ``(incremental
#: class, its query method, cold kernel, parameter names)``.  The named run
#: parameters are the class's keyword arguments after the graph and the
#: kernel's positional arguments after the snapshot, so one row says how
#: to build the incremental analytic, how to query it, and how to recompute
#: its reference answer cold (PageRank's is ``(ranks, sweeps)``).
_FAMILY = {
    "cc": (IncrementalConnectedComponents, "labels", connected_components, ()),
    "pagerank": (IncrementalPageRank, "compute", _cold_pagerank, ("tol",)),
    "tc": (IncrementalTriangleCount, "count", undirected_triangles, ()),
    "bfs": (IncrementalBFS, "distances", bfs, ("source",)),
    "sssp": (IncrementalSSSP, "distances", sssp, ("source",)),
    "kcore": (IncrementalKCore, "members", kcore_membership, ("k",)),
}

#: Every analytic a compute phase can run (the delta-aware family).
ANALYTICS = tuple(_FAMILY)


@dataclass(frozen=True)
class Phase:
    """One step of a scenario schedule.

    ``kind`` selects the operation; ``size`` is the per-batch item count
    (edges for insert, probes for query; ignored for compute) and
    ``batches`` how many batches the phase applies back to back.
    """

    kind: str
    size: int = 0
    batches: int = 1

    def __post_init__(self):
        if self.kind not in PHASE_KINDS:
            raise ValidationError(f"phase kind must be one of {PHASE_KINDS}, got {self.kind!r}")
        if self.size < 0:
            raise ValidationError("phase size must be non-negative")
        if self.batches < 1:
            raise ValidationError("phase batches must be >= 1")
        if self.kind != "compute" and self.size == 0:
            raise ValidationError(f"{self.kind!r} phases need size > 0")


@dataclass(frozen=True)
class Scenario:
    """A seeded streaming workload: R-MAT seed graph + phase schedule."""

    name: str
    num_vertices: int
    avg_degree: float
    phases: tuple
    seed: int = 0
    weighted: bool = False

    def __post_init__(self):
        n = self.num_vertices
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
            raise ValidationError(f"num_vertices must be an integer power of two, got {n!r}")
        if n < 2:
            raise ValidationError("scenarios need at least 2 vertices")
        if n & (n - 1):
            # R-MAT's vertex space is 2**scale: any other count would run
            # the scenario on a graph of another size.
            raise ValidationError(f"num_vertices must be a power of two, got {n}")
        if self.avg_degree <= 0:
            raise ValidationError("avg_degree must be positive")
        if not self.phases:
            raise ValidationError("scenarios need at least one phase")
        object.__setattr__(self, "phases", tuple(self.phases))
        for p in self.phases:
            if not isinstance(p, Phase):
                raise ValidationError(f"phases must be Phase instances, got {type(p).__name__}")


def build_dataset(scenario: Scenario) -> COO:
    """Generate the scenario's R-MAT seed graph (weights attached if requested)."""
    scale = int(scenario.num_vertices).bit_length() - 1
    coo = rmat_graph(scale, edge_factor=scenario.avg_degree, seed=scenario.seed)
    if scenario.weighted:
        rng = np.random.default_rng(scenario.seed ^ 0x3E1647)
        coo = COO(
            coo.src,
            coo.dst,
            coo.num_vertices,
            weights=rng.integers(1, 100, coo.num_edges, dtype=np.int64),
        )
    return coo


@dataclass
class PhaseResult:
    """One executed phase: what it did and what it cost."""

    index: int
    kind: str
    applied: int
    model_seconds: float
    counters: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)


@dataclass
class ScenarioResult:
    """A full scenario run against one backend in one compute mode."""

    scenario: Scenario
    backend: str
    mode: str
    phases: list

    def compute_phases(self) -> list:
        """The compute-phase results, in schedule order."""
        return [p for p in self.phases if p.kind == "compute"]

    def mean_compute_model_seconds(self) -> float:
        """Mean modeled device seconds per compute phase (0.0 if none)."""
        phases = self.compute_phases()
        if not phases:
            return 0.0
        return sum(p.model_seconds for p in phases) / len(phases)


def run_scenario(
    scenario: Scenario,
    backend_name: str,
    *,
    mode: str = "incremental",
    tol: float = 1e-8,
    analytics: tuple = ("cc", "pagerank"),
) -> ScenarioResult:
    """Execute a scenario against one backend; returns per-phase records.

    ``analytics`` selects which family members every compute phase runs
    (any subset of :data:`ANALYTICS`; ``"sssp"`` needs a weighted
    scenario); ``tol`` is PageRank's.  The incremental analytics build
    cold when they are constructed, before phase 0, so per-phase costs
    measure the steady state (the one-off cold initialization is setup,
    not workload).
    """
    _check_run_params(scenario, mode=mode, tol=tol, analytics=analytics)
    coo = build_dataset(scenario)
    g = Graph.create(backend_name, num_vertices=coo.num_vertices, weighted=scenario.weighted)
    g.bulk_build(coo)

    compute_once = _compute_setup(g, mode, tol, analytics)
    rng = np.random.default_rng(scenario.seed + 0x51AB)
    phases = [
        _execute_phase(index, phase, g, coo.num_vertices, rng, scenario.weighted, compute_once)
        for index, phase in enumerate(scenario.phases)
    ]
    return ScenarioResult(scenario=scenario, backend=backend_name, mode=mode, phases=phases)


def _check_run_params(scenario, *, mode, tol, analytics) -> None:
    """Reject invalid run parameters with :class:`ValidationError` before
    :func:`run_scenario` builds anything.  PageRank's ``tol`` rule applies
    whether or not PageRank is selected."""
    if mode not in ("incremental", "full"):
        raise ValidationError(f"mode must be 'incremental' or 'full', got {mode!r}")
    _checked_tol(tol)
    for name in analytics:
        if name not in ANALYTICS:
            raise ValidationError(f"unknown analytic {name!r}; pick from {ANALYTICS}")
    if "sssp" in analytics and not scenario.weighted:
        raise ValidationError("the 'sssp' analytic needs a weighted scenario")


def _compute_setup(g, mode, tol, analytics):
    """The compute-phase closure for one run (the arguments are
    :func:`_check_run_params`-valid).

    Its details carry ``modes`` (per-analytic last_mode),
    ``analytic_model`` (per-analytic modeled seconds), ``snapshot_model``
    (the shared snapshot build/merge slice), and ``pr_sweeps`` when
    PageRank is selected.
    """
    params = {"tol": tol, "source": 0, "k": 3}
    family = {}
    for name in analytics:
        cls, method, kernel, names = _FAMILY[name]
        family[name] = (cls, method, kernel, {key: params[key] for key in names})
    # Constructing an incremental analytic builds it cold: setup, not workload.
    incs = {}
    if mode == "incremental":
        incs = {name: cls(g, **args) for name, (cls, _, _, args) in family.items()}

    def compute_once() -> dict:
        detail: dict = {"modes": {}, "analytic_model": {}}
        # The shared snapshot slice: the delta merge (incremental) or the
        # cold export + O(E log E) sort (full) every analytic then reads.
        with counting() as delta:
            if mode == "incremental":
                snap = g.snapshot()
            else:
                snap = CSRSnapshot.from_coo(g.export_coo())
        detail["snapshot_model"] = simulated_seconds(delta)
        for name, (_, method, kernel, args) in family.items():
            with counting() as delta:
                if mode == "incremental":
                    inc = incs[name]
                    getattr(inc, method)()
                    detail["modes"][name] = inc.last_mode
                    if name == "pagerank":
                        detail["pr_sweeps"] = inc.last_sweeps
                else:
                    answer = kernel(snap, *args.values())
                    detail["modes"][name] = "cold"
                    if name == "pagerank":
                        detail["pr_sweeps"] = answer[1]
            detail["analytic_model"][name] = simulated_seconds(delta)
        return detail

    return compute_once


def _execute_phase(index, phase, g, n, rng, weighted, compute_once) -> PhaseResult:
    """Run one phase against ``g`` (``n`` vertices), drawing its batches
    from ``rng``; the counter delta and its modeled time are taken around
    the work."""
    applied = 0
    detail: dict = {}
    with counting() as delta:
        if phase.kind == "insert":
            for _ in range(phase.batches):
                src = rng.integers(0, n, phase.size, dtype=np.int64)
                dst = rng.integers(0, n, phase.size, dtype=np.int64)
                w = rng.integers(1, 100, phase.size, dtype=np.int64) if weighted else None
                applied += g.insert_edges(src, dst, w)
        elif phase.kind == "query":
            for _ in range(phase.batches):
                qs = rng.integers(0, n, phase.size, dtype=np.int64)
                qd = rng.integers(0, n, phase.size, dtype=np.int64)
                hits = int(g.edge_exists(qs, qd).sum())
                g.degree(qs)
                applied += phase.size
                detail["hits"] = detail.get("hits", 0) + hits
        else:  # compute
            detail = compute_once()
            applied = 1
    return PhaseResult(
        index=index,
        kind=phase.kind,
        applied=applied,
        model_seconds=simulated_seconds(delta),
        counters={k: v for k, v in delta.items() if v},
        detail=detail,
    )


def insert_heavy_scenario(
    num_edges: int = 1 << 18,
    *,
    batch: int = 1 << 9,
    rounds: int = 3,
    seed: int = 0,
    weighted: bool = False,
) -> Scenario:
    """Insert bursts interleaved with compute probes (rmat seed graph).

    The paper's dominant streaming pattern — and the ``t11`` quick gate's
    scenario at ``num_edges=2**18``: per round, two ``batch``-edge insert
    bursts, a query probe, then a compute phase.  ``weighted=True``
    attaches edge weights (needed for the ``sssp`` analytic) and tags the
    scenario name so both variants can share a bench panel.
    """
    num_vertices = max(num_edges // 4, 64)
    phases = []
    for _ in range(rounds):
        phases += [
            Phase("insert", size=batch, batches=2),
            Phase("query", size=max(batch // 2, 1)),
            Phase("compute"),
        ]
    tag = "-w" if weighted else ""
    return Scenario(
        name=f"insert-heavy{tag}-2^{int(np.log2(num_edges))}",
        num_vertices=num_vertices,
        avg_degree=num_edges / num_vertices,
        phases=tuple(phases),
        seed=seed,
        weighted=weighted,
    )
