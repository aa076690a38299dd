"""Seeded streaming scenarios: mixed phase schedules over any backend.

The paper's workload is *phase-concurrent*: batches of edge insertions and
deletions interleaved with query and compute phases.  A
:class:`Scenario` is a declarative, seeded spec of such a schedule —
which Table I dataset family seeds the graph (rmat / powerlaw / road /
rgg), and which phases run in which order — and :func:`run_scenario`
executes it against any registered backend through the
:class:`repro.api.Graph` facade, recording modeled device time and
kernel counters per phase.

Compute phases run in one of two modes:

- ``mode="full"`` — the full-recompute baseline (what a Hornet- or
  faimGraph-style pipeline does between update phases): export the live
  edge set, pay the cold O(E log E) snapshot sort, and run connected
  components and PageRank from scratch;
- ``mode="incremental"`` — the facade's delta-merged snapshot plus the
  delta-aware analytics of :mod:`repro.stream.incremental`
  (O(batch α) union-find updates, warm-started PageRank sweeps, wedge
  closure of the window's net added and removed edges, seeded distance
  re-relaxation, candidate-set k-core peeling).

Which analytics a compute phase runs is the scenario runner's
``analytics`` selection — any subset of :data:`ANALYTICS` — and each
compute phase records a per-analytic modeled-cost slice, so the ``t11``
bench artifact can price and gate every family member separately.  Both
modes are deterministic for a fixed scenario seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analytics.bfs import bfs
from repro.analytics.connected_components import connected_components
from repro.analytics.kcore import _checked_k, kcore_membership
from repro.analytics.pagerank import _checked_params, power_iteration
from repro.analytics.sssp import sssp
from repro.analytics.triangle_count import undirected_triangles
from repro.api.backend import _checked_id
from repro.api.facade import Graph
from repro.api.snapshot import CSRSnapshot
from repro.coo import COO
from repro.datasets import powerlaw_graph, rgg_graph, rmat_graph, road_graph
from repro.gpusim.counters import get_counters
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
    "quick_scenarios",
]

#: Everything a phase can do to the graph.
PHASE_KINDS = ("insert", "delete", "vertex_churn", "query", "compute")


def _cold_pagerank(snap, damping, tol, max_iters):
    uniform = np.full(snap.num_vertices, 1.0 / snap.num_vertices, dtype=np.float64)
    return power_iteration(snap, uniform, damping=damping, tol=tol, max_iters=max_iters)


#: The delta-aware analytic family, one row per member: ``(incremental
#: class, its query method, cold kernel, parameter names)``.  The named run
#: parameters are the class's keyword arguments after the graph and the
#: kernel's positional arguments after the snapshot, so one row says how
#: to build the incremental analytic, how to query it, and how to recompute
#: its reference answer cold (PageRank's is ``(ranks, sweeps)``).
_FAMILY = {
    "cc": (IncrementalConnectedComponents, "labels", connected_components, ()),
    "pagerank": (IncrementalPageRank, "compute", _cold_pagerank, ("damping", "tol", "max_iters")),
    "tc": (IncrementalTriangleCount, "count", undirected_triangles, ()),
    "bfs": (IncrementalBFS, "distances", bfs, ("source",)),
    "sssp": (IncrementalSSSP, "distances", sssp, ("source",)),
    "kcore": (IncrementalKCore, "members", kcore_membership, ("k",)),
}

#: Every analytic a compute phase can run (the delta-aware family).
ANALYTICS = tuple(_FAMILY)

#: Dataset families a scenario can seed from (Table I generators).
FAMILIES = ("rmat", "powerlaw", "road", "rgg")


@dataclass(frozen=True)
class Phase:
    """One step of a scenario schedule.

    ``kind`` selects the operation; ``size`` is the per-batch item count
    (edges for insert/delete, vertices for churn, probes for query;
    ignored for compute) and ``batches`` how many batches the phase
    applies back to back.
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
    """A seeded streaming workload: dataset seed + phase schedule.

    ``avg_degree`` shapes the rmat/powerlaw/rgg seed graphs; the road
    family's degree is intrinsic to its grid topology (~2.2), so the
    field is informational there (see :func:`build_dataset`).
    """

    name: str
    family: str
    num_vertices: int
    avg_degree: float
    phases: tuple
    seed: int = 0
    weighted: bool = False

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.num_vertices < 2:
            raise ValidationError("scenarios need at least 2 vertices")
        if self.avg_degree <= 0:
            raise ValidationError("avg_degree must be positive")
        if not self.phases:
            raise ValidationError("scenarios need at least one phase")
        object.__setattr__(self, "phases", tuple(self.phases))
        for p in self.phases:
            if not isinstance(p, Phase):
                raise ValidationError(f"phases must be Phase instances, got {type(p).__name__}")


def build_dataset(scenario: Scenario) -> COO:
    """Generate the scenario's seed graph (weights attached if requested).

    ``avg_degree`` parameterizes the rmat/powerlaw/rgg generators; road
    networks have an intrinsic mean degree (~2.1-2.5, set by the grid
    topology), so the field is informational for ``family="road"``.
    """
    n, deg, seed = scenario.num_vertices, scenario.avg_degree, scenario.seed
    if scenario.family == "rmat":
        scale = max(1, int(round(np.log2(n))))
        coo = rmat_graph(scale, edge_factor=deg, seed=seed)
    elif scenario.family == "powerlaw":
        coo = powerlaw_graph(n, deg, seed=seed)
    elif scenario.family == "road":
        coo = road_graph(n, seed=seed)
    else:
        coo = rgg_graph(n, deg, seed=seed)
    if scenario.weighted:
        rng = np.random.default_rng(seed ^ 0x3E1647)
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
    skipped: bool
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
    damping: float = 0.85,
    tol: float = 1e-8,
    max_iters: int = 100,
    validate: bool = False,
    analytics: tuple = ("cc", "pagerank"),
    source: int = 0,
    kcore_k: int = 3,
) -> ScenarioResult:
    """Execute a scenario against one backend; returns per-phase records.

    ``analytics`` selects which family members every compute phase runs
    (any subset of :data:`ANALYTICS`; ``"sssp"`` needs a weighted
    scenario); ``source`` seeds bfs/sssp and ``kcore_k`` sets the k-core
    threshold.  The incremental analytics build cold when they are
    constructed, before phase 0, so per-phase costs measure the steady
    state (the one-off cold initialization is setup, not workload).
    ``validate`` re-derives the cold reference after *every* phase in
    incremental mode and asserts the incremental answers are exact
    (everything but PageRank) / within ``tol`` per vertex (PageRank) —
    for tests, not benches (validation work is excluded from the phase's
    timing and counters).
    """
    coo = build_dataset(scenario)
    n = coo.num_vertices
    _check_run_params(
        scenario, n, mode=mode, damping=damping, tol=tol, max_iters=max_iters,
        analytics=analytics, source=source, kcore_k=kcore_k,
    )
    g = Graph.create(backend_name, num_vertices=n, weighted=scenario.weighted)
    g.bulk_build(coo)

    compute_once, check_exact = _compute_setup(
        g, mode, damping, tol, max_iters,
        analytics=analytics, source=source, kcore_k=kcore_k,
    )
    rng = np.random.default_rng(scenario.seed + 0x51AB)

    results: list = []
    for index, phase in enumerate(scenario.phases):
        results.append(_execute_phase(index, phase, g, coo, rng, scenario, compute_once))
        if validate:
            check_exact((scenario.name, index))
    return ScenarioResult(scenario=scenario, backend=backend_name, mode=mode, phases=results)


def _check_run_params(
    scenario, num_vertices, *, mode, damping, tol, max_iters, analytics, source, kcore_k
) -> None:
    """Reject invalid run parameters with :class:`ValidationError`.

    :func:`run_scenario` calls it with the seed graph's ``num_vertices``
    (the range of ``source``) before it creates a graph, so a rejected
    call has built nothing.  The analytics' own rules apply whether or
    not the analytic is selected.
    """
    if mode not in ("incremental", "full"):
        raise ValidationError(f"mode must be 'incremental' or 'full', got {mode!r}")
    _checked_params(damping, tol, max_iters)
    _checked_id(source, num_vertices, "source")
    _checked_k(kcore_k)
    for name in analytics:
        if name not in ANALYTICS:
            raise ValidationError(f"unknown analytic {name!r}; pick from {ANALYTICS}")
    if "sssp" in analytics and not scenario.weighted:
        raise ValidationError("the 'sssp' analytic needs a weighted scenario")


def _compute_setup(g, mode, damping, tol, max_iters, *, analytics, source, kcore_k):
    """``(compute_once, check_exact)`` for one run: the compute-phase
    closure, and a closure asserting that every incremental analytic it
    drives equals cold recomputation right now (a no-op in full mode,
    which drives none).  The arguments are :func:`_check_run_params`-valid.

    ``compute_once`` details carry ``modes`` (per-analytic last_mode),
    ``analytic_model`` (per-analytic modeled seconds), ``snapshot_model``
    (the shared snapshot build/merge slice), and ``pr_sweeps`` when
    PageRank is selected.
    """
    params = dict(damping=damping, tol=tol, max_iters=max_iters, source=source, k=kcore_k)
    family = {}
    for name in analytics:
        cls, method, kernel, names = _FAMILY[name]
        family[name] = (cls, method, kernel, {key: params[key] for key in names})
    # Constructing an incremental analytic builds it cold: setup, not workload.
    incs = {}
    if mode == "incremental":
        incs = {name: cls(g, **args) for name, (cls, _, _, args) in family.items()}

    def compute_once() -> dict:
        counters = get_counters()
        detail: dict = {"modes": {}, "analytic_model": {}}
        # The shared snapshot slice: the delta merge (incremental) or the
        # cold export + O(E log E) sort (full) every analytic then reads.
        before = counters.snapshot()
        if mode == "incremental":
            snap = g.snapshot()
        else:
            snap = CSRSnapshot.from_coo(g.export_coo())
        detail["snapshot_model"] = simulated_seconds(counters.diff(before))
        for name, (_, method, kernel, args) in family.items():
            before = counters.snapshot()
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
            detail["analytic_model"][name] = simulated_seconds(counters.diff(before))
        return detail

    def check_exact(ctx) -> None:
        # Exact equality for everything but PageRank, whose contract is
        # within ``tol`` per vertex of the cold power iteration.
        snap = CSRSnapshot.from_coo(g.backend.export_coo())
        for name, inc in incs.items():
            _, method, kernel, args = family[name]
            got, want = getattr(inc, method)(), kernel(snap, *args.values())
            if name == "pagerank":
                ok = np.allclose(got, want[0], atol=tol, rtol=0.0)
            else:
                ok = np.array_equal(got, want)
            if not ok:
                raise AssertionError(f"incremental {name!r} diverged from cold recompute at {ctx}")

    return compute_once, check_exact


def _execute_phase(index, phase, g, coo, rng, scenario, compute_once) -> PhaseResult:
    """Run one phase against ``g``, drawing its batches from ``rng``; the
    counter delta and its modeled time are taken around the work."""
    n = coo.num_vertices
    applied = 0
    skipped = False
    detail: dict = {}
    before = get_counters().snapshot()
    if phase.kind == "insert":
        for _ in range(phase.batches):
            src = rng.integers(0, n, phase.size, dtype=np.int64)
            dst = rng.integers(0, n, phase.size, dtype=np.int64)
            w = (
                rng.integers(1, 100, phase.size, dtype=np.int64)
                if scenario.weighted
                else None
            )
            applied += g.insert_edges(src, dst, w)
    elif phase.kind == "delete":
        for _ in range(phase.batches):
            # Sample from the seed edge list: mostly-live targets, the
            # occasional already-deleted duplicate (allowed, a no-op).
            pick = rng.integers(0, coo.num_edges, phase.size)
            applied += g.delete_edges(coo.src[pick], coo.dst[pick])
    elif phase.kind == "vertex_churn":
        if not g.capabilities.vertex_dynamic:
            skipped = True
        else:
            for _ in range(phase.batches):
                vids = rng.choice(n, size=min(phase.size, n), replace=False)
                applied += g.delete_vertices(vids.astype(np.int64))
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
    delta = get_counters().diff(before)
    return PhaseResult(
        index=index,
        kind=phase.kind,
        applied=applied,
        skipped=skipped,
        model_seconds=simulated_seconds(delta),
        counters={k: v for k, v in delta.items() if v},
        detail=detail,
    )


# -- scenario catalog -----------------------------------------------------------------


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
        family="rmat",
        num_vertices=num_vertices,
        avg_degree=num_edges / num_vertices,
        phases=tuple(phases),
        seed=seed,
        weighted=weighted,
    )


def mixed_scenario(num_vertices: int = 1 << 12, *, batch: int = 256, seed: int = 0) -> Scenario:
    """Inserts, deletions, and queries around compute phases (powerlaw)."""
    phases = (
        Phase("insert", size=batch, batches=2),
        Phase("compute"),
        Phase("query", size=batch),
        Phase("delete", size=batch // 2),
        Phase("compute"),
        Phase("insert", size=batch),
        Phase("compute"),
    )
    return Scenario(
        name=f"mixed-2^{int(np.log2(num_vertices))}",
        family="powerlaw",
        num_vertices=num_vertices,
        avg_degree=8.0,
        phases=phases,
        seed=seed,
    )


def churn_scenario(num_vertices: int = 1 << 11, *, batch: int = 128, seed: int = 0) -> Scenario:
    """Vertex churn plus edge churn on a road network (worst case for the
    incremental paths: every churn phase forces a cold re-label)."""
    phases = (
        Phase("insert", size=batch),
        Phase("compute"),
        Phase("vertex_churn", size=max(batch // 8, 1)),
        Phase("compute"),
        Phase("insert", size=batch),
        Phase("delete", size=batch // 2),
        Phase("compute"),
    )
    return Scenario(
        name=f"churn-2^{int(np.log2(num_vertices))}",
        family="road",
        num_vertices=num_vertices,
        avg_degree=2.2,
        phases=phases,
        seed=seed,
    )


def quick_scenarios(seed: int = 0) -> tuple:
    """Small scenarios covering every family and phase kind (test-sized)."""
    return (
        insert_heavy_scenario(1 << 10, batch=64, rounds=2, seed=seed),
        mixed_scenario(1 << 8, batch=48, seed=seed),
        churn_scenario(1 << 8, batch=32, seed=seed),
        Scenario(
            name="rgg-delete-heavy",
            family="rgg",
            num_vertices=256,
            avg_degree=6.0,
            phases=(
                Phase("delete", size=64, batches=2),
                Phase("compute"),
                Phase("insert", size=64),
                Phase("compute"),
            ),
            seed=seed,
        ),
    )
