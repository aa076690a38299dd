"""One function per paper table (Tables II-IX).

Every function regenerates its table at the scaled dataset sizes and
returns an :class:`~repro.bench.results.ArtifactResult`: the display rows
(rendered at the edge by :func:`repro.bench.harness.format_table`) plus one
:class:`~repro.bench.results.BenchResult` metric record per measured value,
keyed stably (``t2/batch=2^10/ours``) for baseline comparison.

Scale mapping: paper batches 2^16..2^22 → scaled
2^10..2^16; paper vertex batches 2^16..2^20 → scaled 2^6..2^10; dynamic-TC
batches 2^22 → scaled 2^12.  faimGraph's missing large-batch rows in the
paper ("only supports batch updates of sizes less than 1M") are reproduced
by omitting faimGraph above the analogous scaled cutoff (2^14).

``quick=True`` shrinks every sweep to CI size — the four smallest datasets
(one per family), three batch sizes instead of seven — while keeping the
metric *keys* a subset-compatible shape; quick runs are compared against
quick baselines, full runs against full baselines.
"""

from __future__ import annotations

import numpy as np

from repro.analytics.triangle_count import (
    dynamic_triangle_count,
    triangle_count_hash,
    triangle_count_sorted,
)
from repro.api import create as create_backend
from repro.baselines.sorting import faimgraph_page_sort, segmented_sort_csr
from repro.bench.harness import mean, time_call
from repro.bench.results import ArtifactBuilder, ArtifactResult
from repro.bench.workloads import (
    bulk_built_structure,
    make_structure,
    random_edge_batch,
    random_vertex_batch,
)
from repro.coo import COO
from repro.datasets.registry import DATASET_ORDER, DATASETS

__all__ = [
    "table2_edge_insertion",
    "table3_edge_deletion",
    "table4_vertex_deletion",
    "table5_bulk_build",
    "table6_incremental_build",
    "table7_static_triangle_counting",
    "table8_sort_cost",
    "table9_dynamic_triangle_counting",
]

#: Scaled analogues of the paper's 2^16..2^22 edge batches.
EDGE_BATCH_SIZES = [1 << k for k in range(10, 17)]

#: Quick-mode subset, still straddling the faimGraph cutoff below.
QUICK_EDGE_BATCH_SIZES = [1 << 10, 1 << 12, 1 << 14]

#: Scaled analogue of faimGraph's 1M batch limit (paper cap 2^20 of
#: 2^16..2^22 → scaled cap 2^14 of 2^10..2^16).
FAIMGRAPH_BATCH_LIMIT = 1 << 14

#: Scaled analogues of the paper's 2^16..2^20 vertex batches.
VERTEX_BATCH_SIZES = [1 << k for k in range(6, 11)]

#: Quick-mode subset of the vertex batch sizes.
QUICK_VERTEX_BATCH_SIZES = [1 << 6, 1 << 8, 1 << 10]

#: Quick-mode dataset panel: the smallest stand-in from each Table I family.
QUICK_DATASETS = ["luxembourg_osm", "delaunay_n20", "rgg_n_2_20_s0", "coAuthorsDBLP"]

#: Table IV's four datasets.
VERTEX_DELETION_DATASETS = ["soc-orkut", "soc-LiveJournal1", "delaunay_n23", "germany_osm"]

#: Table VI's four similar-|E| datasets.
INCREMENTAL_DATASETS = ["ldoor", "delaunay_n23", "road_usa", "soc-LiveJournal1"]


def _datasets(seed: int = 0, quick: bool = False) -> dict[str, COO]:
    names = QUICK_DATASETS if quick else DATASET_ORDER
    return {name: DATASETS[name].generate(seed) for name in names}


def _batch_label(batch: int) -> str:
    return f"2^{int(np.log2(batch))}"


# ---------------------------------------------------------------------------
# Tables II & III — batched edge insertion / deletion rates
# ---------------------------------------------------------------------------


def _edge_rate_table(
    op: str, seed: int = 0, datasets: dict[str, COO] | None = None, quick: bool = False
) -> ArtifactResult:
    """Shared engine for Tables II (insert) and III (delete).

    For each batch size, the per-dataset throughput is measured on a
    freshly bulk-built structure and the row reports the mean across
    datasets — exactly the paper's aggregation.
    """
    artifact = "t2" if op == "insert" else "t3"
    numeral, verb = ("II", "insertion") if op == "insert" else ("III", "deletion")
    out = ArtifactBuilder(
        artifact,
        f"Table {numeral} — mean edge {verb} rates (MEdge/s)",
        ["Batch size", "Hornet", "faimGraph", "Ours"],
    )
    datasets = datasets or _datasets(seed, quick)
    batch_sizes = QUICK_EDGE_BATCH_SIZES if quick else EDGE_BATCH_SIZES
    for batch in batch_sizes:
        rates: dict[str, list[float]] = {"hornet": [], "faimgraph": [], "ours": []}
        records: dict[str, list] = {"hornet": [], "faimgraph": [], "ours": []}
        for name, coo in datasets.items():
            src, dst, _ = random_edge_batch(coo.num_vertices, batch, seed=seed ^ batch)
            for structure in ("hornet", "faimgraph", "ours"):
                if structure == "faimgraph" and batch >= FAIMGRAPH_BATCH_LIMIT:
                    continue
                g = bulk_built_structure(structure, coo, weighted=False)
                if op == "insert":
                    rec, _ = time_call("ins", g.insert_edges, src, dst, items=batch)
                else:
                    rec, _ = time_call("del", g.delete_edges, src, dst, items=batch)
                rates[structure].append(rec.throughput_m)
                records[structure].append(rec)
        label = _batch_label(batch)
        row = [label]
        for structure in ("hornet", "faimgraph", "ours"):
            if not rates[structure]:
                row.append(None)
                continue
            value = mean(rates[structure])
            row.append(value)
            out.metric(
                value,
                "MEdge/s",
                f"batch={label}",
                structure,
                backend=structure,
                records=records[structure],
            )
        out.add_row(row)
    return out.build()


def table2_edge_insertion(seed=0, datasets=None, quick=False) -> ArtifactResult:
    """Table II: mean edge insertion rates (MEdge/s) per batch size."""
    return _edge_rate_table("insert", seed, datasets, quick)


def table3_edge_deletion(seed=0, datasets=None, quick=False) -> ArtifactResult:
    """Table III: mean edge deletion rates (MEdge/s) per batch size."""
    return _edge_rate_table("delete", seed, datasets, quick)


# ---------------------------------------------------------------------------
# Table IV — vertex deletion throughput
# ---------------------------------------------------------------------------


def table4_vertex_deletion(seed: int = 0, quick: bool = False) -> ArtifactResult:
    """Table IV: mean vertex deletion throughput (MVertex/s), ours vs
    faimGraph, averaged over the paper's four datasets."""
    out = ArtifactBuilder(
        "t4",
        "Table IV — mean vertex deletion throughput (MVertex/s)",
        ["Batch size", "faimGraph", "Ours"],
    )
    names = VERTEX_DELETION_DATASETS[:2] if quick else VERTEX_DELETION_DATASETS
    batch_sizes = QUICK_VERTEX_BATCH_SIZES if quick else VERTEX_BATCH_SIZES
    coos = {name: DATASETS[name].generate(seed) for name in names}
    for batch in batch_sizes:
        rates: dict[str, list[float]] = {"faimgraph": [], "ours": []}
        records: dict[str, list] = {"faimgraph": [], "ours": []}
        for name, coo in coos.items():
            vids = random_vertex_batch(coo.num_vertices, batch, seed=seed ^ batch)
            for structure in ("faimgraph", "ours"):
                if structure == "ours":
                    g = create_backend("slabhash", coo.num_vertices, weighted=False, directed=False)
                    g.bulk_build(_half(coo))
                else:
                    g = bulk_built_structure(structure, coo, weighted=False)
                rec, _ = time_call("vdel", g.delete_vertices, vids, items=vids.size)
                rates[structure].append(rec.throughput_m)
                records[structure].append(rec)
        label = _batch_label(batch)
        row = [label]
        for structure in ("faimgraph", "ours"):
            value = mean(rates[structure])
            row.append(value)
            out.metric(
                value,
                "MVertex/s",
                f"batch={label}",
                structure,
                backend=structure,
                records=records[structure],
            )
        out.add_row(row)
    return out.build()


def _half(coo: COO) -> COO:
    """One orientation of a symmetric COO (undirected builds re-mirror)."""
    keep = coo.src < coo.dst
    return COO(coo.src[keep], coo.dst[keep], coo.num_vertices, weights=None)


# ---------------------------------------------------------------------------
# Table V — bulk build
# ---------------------------------------------------------------------------


def table5_bulk_build(seed=0, datasets=None, quick=False) -> ArtifactResult:
    """Table V: bulk-build elapsed time (ms), Hornet vs ours."""
    out = ArtifactBuilder(
        "t5", "Table V — bulk build elapsed time (ms)", ["Dataset", "Hornet", "Ours"]
    )
    datasets = datasets or _datasets(seed, quick)
    for name, coo in datasets.items():
        g_h = make_structure("hornet", coo.num_vertices)
        rec_h, _ = time_call("hornet", g_h.bulk_build, coo, items=coo.num_edges)
        g_o = make_structure("ours", coo.num_vertices)
        rec_o, _ = time_call("ours", g_o.bulk_build, coo, items=coo.num_edges)
        out.add_row([name, rec_h.model_millis, rec_o.model_millis])
        for structure, rec in (("hornet", rec_h), ("ours", rec_o)):
            out.metric(
                rec.model_millis,
                "ms",
                name,
                structure,
                dataset=name,
                backend=structure,
                record=rec,
            )
    return out.build()


# ---------------------------------------------------------------------------
# Table VI — incremental build
# ---------------------------------------------------------------------------


def table6_incremental_build(seed: int = 0, quick: bool = False) -> ArtifactResult:
    """Table VI: incremental-build mean insertion rate (MEdge/s) for
    batch sizes scaled from the paper's 2^20..2^22."""
    out = ArtifactBuilder(
        "t6",
        "Table VI — incremental build rates (MEdge/s)",
        ["Batch size", "Hornet", "Ours"],
    )
    batches = [1 << 12, 1 << 13] if quick else [1 << 12, 1 << 13, 1 << 14]
    names = ["ldoor", "soc-LiveJournal1"] if quick else INCREMENTAL_DATASETS
    coos = {name: DATASETS[name].generate(seed) for name in names}
    for batch in batches:
        rates: dict[str, list[float]] = {"hornet": [], "ours": []}
        records: dict[str, list] = {"hornet": [], "ours": []}
        for name, coo in coos.items():
            shuffled = coo.permuted(seed)
            for structure in ("hornet", "ours"):
                g = make_structure(structure, coo.num_vertices)

                def stream(g=g, shuffled=shuffled, batch=batch):
                    for piece in shuffled.batches(batch):
                        g.insert_edges(piece.src, piece.dst)

                rec, _ = time_call("inc", stream, items=shuffled.num_edges)
                rates[structure].append(rec.throughput_m)
                records[structure].append(rec)
        label = _batch_label(batch)
        row = [label]
        for structure in ("hornet", "ours"):
            value = mean(rates[structure])
            row.append(value)
            out.metric(
                value,
                "MEdge/s",
                f"batch={label}",
                structure,
                backend=structure,
                records=records[structure],
            )
        out.add_row(row)
    return out.build()


# ---------------------------------------------------------------------------
# Table VII — static triangle counting
# ---------------------------------------------------------------------------


def table7_static_triangle_counting(seed=0, datasets=None, quick=False) -> ArtifactResult:
    """Table VII: static TC time (ms).

    Hornet/faimGraph intersect *pre-sorted* adjacency lists (the sort cost
    is excluded here and priced in Table VIII, as in the paper); ours runs
    edgeExist probes on the set variant.
    """
    out = ArtifactBuilder(
        "t7",
        "Table VII — static triangle counting time (ms)",
        ["Dataset", "Hornet", "faimGraph", "Ours", "Triangles"],
    )
    datasets = datasets or _datasets(seed, quick)
    for name, coo in datasets.items():
        g_h = bulk_built_structure("hornet", coo)
        rp_h, ci_h = g_h.sorted_adjacency()  # not timed (Table VIII's cost)
        rec_h, tri_h = time_call("hornet", triangle_count_sorted, rp_h, ci_h)

        g_f = bulk_built_structure("faimgraph", coo)
        rp_f, ci_f = g_f.sorted_adjacency()
        rec_f, tri_f = time_call("faim", triangle_count_sorted, rp_f, ci_f)

        g_o = make_structure("slabhash", coo.num_vertices)  # set variant
        g_o.bulk_build(coo)
        rec_o, tri_o = time_call("ours", triangle_count_hash, g_o)
        assert tri_h == tri_f == tri_o, (name, tri_h, tri_f, tri_o)
        out.add_row([name, rec_h.model_millis, rec_f.model_millis, rec_o.model_millis, tri_o])
        for structure, rec in (("hornet", rec_h), ("faimgraph", rec_f), ("ours", rec_o)):
            out.metric(
                rec.model_millis,
                "ms",
                name,
                structure,
                dataset=name,
                backend=structure,
                record=rec,
            )
        out.metric(tri_o, "count", name, "triangles", dataset=name)
    return out.build()


# ---------------------------------------------------------------------------
# Table VIII — sorted-adjacency maintenance cost
# ---------------------------------------------------------------------------


def table8_sort_cost(seed=0, datasets=None, quick=False) -> ArtifactResult:
    """Table VIII: CSR segmented-sort vs faimGraph paged-sort time (ms)."""
    out = ArtifactBuilder(
        "t8", "Table VIII — sort cost (ms)", ["Dataset", "Sort CSR", "Sort faimGraph"]
    )
    datasets = datasets or _datasets(seed, quick)
    for name, coo in datasets.items():
        row_ptr, col_idx, _ = coo.deduplicated().to_csr()
        shuffled = col_idx.copy()
        rng = np.random.default_rng(seed)
        # Shuffle within rows so there is actual sorting work to do.
        for lo, hi in zip(row_ptr[:-1].tolist(), row_ptr[1:].tolist()):
            if hi - lo > 1:
                rng.shuffle(shuffled[lo:hi])
        rec_csr, _ = time_call("csr", segmented_sort_csr, row_ptr, shuffled)

        g_f = bulk_built_structure("faimgraph", coo)
        rec_f, _ = time_call("faim", faimgraph_page_sort, g_f)
        out.add_row([name, rec_csr.model_millis, rec_f.model_millis])
        for structure, rec in (("csr", rec_csr), ("faimgraph", rec_f)):
            out.metric(
                rec.model_millis,
                "ms",
                name,
                structure,
                dataset=name,
                backend=structure,
                record=rec,
            )
    return out.build()


# ---------------------------------------------------------------------------
# Table IX — dynamic triangle counting
# ---------------------------------------------------------------------------


def table9_dynamic_triangle_counting(
    seed: int = 0, num_batches: int = 5, quick: bool = False
) -> ArtifactResult:
    """Table IX: cumulative insert+TC time over incremental batches
    (scaled batch 2^12), ours (hash TC) vs Hornet (re-sort + sorted TC)."""
    out = ArtifactBuilder(
        "t9",
        "Table IX — dynamic TC cumulative time (ms)",
        [
            "Dataset",
            "Iter",
            "Ours Insert",
            "Ours TC",
            "Ours Total",
            "Hornet Insert",
            "Hornet TC",
            "Hornet Total",
            "Speedup",
        ],
    )
    batch = 1 << 12
    # Quick mode swaps in the lightest social stand-in (hollywood's dense
    # triangle structure dominates the whole quick suite otherwise).
    names = ("coAuthorsDBLP",) if quick else ("road_usa", "hollywood-2009")
    if quick:
        num_batches = min(num_batches, 3)
    for name in names:
        coo = DATASETS[name].generate(seed)
        rng = np.random.default_rng(seed)
        batches = [
            (
                rng.integers(0, coo.num_vertices, batch),
                rng.integers(0, coo.num_vertices, batch),
            )
            for _ in range(num_batches)
        ]

        g_o = make_structure("slabhash", coo.num_vertices)
        g_o.bulk_build(coo)
        steps_o = dynamic_triangle_count(g_o, batches, mode="hash")

        g_h = make_structure("hornet", coo.num_vertices)
        g_h.bulk_build(coo)
        steps_h = dynamic_triangle_count(g_h, batches, mode="sorted")

        cum_o = cum_h = 0.0
        cum = {"o_ins": 0.0, "o_tc": 0.0, "h_ins": 0.0, "h_tc": 0.0}
        for so, sh in zip(steps_o, steps_h):
            assert so.triangles == sh.triangles, (name, so.iteration)
            cum["o_ins"] += so.insert_model * 1e3
            cum["o_tc"] += so.count_model * 1e3
            # Hornet's sort is adjacency maintenance: booked under insert.
            cum["h_ins"] += (sh.insert_model + sh.sort_model) * 1e3
            cum["h_tc"] += sh.count_model * 1e3
            cum_o = cum["o_ins"] + cum["o_tc"]
            cum_h = cum["h_ins"] + cum["h_tc"]
            out.add_row(
                [
                    name,
                    so.iteration,
                    cum["o_ins"],
                    cum["o_tc"],
                    cum_o,
                    cum["h_ins"],
                    cum["h_tc"],
                    cum_h,
                    cum_h / cum_o if cum_o else float("inf"),
                ]
            )
        # Gate on the final cumulative totals (the paper's bottom rows).
        out.metric(cum_o, "ms", name, "ours_total", dataset=name, backend="ours")
        out.metric(cum_h, "ms", name, "hornet_total", dataset=name, backend="hornet")
        out.metric(cum_h / cum_o if cum_o else float("inf"), "x", name, "speedup", dataset=name)
        out.metric(steps_o[-1].triangles, "count", name, "triangles", dataset=name)
    return out.build()
