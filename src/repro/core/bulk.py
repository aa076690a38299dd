"""Bulk build (Section V-B, Table V).

**Bulk build** assumes the vertex count and per-vertex degrees are known a
priori: tables are sized as ``ceil(d / (lf * Bc))`` buckets in one bulk
base-slab reservation, then every edge is inserted in a single batch.

Table VI's *incremental* build is a workload, not a second build path:
batches streamed through :meth:`repro.core.DynamicGraph.insert_edges` into
an empty graph, where every source's table is created lazily with one
bucket (``repro.bench.tables.table6_incremental_build``).
"""

from __future__ import annotations

import numpy as np

from repro.coo import COO
from repro.util.errors import ValidationError
from repro.util.validation import check_in_range

__all__ = ["bulk_build"]


def bulk_build(graph, coo: COO) -> int:
    """Build from a COO snapshot with a-priori sizing; returns edges added.

    Duplicates within the COO are allowed (replace semantics applies); the
    graph must be empty.  The input is checked whole — an empty graph,
    storable weights — before the version bump and the insert.
    """
    if graph.num_edges() != 0:
        raise ValidationError("bulk_build requires an empty graph")
    if graph.weighted and coo.weights is not None:
        check_in_range(coo.weights, *graph._weight_range, "weights")
    graph._bump_version()
    graph._dict.ensure_capacity(coo.num_vertices)
    work = coo.without_self_loops()
    if not graph.directed:
        work = work.symmetrized()
    degrees = work.out_degrees()
    sources = np.flatnonzero(degrees > 0)
    graph._dict.ensure_tables(sources, degrees[sources], graph.load_factor)
    return graph.insert_edges(work.src, work.dst, work.weights if graph.weighted else None)
