"""Bulk and incremental build workloads (Section V-B).

**Bulk build** assumes the vertex count and per-vertex degrees are known a
priori: tables are sized as ``ceil(d / (lf * Bc))`` buckets in one bulk
base-slab reservation, then every edge is inserted in a single batch.  This
is the workload of Table V.

**Incremental build** starts from an empty graph with *no* connectivity
information: every table gets a single bucket (the structure degenerates
into per-vertex linked slab lists — the paper's "worst-case scenario" and
the faimGraph-like regime), and edges stream in fixed-size batches.  This
is the workload of Table VI.
"""

from __future__ import annotations

import numpy as np

from repro.coo import COO
from repro.util.errors import ValidationError
from repro.util.validation import check_in_range

__all__ = ["bulk_build", "incremental_build"]


def _start_build(graph, coo: COO, what: str) -> None:
    """Check a build's input whole — an empty graph, storable weights —
    before the version bump and the first batch, then size the dictionary."""
    if graph.num_edges() != 0:
        raise ValidationError(f"{what} requires an empty graph")
    if graph.weighted and coo.weights is not None:
        check_in_range(coo.weights, *graph._weight_range, "weights")
    graph._bump_version()
    if coo.num_vertices > graph.vertex_capacity:
        graph._dict.ensure_capacity(coo.num_vertices)


def bulk_build(graph, coo: COO) -> int:
    """Build from a COO snapshot with a-priori sizing; returns edges added.

    Duplicates within the COO are allowed (replace semantics applies); the
    graph must be empty.
    """
    _start_build(graph, coo, "bulk_build")
    work = coo.without_self_loops()
    if not graph.directed:
        work = work.symmetrized()
    degrees = work.out_degrees()
    sources = np.flatnonzero(degrees > 0)
    graph._dict.ensure_tables(sources, degrees[sources], graph.load_factor)
    return graph.insert_edges(work.src, work.dst, work.weights if graph.weighted else None)


def incremental_build(graph, coo: COO, batch_size: int, on_batch=None) -> int:
    """Stream a COO into an empty graph in batches; returns edges added.

    Tables are created lazily with one bucket each (no connectivity
    information).  ``on_batch(batch_index, batch_edges, added)`` is invoked
    after each batch so benches can time per-batch throughput.
    """
    _start_build(graph, coo, "incremental_build")
    total = 0
    for i, batch in enumerate(coo.batches(batch_size)):
        added = graph.insert_edges(batch.src, batch.dst, batch.weights if graph.weighted else None)
        total += added
        if on_batch is not None:
            on_batch(i, batch.num_edges, added)
    return total
