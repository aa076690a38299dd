"""Bulk build (Section V-B, Table V).

**Bulk build** assumes the vertex count and per-vertex degrees are known a
priori: tables are sized as ``ceil(d / (lf * Bc))`` buckets in one bulk
base-slab reservation, then every edge is placed once.

The build is one placement pass, not an insert launch:

1. one packed value sort of the rows by ``(src, dst)`` (ties in launch
   order) keeps each pair's last occurrence — the insert's replace
   semantics — and its source runs give the distinct sources, their
   repeat-counting degrees (which size the tables) and their edge
   counts;
2. ``ensure_tables`` creates the sized tables, the survivors' head slabs
   are computed and stably grouped by head, and one
   :func:`repro.slabhash.insert.refill_chains` launch writes every chain
   as whole rows.

Every table the rows reach is fresh, so no chain is walked, no tail read
and no key matched.  A source whose table outlived earlier mutations (an
empty graph may still hold tables with tombstones) makes the survivors
take the general insert launch instead, which places them behind what
those tables hold.  Pool bits, slab ids, edge counts and device charges
are those of sizing the tables and inserting the rows in one
``insert_edges`` batch.  The vertex space never grows here: the
:meth:`~repro.api.GraphBackend.bulk_build` template refuses ids outside
the graph and takes the build's one version step.

Table VI's *incremental* build is a workload, not a second build path:
batches streamed through :meth:`repro.core.DynamicGraph.insert_edges` into
an empty graph, where every source's table is created lazily with one
bucket (``repro.bench.tables.table6_incremental_build``).
"""

from __future__ import annotations

import numpy as np

from repro.slabhash.constants import KEY_DTYPE, NULL_SLAB, VALUE_DTYPE
from repro.slabhash.insert import refill_chains
from repro.util.groupby import _run_starts, stable_argsort

__all__ = ["place_rows"]


def place_rows(graph, src, dst, w) -> int:
    """Place a non-empty, self-loop-free batch into an empty graph with
    a-priori sizing; returns edges added.

    Duplicates resolve by replace semantics; the template has checked
    the rest.
    """
    if not graph.directed:
        # Both orientations are stored as a launch of rows, reversed,
        # reversed, rows would store them: the first half repeats in the
        # second, so the second decides every survivor and its weight.
        src, dst = np.concatenate([dst, src]), np.concatenate([src, dst])
        w = None if w is None else np.concatenate([w, w])
    m = src.shape[0]
    vd = graph._dict

    # (1) One packed sort by (src, dst); a pair's run ends at its last row.
    bits = (graph.num_vertices - 1).bit_length()
    comp = src << bits
    comp |= dst
    order = stable_argsort(comp)
    comp = comp[order]
    last = _run_starts(comp)
    last[:-1] = last[1:]
    last[-1] = True
    comp >>= bits  # the sorted sources
    first = np.flatnonzero(_run_starts(comp))
    sources = comp[first]
    degrees = np.diff(first, append=m)
    counts = np.add.reduceat(last, first, dtype=np.int64)
    if not last.all():
        alive = np.zeros(m, dtype=bool)
        alive[order[last]] = True  # survivors back in launch order
        pick = np.flatnonzero(alive)
        src, dst, w = src[pick], dst[pick], None if w is None else w[pick]

    # (2) Size the tables, group the survivors by head, place them once.
    arena = vd.arena
    fresh = int(arena.table_base[sources].max()) == NULL_SLAB
    vd.ensure_tables(sources, degrees, graph.load_factor)
    if graph.weighted and w is None:
        w = np.zeros(src.shape[0], dtype=np.int64)
    if fresh:  # else a table may hold tombstones: the general launch goes behind them
        heads = arena.bucket_heads(src, dst)
        by_head = stable_argsort(heads)
        values = None if w is None else w[by_head].astype(VALUE_DTYPE)
        refill_chains(arena.pool, heads[by_head], dst[by_head].astype(KEY_DTYPE), values)
    else:
        arena.insert(src, dst, w)
    vd.credit_edge_counts(sources, counts)
    return int(src.shape[0])
