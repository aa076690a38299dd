"""Chain-length-triggered rehashing (Section III, "Advantages").

"In practice we can maintain low-cost metrics per vertex to determine the
chain-length and periodically perform rehashing if it exceeds a given
threshold."  The low-cost metric here is the exact edge count the kernels
already maintain: a vertex whose count implies more than
:data:`MAX_CHAIN_SLABS` slabs per bucket at the current bucket count is due
for a rebuild with buckets resized for the *current* degree.

Rehashing a table destroys it entirely (base slabs included — they return
to the allocator) and rebuilds at the target load factor, so it also
flushes tombstones as a side effect.
"""

from __future__ import annotations

import numpy as np

from repro.slabhash.arena import SlabArena
from repro.slabhash.insert import refill_chains
from repro.slabhash.iterate import collect_table_slabs, distinct_ids, live_lanes
from repro.util.groupby import stable_argsort

__all__ = ["rehash_candidates", "rehash_vertices"]

#: Implied slabs per bucket above which a table is due for a rehash.
MAX_CHAIN_SLABS = 2.0


def rehash_candidates(graph) -> np.ndarray:
    """Vertex ids whose implied chain length exceeds the threshold.

    Implied chain length = entries / (buckets * lane_capacity), computed
    from the maintained edge counts — O(|V|), no chain walks.
    """
    vd = graph._dict
    lane_cap = vd.arena.pool.lane_capacity
    buckets = vd.arena.table_buckets
    has_table = vd.arena.table_base != -1
    implied = np.zeros(vd.capacity, dtype=np.float64)
    np.divide(
        vd.edge_count,
        np.maximum(buckets, 1) * lane_cap,
        out=implied,
        where=has_table,
    )
    return np.flatnonzero(has_table & (implied > MAX_CHAIN_SLABS))


def rehash_vertices(graph, vertex_ids, load_factor: float | None = None) -> int:
    """Rebuild the given vertices' tables sized for their current degree;
    returns how many distinct tables were rebuilt."""
    vertex_ids = distinct_ids(vertex_ids)
    if vertex_ids.size == 0:
        return 0
    arena = graph._dict.arena
    lf = graph.load_factor if load_factor is None else float(load_factor)
    # One walk on the host, charged as the iterator's and the teardown's.
    slab_ids, owner_pos, _ = collect_table_slabs(arena, vertex_ids, walks=2)
    lanes, dst, w = live_lanes(arena.pool, slab_ids)
    owners = np.repeat(owner_pos, lanes)

    # Tear the tables down completely (frees base and overflow slabs).
    arena.pool.free(slab_ids)
    arena.table_base[vertex_ids] = -1
    arena.table_buckets[vertex_ids] = 0

    degrees = np.bincount(owners, minlength=vertex_ids.size)
    buckets = SlabArena.buckets_for(np.maximum(degrees, 1), lf, arena.pool.lane_capacity)
    arena.create_tables(vertex_ids, buckets)
    if dst.size:
        heads = arena.bucket_heads(vertex_ids[owners], dst)
        order = stable_argsort(heads)
        refill_chains(arena.pool, heads[order], dst[order], w if w is None else w[order])
    # Counts are unchanged: the live set was preserved exactly.
    return int(vertex_ids.size)
