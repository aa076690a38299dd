"""Chain walkers: table iteration, clearing, and tombstone compaction.

``iterate_tables`` is the vectorized form of the paper's *vertex adjacency
list iterator* (Section IV-B): it walks every bucket chain of every
requested table one slab-level at a time, so a table whose chains have
length L costs exactly L gather rounds — the same traffic the warp
iterator generates on the device.  The walk itself is a kernel
(``walk_chains`` in :mod:`repro.kernels.reference`); this driver charges
the device model one round per level the kernel reports and one read per
slab it found.

Every pass is one walk plus array passes over the slabs it found: a gather
keeps the live (or wanted) lanes, a clear resets bases and frees overflow,
a flush is both plus one dense row write of the emptied chains
(``refill_chains``).
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.counters import get_counters
from repro.kernels import reference as kern
from repro.slabhash.constants import EMPTY_KEY, KEY_DTYPE, NULL_SLAB, TOMBSTONE_KEY
from repro.slabhash.insert import refill_chains
from repro.util.groupby import first_occurrence_mask, ragged_arange, stable_argsort
from repro.util.validation import as_int_array, check_in_range

__all__ = [
    "collect_table_slabs",
    "distinct_ids",
    "live_lanes",
    "iterate_tables",
    "clear_tables",
    "flush_tombstones",
]


def collect_table_slabs(arena, table_ids, walks: int = 1):
    """All slab ids owned by the given tables, level by level.

    Returns ``(slab_ids, owner_pos, heads)``: every slab reachable from
    the tables' buckets — the base slabs first, one per bucket, then the
    overflow — and, per slab, the position *within table_ids* of its
    table and its chain's head slab.  The model is charged ``walks``
    walks.
    """
    table_ids = as_int_array(table_ids, "table_ids")
    if table_ids.size:
        check_in_range(table_ids, 0, arena.num_tables, "table_ids")
    pos = np.flatnonzero(arena.table_base[table_ids] != NULL_SLAB)
    bases = arena.table_base[table_ids[pos]]
    buckets = arena.table_buckets[table_ids[pos]]
    # Expand each table's contiguous base range [base, base+buckets).
    owner0 = np.repeat(pos, buckets)
    head_slabs = np.repeat(bases, buckets) + ragged_arange(buckets)

    counters = get_counters()
    slabs, head_idx, levels = kern.walk_chains(arena.pool.next_slab, head_slabs)
    counters.probe_rounds += walks * int(levels)
    counters.slab_reads += walks * int(slabs.size)
    return slabs, owner0[head_idx], head_slabs[head_idx]


def live_lanes(pool, slab_ids, only=None):
    """Read the given slabs and pull out their live lanes, slab by slab.

    Returns ``(lanes, keys, values)``: the number of lanes kept per slab,
    then their keys and values in the pool's dtypes (``values`` is ``None``
    for a set pool).  With ``only`` (an array of keys) the lanes kept are
    those holding one of its keys, found through a flag table ``max(only)
    + 2`` long — meant for vertex ids, not any 32-bit key.
    """
    rows = np.take(pool.keys, slab_ids, axis=0)
    get_counters().slab_reads += int(slab_ids.size)
    if only is None:
        keep = rows < KEY_DTYPE(TOMBSTONE_KEY)  # both sentinels sit above MAX_KEY
    else:
        # The last flag answers for every larger key, the sentinels included.
        wanted = np.zeros(int(np.max(only, initial=-1)) + 2, dtype=bool)
        wanted[only] = True
        keep = wanted.take(rows, mode="clip")
    kept = np.flatnonzero(keep)
    lanes = np.bincount(kept // pool.lane_capacity, minlength=slab_ids.size)
    values = np.take(pool.values, slab_ids, axis=0).ravel()[kept] if pool.weighted else None
    return lanes, rows.ravel()[kept], values


def iterate_tables(arena, table_ids, only=None):
    """Gather all live entries of the given tables.

    Returns ``(owner_pos, keys, values)`` as int64: each entry's position
    within ``table_ids``, its key (tombstones and empties excluded) and its
    value (zeros for set arenas).  ``only`` restricts the sweep to entries
    holding one of the given keys without materialising the rest.
    """
    slab_ids, owner_pos, _ = collect_table_slabs(arena, table_ids)
    lanes, keys, values = live_lanes(arena.pool, slab_ids, only)
    values = np.zeros(keys.shape[0], dtype=np.int64) if values is None else values.astype(np.int64)
    return np.repeat(owner_pos, lanes), keys.astype(np.int64), values


def distinct_ids(table_ids) -> np.ndarray:
    """Drop repeated ids, keeping first-occurrence order: a table listed
    twice would have its slabs freed twice."""
    table_ids = as_int_array(table_ids, "table_ids")
    return table_ids[first_occurrence_mask(table_ids)]


def _release(arena, table_ids, slab_ids) -> None:
    """Reset the tables' base slabs — the first of ``slab_ids``, one per
    bucket — to empty one-slab chains; free the overflow after them."""
    pool = arena.pool
    base = slab_ids[: int(arena.table_buckets[table_ids].sum())]
    pool.keys[base] = KEY_DTYPE(EMPTY_KEY)
    pool.next_slab[base] = NULL_SLAB
    if pool.weighted:
        pool.values[base] = 0
    get_counters().slab_writes += int(base.size)
    pool.free(slab_ids[base.size :])


def clear_tables(arena, table_ids) -> None:
    """Empty the given tables; free overflow slabs, keep base slabs.

    Implements the memory side of vertex deletion (Algorithm 2, lines
    18-20 plus the edge-count reset handled by the caller).
    """
    table_ids = distinct_ids(table_ids)
    _release(arena, table_ids, collect_table_slabs(arena, table_ids)[0])


def flush_tombstones(arena, table_ids) -> None:
    """Compact tables: drop tombstones, repack entries densely.

    The optional cleanup pass the paper mentions for reclaiming
    tombstone-occupied lanes.  Live lanes are gathered with their chain's
    head slab (the bucket count is unchanged, so an entry cannot change
    bucket: no hash), the tables cleared and each bucket's entries written
    back in chain order as whole rows by one ``refill_chains`` launch —
    no chain walk, tail read or hit pass.  Charged as iterate, clear and
    one insert launch.
    """
    table_ids = distinct_ids(table_ids)
    slab_ids, _, heads = collect_table_slabs(arena, table_ids, walks=2)
    by_chain = stable_argsort(heads)  # the walk reports slabs level by level
    lanes, keys, values = live_lanes(arena.pool, slab_ids[by_chain])
    _release(arena, table_ids, slab_ids)
    if keys.size:
        refill_chains(arena.pool, np.repeat(heads[by_chain], lanes), keys, values)
