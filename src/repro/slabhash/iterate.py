"""Chain walkers: table iteration, clearing, and tombstone compaction.

``iterate_tables`` is the vectorized form of the paper's *vertex adjacency
list iterator* (Section IV-B): it walks every bucket chain of every
requested table one slab-level at a time, so a table whose chains have
length L costs exactly L gather rounds — the same traffic the warp
iterator generates on the device.  The walk itself is a kernel
(``walk_chains`` in :mod:`repro.kernels.reference`); this driver charges
the device model from the level/read totals the kernel reports.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.counters import get_counters
from repro.kernels import reference as kern
from repro.slabhash.constants import EMPTY_KEY, KEY_DTYPE, NULL_SLAB, TOMBSTONE_KEY
from repro.util.validation import as_int_array, check_in_range

__all__ = ["collect_table_slabs", "iterate_tables", "clear_tables", "flush_tombstones"]


def collect_table_slabs(arena, table_ids):
    """All slab ids owned by the given tables.

    Returns
    -------
    slab_ids : np.ndarray
        Every slab (base + overflow) reachable from the tables' buckets.
    owner_pos : np.ndarray
        ``owner_pos[i]`` is the position *within table_ids* owning
        ``slab_ids[i]``.
    is_base : np.ndarray of bool
        True for base slabs (never freed), False for overflow slabs.
    """
    table_ids = as_int_array(table_ids, "table_ids")
    if table_ids.size:
        check_in_range(table_ids, 0, arena.num_tables, "table_ids")
    exists = arena.table_base[table_ids] != NULL_SLAB
    pos = np.flatnonzero(exists)
    if pos.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), np.empty(0, dtype=bool)

    bases = arena.table_base[table_ids[pos]]
    buckets = arena.table_buckets[table_ids[pos]]
    # Expand each table's contiguous base range [base, base+buckets).
    owner0 = np.repeat(pos, buckets)
    starts = np.repeat(bases, buckets)
    within = _ragged_arange(buckets)
    head_slabs = starts + within

    counters = get_counters()
    slabs, head_idx, is_base, levels, reads = kern.walk_chains(arena.pool.next_slab, head_slabs)
    counters.probe_rounds += int(levels)
    counters.slab_reads += int(reads)
    return slabs, owner0[head_idx], is_base


def _ragged_arange(lengths: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(l)`` for each l in lengths, vectorized."""
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    seq = np.arange(total, dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    return seq - np.repeat(offsets, lengths)


def iterate_tables(arena, table_ids):
    """Gather all live entries of the given tables.

    Returns
    -------
    owner_pos : np.ndarray
        Position within ``table_ids`` of each entry's table.
    keys : np.ndarray (int64)
        Live keys (tombstones and empties excluded).
    values : np.ndarray (int64)
        Parallel values (zeros for set arenas).
    """
    table_ids = as_int_array(table_ids, "table_ids")
    slab_ids, owner_pos, _ = collect_table_slabs(arena, table_ids)
    if slab_ids.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    pool = arena.pool
    counters = get_counters()
    rows = pool.keys[slab_ids]
    counters.slab_reads += int(slab_ids.size)
    live = (rows != KEY_DTYPE(EMPTY_KEY)) & (rows != KEY_DTYPE(TOMBSTONE_KEY))
    entry_owner = np.repeat(owner_pos, pool.lane_capacity).reshape(rows.shape)
    keys = rows[live].astype(np.int64)
    owners = entry_owner[live]
    if pool.weighted:
        values = pool.values[slab_ids][live].astype(np.int64)
    else:
        values = np.zeros(keys.shape[0], dtype=np.int64)
    return owners, keys, values


def clear_tables(arena, table_ids) -> None:
    """Empty the given tables; free overflow slabs, keep base slabs.

    Implements the memory side of vertex deletion (Algorithm 2, lines
    18-20 plus the edge-count reset handled by the caller).
    """
    table_ids = as_int_array(table_ids, "table_ids")
    slab_ids, _, is_base = collect_table_slabs(arena, table_ids)
    if slab_ids.size == 0:
        return
    pool = arena.pool
    counters = get_counters()
    base = slab_ids[is_base]
    pool.keys[base] = KEY_DTYPE(EMPTY_KEY)
    pool.next_slab[base] = NULL_SLAB
    if pool.weighted:
        pool.values[base] = 0
    counters.slab_writes += int(base.size)
    overflow = slab_ids[~is_base]
    if overflow.size:
        pool.free(overflow)


def flush_tombstones(arena, table_ids) -> None:
    """Compact tables: drop tombstones, repack entries densely.

    The optional cleanup pass the paper mentions for reclaiming
    tombstone-occupied lanes.  Entries are gathered, the tables cleared
    (overflow slabs returned to the allocator), and the live entries
    reinserted — restoring the empties-only-at-tail invariant by
    construction.
    """
    table_ids = as_int_array(table_ids, "table_ids")
    owners, keys, values = iterate_tables(arena, table_ids)
    clear_tables(arena, table_ids)
    if keys.size == 0:
        return
    arena.insert(table_ids[owners], keys, values if arena.pool.weighted else None)
