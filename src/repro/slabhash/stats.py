"""Load-factor / chain-length / memory metrics for slab-hash tables.

These feed the paper's Figure 2 (insertion rate, memory utilization, and
memory usage versus average chain length) and Figure 3 (query performance
versus chain length), plus the rehashing-trigger heuristic mentioned in
Section III ("maintain low-cost metrics per vertex to determine the
chain-length and periodically perform rehashing").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.slabhash.constants import EMPTY_KEY, KEY_DTYPE, TOMBSTONE_KEY
from repro.util.groupby import segmented_sum
from repro.util.validation import as_int_array

__all__ = ["ArenaStats", "compute_stats", "chain_lengths", "live_counts"]


@dataclass(frozen=True)
class ArenaStats:
    """Aggregate metrics over a set of tables.

    Attributes
    ----------
    num_tables:
        Tables measured.
    num_slabs:
        Total slabs owned (base + overflow).
    num_buckets:
        Total bucket chains.
    live_entries:
        Keys currently stored (excludes tombstones).
    tombstones:
        Tombstoned lanes.
    mean_chain_length:
        Average slabs per bucket chain (physical chain length).
    mean_bucket_load:
        ``live_entries / (num_buckets * lane_capacity)`` — the average
        bucket's data expressed in slabs, the paper's "average chain
        length" x-axis in Figures 2 and 3 (≈ the sizing load factor).
    memory_utilization:
        ``live_entries / total lane capacity`` — Figure 2b's y-axis.
    memory_bytes:
        Bytes held in slabs (128 B each) — Figure 2c's y-axis.
    """

    num_tables: int
    num_slabs: int
    num_buckets: int
    live_entries: int
    tombstones: int
    mean_chain_length: float
    mean_bucket_load: float
    memory_utilization: float
    memory_bytes: int


def compute_stats(arena, table_ids) -> ArenaStats:
    """Measure the given tables (vectorized, read-only)."""
    table_ids = as_int_array(table_ids, "table_ids")
    slab_ids, _ = arena.table_slabs(table_ids)
    num_slabs = int(slab_ids.shape[0])
    num_buckets = int(arena.table_buckets[table_ids].sum())
    if num_slabs == 0:
        return ArenaStats(int(table_ids.size), 0, num_buckets, 0, 0, 0.0, 0.0, 0.0, 0)
    rows = arena.pool.keys[slab_ids]
    live = int(((rows != KEY_DTYPE(EMPTY_KEY)) & (rows != KEY_DTYPE(TOMBSTONE_KEY))).sum())
    tombs = int((rows == KEY_DTYPE(TOMBSTONE_KEY)).sum())
    lane_total = num_slabs * arena.pool.lane_capacity
    return ArenaStats(
        num_tables=int(table_ids.size),
        num_slabs=num_slabs,
        num_buckets=num_buckets,
        live_entries=live,
        tombstones=tombs,
        mean_chain_length=num_slabs / max(num_buckets, 1),
        mean_bucket_load=live / max(num_buckets * arena.pool.lane_capacity, 1),
        memory_utilization=live / max(lane_total, 1),
        memory_bytes=num_slabs * 128,
    )


def chain_lengths(arena, table_ids) -> np.ndarray:
    """Slabs per table (summed over its buckets), aligned with table_ids.

    The per-vertex "chain length" metric a rehashing policy watches.
    """
    table_ids = as_int_array(table_ids, "table_ids")
    _, owner_pos = arena.table_slabs(table_ids)
    counts = np.bincount(owner_pos, minlength=table_ids.size)
    return counts.astype(np.int64)


def live_counts(arena, table_ids) -> np.ndarray:
    """Live keys per table, aligned with table_ids."""
    table_ids = as_int_array(table_ids, "table_ids")
    owners, keys, _ = arena.iterate(table_ids)
    if keys.size == 0:
        return np.zeros(table_ids.size, dtype=np.int64)
    return segmented_sum(np.ones(keys.shape[0], dtype=np.int64), owners, int(table_ids.size))
