"""Batched tombstone-delete kernel driver.

The vectorized counterpart of the slab-hash ``delete`` operation
(Section IV-C2): walk the bucket chain; when the key is found its lane is
overwritten with ``TOMBSTONE_KEY`` (the slot is *not* reclaimed, so later
inserts keep appending at chain tails); when a slab whose last lane is
empty is reached without a match, the key is provably absent (empties
exist only at chain tails) and the walk stops.  The walk — one gather of
the table bases per launch, then one probe round per chain step — is the
search's (:func:`repro.slabhash.search.probe_chains`); its round here is
the probe-and-tombstone kernel (:mod:`repro.kernels.reference`), which
reads each pending slab once and compares it once.  This driver owns the
deduplication and the write charges.

The returned mask reports, per item, whether the key actually existed —
the boolean the paper uses to keep exact per-vertex edge counts.
Intra-batch duplicates of the same (table, key) are collapsed first; only
one occurrence can succeed, matching any hardware serialization.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.counters import get_counters
from repro.kernels import reference as kern
from repro.slabhash.search import checked_items, probe_chains
from repro.util.groupby import first_occurrence_mask

__all__ = ["delete_batch"]


def delete_batch(arena, table_ids, keys) -> np.ndarray:
    """Delete (table, key) items; return per-item "existed and was removed"."""
    table_ids, keys = checked_items(arena, table_ids, keys)
    n = keys.shape[0]
    removed = np.zeros(n, dtype=bool)
    if n == 0:
        return removed
    pool = arena.pool

    composite = (table_ids.astype(np.int64) << 32) | keys.astype(np.int64)
    live_idx = np.flatnonzero(first_occurrence_mask(composite))

    def probe_round(cur, k):
        return kern.delete_round(pool.keys, cur, k), None

    hits, _ = probe_chains(arena, table_ids[live_idx], keys[live_idx], probe_round)
    get_counters().slab_writes += int(hits.size)
    removed[live_idx[hits]] = True
    return removed
