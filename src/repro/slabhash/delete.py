"""Batched tombstone-delete kernel driver.

The vectorized counterpart of the slab-hash ``delete`` operation
(Section IV-C2): walk the bucket chain; when the key is found its lane is
overwritten with ``TOMBSTONE_KEY`` (the slot is *not* reclaimed, so later
inserts keep appending at chain tails); when a slab containing an empty
lane is reached without a match, the key is provably absent (empties exist
only at chain tails) and the walk stops.  The per-round probe-and-tombstone
pass is a kernel (:mod:`repro.kernels.reference`); this driver owns
scheduling and device-model charging.

The returned mask reports, per item, whether the key actually existed —
the boolean the paper uses to keep exact per-vertex edge counts.
Intra-batch duplicates of the same (table, key) are collapsed first; only
one occurrence can succeed, matching any hardware serialization.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.counters import get_counters
from repro.kernels import reference as kern
from repro.kernels.reference import STATUS_ADVANCE, STATUS_HIT
from repro.slabhash.constants import KEY_DTYPE, MAX_KEY, NULL_SLAB
from repro.util.groupby import first_occurrence_mask
from repro.util.validation import as_int_array, check_equal_length, check_in_range

__all__ = ["delete_batch"]


def delete_batch(arena, table_ids, keys) -> np.ndarray:
    """Delete (table, key) items; return per-item "existed and was removed"."""
    table_ids = as_int_array(table_ids, "table_ids")
    keys = as_int_array(keys, "keys")
    n = check_equal_length(("table_ids", table_ids), ("keys", keys))
    if n == 0:
        return np.empty(0, dtype=bool)
    check_in_range(table_ids, 0, arena.num_tables, "table_ids")
    check_in_range(keys, 0, MAX_KEY + 1, "keys")

    counters = get_counters()
    counters.kernel_launches += 1
    pool = arena.pool

    composite = (table_ids.astype(np.int64) << 32) | keys.astype(np.int64)
    keep = first_occurrence_mask(composite)
    live_idx = np.flatnonzero(keep)
    t = table_ids[live_idx]
    keys_live = keys[live_idx]
    k = keys_live.astype(KEY_DTYPE)

    removed = np.zeros(n, dtype=bool)

    # Items aimed at never-created tables trivially miss.
    exists = arena.table_base[t] != NULL_SLAB
    active = np.flatnonzero(exists)
    if active.size == 0:
        return removed
    cur = np.full(live_idx.shape[0], NULL_SLAB, dtype=np.int64)
    cur[active] = arena.bucket_heads(t[active], keys_live[active])
    pending = active.astype(np.int64)

    while pending.size:
        counters.probe_rounds += 1
        cur_p = cur[pending]
        status = kern.delete_round(pool.keys, cur_p, k[pending])
        counters.slab_reads += int(pending.size)

        found = np.flatnonzero(status == STATUS_HIT)
        if found.size:
            counters.slab_writes += int(found.size)
            removed[live_idx[pending[found]]] = True

        # STATUS_DONE items hit an empty lane: provably absent, walk over.
        cont = np.flatnonzero(status == STATUS_ADVANCE)
        if cont.size == 0:
            break
        nxt = pool.next_slab[cur_p[cont]]
        alive = nxt != NULL_SLAB
        cur[pending[cont[alive]]] = nxt[alive]
        pending = pending[cont[alive]]

    return removed
