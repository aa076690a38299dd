"""Batched search / membership kernel driver.

The read-only chain walk behind ``edgeExist`` (Section IV-B): identical
traversal to :mod:`repro.slabhash.delete` but without mutation.  Returns a
found mask and, for map arenas, the stored values.  The per-round probe is
a kernel (:mod:`repro.kernels.reference`); this driver owns scheduling and
device-model charging.

Unlike insert/delete, the batch is *not* deduplicated: queries are
idempotent and callers (e.g. triangle counting) legitimately probe the same
pair many times.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.counters import get_counters
from repro.kernels import reference as kern
from repro.kernels.reference import STATUS_ADVANCE, STATUS_HIT
from repro.slabhash.constants import KEY_DTYPE, MAX_KEY, NULL_SLAB
from repro.util.validation import as_int_array, check_equal_length, check_in_range

__all__ = ["search_batch"]


def search_batch(arena, table_ids, keys) -> tuple[np.ndarray, np.ndarray]:
    """Probe (table, key) items; return ``(found, values)``.

    ``values[i]`` is 0 whenever ``found[i]`` is False or the arena is a set.
    """
    table_ids = as_int_array(table_ids, "table_ids")
    keys = as_int_array(keys, "keys")
    n = check_equal_length(("table_ids", table_ids), ("keys", keys))
    found = np.zeros(n, dtype=bool)
    values = np.zeros(n, dtype=np.int64)
    if n == 0:
        return found, values
    check_in_range(table_ids, 0, arena.num_tables, "table_ids")
    check_in_range(keys, 0, MAX_KEY + 1, "keys")

    counters = get_counters()
    counters.kernel_launches += 1
    pool = arena.pool
    k = keys.astype(KEY_DTYPE)

    # Items aimed at never-created tables trivially miss.
    exists = arena.table_base[table_ids] != NULL_SLAB
    active = np.flatnonzero(exists)
    if active.size == 0:
        return found, values
    cur = np.full(n, NULL_SLAB, dtype=np.int64)
    cur[active] = arena.bucket_heads(table_ids[active], keys[active])
    pending = active.astype(np.int64)

    while pending.size:
        counters.probe_rounds += 1
        cur_p = cur[pending]
        if pool.weighted:
            status, vals = kern.search_round_map(pool.keys, pool.values, cur_p, k[pending])
        else:
            status = kern.search_round_set(pool.keys, cur_p, k[pending])
            vals = None
        counters.slab_reads += int(pending.size)

        got = np.flatnonzero(status == STATUS_HIT)
        if got.size:
            found[pending[got]] = True
            if vals is not None:
                values[pending[got]] = vals[got]

        # STATUS_DONE items hit an empty lane: provably absent, walk over.
        cont = np.flatnonzero(status == STATUS_ADVANCE)
        if cont.size == 0:
            break
        nxt = pool.next_slab[cur_p[cont]]
        alive = nxt != NULL_SLAB
        cur[pending[cont[alive]]] = nxt[alive]
        pending = pending[cont[alive]]

    return found, values
