"""Batched search / membership kernel driver, and the probe walk it shares
with delete.

The read-only chain walk behind ``edgeExist`` (Section IV-B): identical
traversal to :mod:`repro.slabhash.delete` but without mutation — both run
:func:`probe_chains`.  A launch gathers its items' table bases once (the
existence test and the head slabs come from that one gather), then walks
each item down its bucket chain one slab per probe round.  A round is a
kernel (:mod:`repro.kernels.reference`) that reads each pending slab once
and compares it once: a hit resolves the item, a slab whose last lane is
empty ends the chain (empty lanes exist only at its tail), anything else
advances to the next slab.  The drivers own scheduling and device-model
charging.  Returns a found mask and, for map arenas, the stored values.

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

__all__ = ["checked_items", "probe_chains", "search_batch"]


def checked_items(arena, table_ids, keys):
    """Coerce a launch's parallel ``(table_ids, keys)`` to integer arrays
    and range-check them unless they are empty."""
    table_ids = as_int_array(table_ids, "table_ids")
    keys = as_int_array(keys, "keys")
    if check_equal_length(("table_ids", table_ids), ("keys", keys)):
        check_in_range(table_ids, 0, arena.num_tables, "table_ids")
        check_in_range(keys, 0, MAX_KEY + 1, "keys")
    return table_ids, keys


def probe_chains(arena, table_ids, keys, probe_round):
    """Walk each (table, key) item down its bucket chain, one slab per round.

    ``probe_round(cur, k)`` is one kernel round over the pending items'
    slabs ``cur`` and keys ``k``; it returns ``(status, values)``, the
    values ``None`` unless a map search reads them.  Items aimed at
    never-created tables trivially miss.  Charges one launch, a probe
    round per round and a slab read per pending item and round.  Returns
    ``(hits, values)``: the indices of the items that found their key and,
    when the round reads them, their values.
    """
    counters = get_counters()
    counters.kernel_launches += 1
    # The launch's one gather of the table bases: the existence test here,
    # the head slabs below.  A base is a slab id or NULL_SLAB (-1).
    bases = arena.table_base[table_ids]
    pending = np.flatnonzero(bases != NULL_SLAB)
    if pending.shape[0] < bases.shape[0]:
        bases, table_ids, keys = bases[pending], table_ids[pending], keys[pending]
    cur = arena._heads_at(bases, table_ids, keys)
    k = keys.astype(KEY_DTYPE)
    next_slab = arena.pool.next_slab
    hits, values = [], []
    while pending.size:
        counters.probe_rounds += 1
        counters.slab_reads += int(pending.size)
        status, vals = probe_round(cur, k)
        got = np.flatnonzero(status == STATUS_HIT)
        hits.append(pending[got])
        if vals is not None:
            values.append(vals[got])
        # STATUS_DONE items hit an empty lane: provably absent, walk over.
        cont = np.flatnonzero(status == STATUS_ADVANCE)
        nxt = next_slab[cur[cont]]
        alive = nxt != NULL_SLAB
        cont = cont[alive]
        cur, k, pending = nxt[alive], k[cont], pending[cont]
    if not hits:  # no item's table exists
        return pending, None
    return np.concatenate(hits), np.concatenate(values) if values else None


def search_batch(arena, table_ids, keys) -> tuple[np.ndarray, np.ndarray]:
    """Probe (table, key) items; return ``(found, values)``.

    ``values[i]`` is 0 whenever ``found[i]`` is False or the arena is a set.
    """
    table_ids, keys = checked_items(arena, table_ids, keys)
    n = keys.shape[0]
    found = np.zeros(n, dtype=bool)
    values = np.zeros(n, dtype=np.int64)
    if n == 0:
        return found, values
    pool = arena.pool

    def probe_round(cur, k):
        if pool.weighted:
            return kern.search_round_map(pool.keys, pool.values, cur, k)
        return kern.search_round_set(pool.keys, cur, k), None

    hits, vals = probe_chains(arena, table_ids, keys, probe_round)
    found[hits] = True
    if vals is not None:
        values[hits] = vals
    return found, values
