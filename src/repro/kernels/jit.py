"""The optional numba-jit kernel tier (compiled loop nests).

Each public function mirrors a :mod:`repro.kernels.reference` kernel with
the same signature, the same mutations, and bit-identical outputs; the
inner loops are ``@numba.njit``-compiled single passes that fuse the
gather and the hit / empty-lane scans into one traversal of the items —
no NumPy temporaries, no boolean matrices, and for insert no (item,
chain-slab) pair expansion to chunk: each item just walks its chain.

When numba is not installed the ``@njit`` decorator degrades to the
identity, leaving plain-Python loop implementations: far too slow for real
workloads but semantically identical, which is what lets the
counter-parity tests exercise this tier's code paths in numba-less
environments (``set_tier("jit", force=True)``).  Sorting-dominated kernels
(:func:`sort_window_last`, the O(batch) ``row_ptr`` move of
:func:`merge_sorted_csr`) are shared with the reference tier verbatim —
NumPy's compiled sort is already the fast path there.

Like the reference tier, nothing here touches :mod:`repro.gpusim`
counters; drivers charge the device model from the returned quantities.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.reference import (
    STATUS_ADVANCE,
    STATUS_DONE,
    STATUS_HIT,
    _moved_row_ptr,
    sort_window_last,
)
from repro.slabhash.constants import EMPTY_KEY, KEY_DTYPE, NULL_SLAB, TOMBSTONE_KEY

try:  # pragma: no cover - exercised only when numba is installed
    from numba import njit

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - the default offline environment

    def njit(*args, **kwargs):
        """Identity decorator: keep the Python fallback callable as-is."""
        if args and callable(args[0]):
            return args[0]

        def wrap(fn):
            return fn

        return wrap

    NUMBA_AVAILABLE = False

__all__ = [
    "NUMBA_AVAILABLE",
    "TIER_NAME",
    "delete_round",
    "fill_lanes",
    "insert_round_map",
    "insert_round_set",
    "merge_sorted_csr",
    "search_round_map",
    "search_round_set",
    "sort_window_last",
    "tail_empties",
    "walk_chains",
]

#: Dispatch name of this tier.
TIER_NAME = "jit"

_EMPTY32 = KEY_DTYPE(EMPTY_KEY)
_TOMBSTONE32 = KEY_DTYPE(TOMBSTONE_KEY)
_NULL = np.int64(NULL_SLAB)
_MASK32 = np.int64(0xFFFFFFFF)
_STATUS_HIT = np.uint8(STATUS_HIT)
_STATUS_DONE = np.uint8(STATUS_DONE)
_STATUS_ADVANCE = np.uint8(STATUS_ADVANCE)


@njit(cache=True)
def _insert_hits(pool_keys, chain_slabs, chain_ptr, group, k, depth, hit_lanes):
    bc = pool_keys.shape[1]
    for i in range(k.shape[0]):
        key = k[i]
        first_slot = chain_ptr[group[i]]
        depth[i] = 0
        for slot in range(first_slot, chain_ptr[group[i] + 1]):
            slab = chain_slabs[slot]
            for lane in range(bc):
                if pool_keys[slab, lane] == key:
                    depth[i] = slot - first_slot + 1
                    hit_lanes[i] = lane
                    break
            if depth[i] > 0:
                break


def insert_round_map(pool_keys, pool_values, chain_slabs, chain_ptr, group, k, v):
    """The insert hit/replace pass (map variant); see the reference contract."""
    depth = np.empty(k.shape[0], dtype=np.int64)
    hit_lanes = np.empty(k.shape[0], dtype=np.int64)
    _insert_hits(pool_keys, chain_slabs, chain_ptr, group, k, depth, hit_lanes)
    hits = np.flatnonzero(depth)
    hit_slabs = chain_slabs[chain_ptr[group[hits]] + depth[hits] - 1]
    pool_values[hit_slabs, hit_lanes[hits]] = v[hits]
    return depth


def insert_round_set(pool_keys, chain_slabs, chain_ptr, group, k):
    """The insert hit pass (set variant); see the reference contract."""
    depth = np.empty(k.shape[0], dtype=np.int64)
    hit_lanes = np.empty(k.shape[0], dtype=np.int64)
    _insert_hits(pool_keys, chain_slabs, chain_ptr, group, k, depth, hit_lanes)
    return depth


@njit(cache=True)
def _tail_empties(pool_keys, tails, n_empty):
    for g in range(tails.shape[0]):
        count = 0
        for lane in range(pool_keys.shape[1]):
            if pool_keys[tails[g], lane] == _EMPTY32:
                count += 1
        n_empty[g] = count


def tail_empties(pool_keys, tails):
    """Empty-lane count of each chain's tail slab, for insert placement."""
    n_empty = np.empty(tails.shape[0], dtype=np.int64)
    _tail_empties(pool_keys, tails, n_empty)
    return n_empty


@njit(cache=True)
def fill_lanes(lane_matrix, slabs, lanes, vals):
    """Scatter ``vals`` into ``lane_matrix[slabs, lanes]`` (distinct lanes)."""
    for i in range(slabs.shape[0]):
        lane_matrix[slabs[i], lanes[i]] = vals[i]


@njit(cache=True)
def _search_round(pool_keys, cur, k, status, hit_lanes):
    bc = pool_keys.shape[1]
    for t in range(cur.shape[0]):
        slab = cur[t]
        key = k[t]
        hit_lane = -1
        has_empty = False
        for lane in range(bc):
            kk = pool_keys[slab, lane]
            if kk == key:
                hit_lane = lane
                break
            if kk == _EMPTY32:
                has_empty = True
        if hit_lane >= 0:
            status[t] = _STATUS_HIT
            hit_lanes[t] = hit_lane
        elif has_empty:
            status[t] = _STATUS_DONE
        else:
            status[t] = _STATUS_ADVANCE


def search_round_map(pool_keys, pool_values, cur, k):
    """One search round (map variant); returns ``(status, values)``."""
    m = cur.shape[0]
    status = np.empty(m, dtype=np.uint8)
    hit_lanes = np.full(m, -1, dtype=np.int64)
    _search_round(pool_keys, cur, k, status, hit_lanes)
    vals = np.zeros(m, dtype=np.int64)
    got = hit_lanes >= 0
    vals[got] = pool_values[cur[got], hit_lanes[got]]
    return status, vals


def search_round_set(pool_keys, cur, k):
    """One search round (set variant); returns the status array only."""
    m = cur.shape[0]
    status = np.empty(m, dtype=np.uint8)
    hit_lanes = np.full(m, -1, dtype=np.int64)
    _search_round(pool_keys, cur, k, status, hit_lanes)
    return status


@njit(cache=True)
def _delete_round(pool_keys, cur, k, status):
    bc = pool_keys.shape[1]
    for t in range(cur.shape[0]):
        slab = cur[t]
        key = k[t]
        hit_lane = -1
        has_empty = False
        for lane in range(bc):
            kk = pool_keys[slab, lane]
            if kk == key:
                hit_lane = lane
                break
            if kk == _EMPTY32:
                has_empty = True
        if hit_lane >= 0:
            pool_keys[slab, hit_lane] = _TOMBSTONE32
            status[t] = _STATUS_HIT
        elif has_empty:
            status[t] = _STATUS_DONE
        else:
            status[t] = _STATUS_ADVANCE


def delete_round(pool_keys, cur, k):
    """One tombstone-delete round; mutates hit lanes, returns statuses."""
    status = np.empty(cur.shape[0], dtype=np.uint8)
    _delete_round(pool_keys, cur, k, status)
    return status


@njit(cache=True)
def _chain_lengths(next_slab, heads, lengths):
    total = np.int64(0)
    max_len = np.int64(0)
    for i in range(heads.shape[0]):
        length = np.int64(1)
        slab = heads[i]
        while next_slab[slab] != _NULL:
            slab = next_slab[slab]
            length += 1
        lengths[i] = length
        total += length
        if length > max_len:
            max_len = length
    return total, max_len


@njit(cache=True)
def _fill_level_order(next_slab, heads, lengths, max_len, slabs, head_idx, is_base):
    n = heads.shape[0]
    # offsets[d] = start of depth-d block in level-major output order.
    offsets = np.zeros(max_len + 1, dtype=np.int64)
    for i in range(n):
        for d in range(lengths[i]):
            offsets[d + 1] += 1
    for d in range(max_len):
        offsets[d + 1] += offsets[d]
    fill = offsets[:max_len].copy()
    for i in range(n):
        slab = heads[i]
        for d in range(lengths[i]):
            pos = fill[d]
            fill[d] += 1
            slabs[pos] = slab
            head_idx[pos] = i
            is_base[pos] = d == 0
            slab = next_slab[slab]


def walk_chains(next_slab, heads):
    """Level-order chain walk; same contract as the reference tier.

    Two compiled passes: measure every chain, then scatter slabs into
    level-major order (heads first, each depth block in surviving-head
    order — exactly the frontier order of the reference walk).
    """
    n = heads.shape[0]
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), np.empty(0, dtype=bool), 0, 0
    lengths = np.empty(n, dtype=np.int64)
    total, max_len = _chain_lengths(next_slab, heads, lengths)
    slabs = np.empty(total, dtype=np.int64)
    head_idx = np.empty(total, dtype=np.int64)
    is_base = np.empty(total, dtype=bool)
    _fill_level_order(next_slab, heads, lengths, max_len, slabs, head_idx, is_base)
    # The reference walk gathers one next pointer per frontier slab per
    # level: levels = deepest chain, reads = every slab reached.
    return slabs, head_idx, is_base, int(max_len), int(total)


@njit(cache=True)
def _merge_stream(base_keys, weights, has_w, ups, upw, dels, out_keys, out_w, replaced, left):
    n_ups = ups.shape[0]
    n_dels = dels.shape[0]
    ui = 0
    di = 0
    out = 0
    prev = np.int64(-1)
    for e in range(base_keys.shape[0]):
        key_o = base_keys[e]
        if key_o <= prev:
            return np.int64(-1)  # duplicated base key (broken export)
        prev = key_o
        # Emit every upsert strictly below the old key first.
        while ui < n_ups and ups[ui] < key_o:
            out_keys[out] = ups[ui]
            if has_w:
                out_w[out] = upw[ui]
            out += 1
            ui += 1
        while di < n_dels and dels[di] < key_o:
            di += 1
        if ui < n_ups and ups[ui] == key_o:
            out_keys[out] = ups[ui]  # replace: new weight wins
            if has_w:
                out_w[out] = upw[ui]
            replaced[ui] = True
            out += 1
            ui += 1
        elif di < n_dels and dels[di] == key_o:
            left[di] = True  # delete: old key dropped
            di += 1
        else:
            out_keys[out] = key_o
            if has_w:
                out_w[out] = weights[e]
            out += 1
    while ui < n_ups:
        out_keys[out] = ups[ui]
        if has_w:
            out_w[out] = upw[ui]
        out += 1
        ui += 1
    return out


def merge_sorted_csr(base_keys, row_ptr, weights, upsert_comp, upsert_weights, delete_comp):
    """Stream-merge a sorted delta into a sorted CSR (compiled single pass).

    Same contract as the reference tier: returns the merged ``(keys,
    row_ptr, col_idx, weights)`` or ``None`` on a duplicated base key.
    The stream marks the upserts that replaced a key (the others arrived)
    and the deletes that hit (they left) for the ``row_ptr`` move.
    """
    n_ups = upsert_comp.shape[0]
    has_w = weights is not None
    w_in = weights if has_w else np.empty(0, dtype=np.int64)
    upw = np.zeros(n_ups, dtype=np.int64) if upsert_weights is None else upsert_weights
    out_keys = np.empty(base_keys.shape[0] + n_ups, dtype=np.int64)
    out_w = np.empty(out_keys.shape[0] if has_w else 0, dtype=np.int64)
    replaced = np.zeros(n_ups, dtype=np.bool_)
    left = np.zeros(delete_comp.shape[0], dtype=np.bool_)
    count = _merge_stream(
        base_keys, w_in, has_w, upsert_comp, upw, delete_comp, out_keys, out_w, replaced, left
    )
    if count < 0:
        return None
    keys = out_keys[: int(count)]
    new_row_ptr = _moved_row_ptr(row_ptr, upsert_comp[~replaced], delete_comp[left])
    new_weights = out_w[: int(count)].copy() if has_w else None
    return keys, new_row_ptr, keys & _MASK32, new_weights
