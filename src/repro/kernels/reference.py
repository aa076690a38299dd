"""The pure-NumPy kernels over the slab pool and sorted CSRs.

Each function is one *fused* pass over the structure-of-arrays slab arena
or a sorted CSR, with no per-item Python: a probe round for search and
delete (a single gather feeds hit detection and the empty-lane scan: one
compare finds each hit's lane, and the scan reads only a slab's last
lane), a level-order walk of whole chains, and for insert one read of
every chain's tail (:func:`read_tails`), one hit/replace pass over the
(item, chain-slab) pairs of the launch that can hold a key, and the lane
fill of its tail placement (:func:`fill_lanes`); the whole-row write of a
refill of empty chains (:func:`fill_rows`) — see
:mod:`repro.slabhash.insert` for the schedule.

Kernels here are **pure with respect to the device model**: they never
touch :mod:`repro.gpusim` counters.  Drivers charge the model from the
quantities these functions return (pending sizes, status counts, resolve
depths, walk levels).

Status codes of the search/delete probe rounds:

- ``STATUS_HIT`` (0) — the probe found its key this round (search: found;
  delete: tombstoned);
- ``STATUS_DONE`` (1) — an empty lane proved the key absent;
- ``STATUS_ADVANCE`` (2) — unresolved; the driver moves the item to the
  next slab in its chain.
"""

from __future__ import annotations

import numpy as np

from repro.slabhash.constants import EMPTY_KEY, KEY_DTYPE, NULL_SLAB, TOMBSTONE_KEY
from repro.util.groupby import stable_argsort

__all__ = [
    "STATUS_ADVANCE",
    "STATUS_HIT",
    "TIER_NAME",
    "PAIR_LANE_BUDGET",
    "delete_round",
    "fill_lanes",
    "fill_rows",
    "insert_round_map",
    "insert_round_set",
    "merge_sorted_csr",
    "read_tails",
    "search_round_map",
    "search_round_set",
    "sort_window_last",
    "walk_chains",
]

#: What :func:`repro.kernels.kernel_tier` reports for this module.
TIER_NAME = "reference"

#: Probe resolved by finding its key this round.
STATUS_HIT = 0
#: Probe resolved without a key hit (provably absent).
STATUS_DONE = 1
#: Probe unresolved; advance to the next slab in the chain.
STATUS_ADVANCE = 2

#: Lane comparisons one chunk of the insert hit pass may materialise
#: (pairs x lanes per slab), whatever the batch size and chain lengths.
PAIR_LANE_BUDGET = 1 << 21

_EMPTY32 = KEY_DTYPE(EMPTY_KEY)
_TOMBSTONE32 = KEY_DTYPE(TOMBSTONE_KEY)


def _replace_hits(pool_keys, pool_values, slabs, items, k, v):
    """Match one chunk of (item, chain-slab) pairs; overwrite hit values.

    ``slabs`` / ``items`` are the pairs, item-major in chain order.
    Returns ``(hit_items, hit_pairs)``: each item holding a key already
    stored in its chain, and the pair (= first chain slab) that has it.
    """
    matches = (pool_keys.take(slabs, axis=0) == k[items][:, None]).ravel().nonzero()[0]
    pairs, lanes = np.divmod(matches, pool_keys.shape[1])
    hit_items = items[pairs]
    if hit_items.shape[0] > 1:
        # Pairs run in chain order, so an item's first match is its hit.
        first = np.empty(hit_items.shape[0], dtype=bool)
        first[0] = True
        np.not_equal(hit_items[1:], hit_items[:-1], out=first[1:])
        pairs, lanes, hit_items = pairs[first], lanes[first], hit_items[first]
    if pool_values is not None and hit_items.shape[0]:
        pool_values[slabs[pairs], lanes] = v[hit_items]
    return hit_items, pairs


def _match_tails(pool_values, tails, tail_rows, occupied, group, k, v, max_pairs):
    """The hit pass when every chain is one slab: match each item against
    the occupied lane prefix of its tail row, already read.  Empty lanes
    are the suffix of a tail, so an item whose tail holds no key compares
    none but empty lanes and misses; a launch whose tails all hold none
    (every item aimed at a fresh table) skips the pass."""
    depth = np.zeros(k.shape[0], dtype=np.int64)
    width = int(occupied.max())
    if width == 0:
        return depth
    prefix = tail_rows[:, :width]
    for lo in range(0, k.shape[0], max_pairs):
        hi = lo + max_pairs
        rows = prefix.take(group[lo:hi], axis=0)
        hits, lanes = np.divmod((rows == k[lo:hi, None]).ravel().nonzero()[0], width)
        hits += lo
        if pool_values is not None and hits.shape[0]:
            pool_values[tails[group[hits]], lanes] = v[hits]
        depth[hits] = 1
    return depth


def _insert_round(pool_keys, pool_values, chain_slabs, chain_ptr, tail_rows, occupied, group, k, v):
    """Shared map/set hit pass over every (item, chain-slab) pair."""
    max_pairs = max(PAIR_LANE_BUDGET // pool_keys.shape[1], 1)
    if chain_slabs.shape[0] == chain_ptr.shape[0] - 1:
        return _match_tails(pool_values, chain_slabs, tail_rows, occupied, group, k, v, max_pairs)
    m = k.shape[0]
    depth = np.zeros(m, dtype=np.int64)
    # A chain's slabs hold keys up to its tail, which holds none when empty.
    scanned = np.diff(chain_ptr) - (occupied == 0)
    first_slot = chain_ptr[group]
    pairs_through = scanned[group].cumsum()
    lo = 0
    while lo < m:
        done = int(pairs_through[lo - 1]) if lo else 0
        # Whole items per chunk; one item alone may exceed the budget, but
        # only by its own chain length.
        hi = max(int(pairs_through.searchsorted(done + max_pairs, side="right")), lo + 1)
        ends = pairs_through[lo:hi] - done
        counts = np.diff(ends, prepend=0)
        items = np.repeat(np.arange(lo, hi, dtype=np.int64), counts)
        pos = np.arange(ends[-1], dtype=np.int64) - np.repeat(ends - counts, counts)
        hit_items, pairs = _replace_hits(
            pool_keys, pool_values, chain_slabs[first_slot[items] + pos], items, k, v
        )
        depth[hit_items] = pos[pairs] + 1
        lo = hi
    return depth


def insert_round_map(
    pool_keys, pool_values, chain_slabs, chain_ptr, tail_rows, occupied, group, k, v
):
    """The insert hit/replace pass (map variant); one call spans the chains.

    A "round" here is the whole launch's walk, not one chain step:
    ``chain_slabs[chain_ptr[g]:chain_ptr[g + 1]]`` is group ``g``'s chain
    in order, ``occupied[g]`` / ``tail_rows[g]`` its tail's occupied-lane
    count and row (:func:`read_tails`; rows of the items' groups only), and
    ``group`` / ``k`` / ``v`` the items' group, key and value.  Each item is
    matched against every slab of its chain that holds a key — where every
    chain is one slab, against the occupied lane prefix of its tail row;
    where its key is already stored the value lane is overwritten.  Returns
    the per-item resolve depth of the hits — chain position + 1 of the first
    slab holding the key — and 0 for the misses the driver places at the
    tail.  Temporaries are bounded by :data:`PAIR_LANE_BUDGET`.
    """
    return _insert_round(
        pool_keys, pool_values, chain_slabs, chain_ptr, tail_rows, occupied, group, k, v
    )


def insert_round_set(pool_keys, chain_slabs, chain_ptr, tail_rows, occupied, group, k):
    """The insert hit pass (set variant): like the map but with no values."""
    return _insert_round(
        pool_keys, None, chain_slabs, chain_ptr, tail_rows, occupied, group, k, None
    )


def read_tails(pool_keys, tails):
    """Each chain's tail row, read once per insert launch, and its
    occupied-lane count: the first empty lane, as empty lanes are a suffix
    of the tail (``SlabArena.check_invariants``) — ``Bc`` if the last lane
    is full.  The hit pass and the tail placement both read these."""
    rows = pool_keys.take(tails, axis=0)
    empty = rows == _EMPTY32
    return rows, np.where(empty[:, -1], empty.argmax(axis=1), empty.shape[1])


def fill_lanes(lane_matrix, slabs, lanes, vals):
    """Scatter ``vals`` into ``lane_matrix[slabs, lanes]`` (distinct lanes, C-contiguous)."""
    lane_matrix.ravel()[slabs * lane_matrix.shape[1] + lanes] = vals


def fill_rows(lane_matrix, rows, lanes, vals, fill):
    """Write whole rows: ``vals`` at flat lanes ``lanes`` of a dense block
    of ``len(rows)`` rows, every other lane ``fill``, copied into
    ``lane_matrix[rows]`` (distinct rows)."""
    block = np.full((rows.shape[0], lane_matrix.shape[1]), fill, dtype=lane_matrix.dtype)
    block.ravel()[lanes] = vals
    lane_matrix[rows] = block


def _probe_round(pool_keys, cur, k):
    """Shared hit / empty-terminated probe for search and delete rounds.

    One gather of the rows and one compare of every lane against the
    probe's key; a row's first matching lane is its hit.  Returns
    ``(status, hits, lanes)``: the per-probe status and each hit's probe
    index and lane.  A probe that misses is done when its slab's *last*
    lane is empty: empty lanes are the suffix of a chain's last slab
    (``SlabArena.check_invariants``), so a slab has an empty lane iff its
    last one is, and the key is provably absent.
    """
    rows = pool_keys.take(cur, axis=0)
    hits, lanes = np.divmod((rows == k[:, None]).ravel().nonzero()[0], rows.shape[1])
    if hits.shape[0] > 1:
        # Matches run row-major: a row's first one is its lowest lane.
        first = np.empty(hits.shape[0], dtype=bool)
        first[0] = True
        np.not_equal(hits[1:], hits[:-1], out=first[1:])
        hits, lanes = hits[first], lanes[first]
    status = np.where(rows[:, -1] == _EMPTY32, np.uint8(STATUS_DONE), np.uint8(STATUS_ADVANCE))
    status[hits] = STATUS_HIT
    return status, hits, lanes


def search_round_map(pool_keys, pool_values, cur, k):
    """One search round (map variant); returns ``(status, values)``."""
    status, hits, lanes = _probe_round(pool_keys, cur, k)
    vals = np.zeros(cur.shape[0], dtype=np.int64)
    vals[hits] = pool_values[cur[hits], lanes]
    return status, vals


def search_round_set(pool_keys, cur, k):
    """One search round (set variant); returns the status array only."""
    return _probe_round(pool_keys, cur, k)[0]


def delete_round(pool_keys, cur, k):
    """One tombstone-delete round; mutates hit lanes, returns statuses."""
    status, hits, lanes = _probe_round(pool_keys, cur, k)
    pool_keys[cur[hits], lanes] = _TOMBSTONE32
    return status


def walk_chains(next_slab, heads):
    """Level-order walk of every chain rooted at ``heads``.

    Returns ``(slabs, head_idx, levels)``: all reachable slab ids in
    level order (the heads first, then each chain's next slab in
    surviving-head order, and so on), the owning index into ``heads`` per
    slab, and the number of pointer-gather rounds, which the driver
    charges to the device model with ``slabs.size`` slab reads.
    """
    n = heads.shape[0]
    slabs, owners = [heads], [np.arange(n, dtype=np.int64)]
    nxt = next_slab[heads]
    while (alive := nxt != NULL_SLAB).any():
        slabs.append(nxt[alive])
        owners.append(owners[-1][alive])
        nxt = next_slab[slabs[-1]]
    if len(slabs) == 1:
        # No head has a second slab (every fresh table): one gather was the walk.
        return heads, owners[0], int(n > 0)
    return np.concatenate(slabs), np.concatenate(owners), len(owners)


def sort_window_last(comp, w, is_ins):
    """Fused dedup-last + sort of an event-window delta.

    One stable argsort replaces the pre-refactor pair (a
    ``last_occurrence_mask`` sort followed by a second full sort): sort
    the composite keys once, then keep the last element of every equal
    run — which *is* the batch's last occurrence, because the sort is
    stable.  Returns ``(sorted unique comp, w, is_ins)`` with each
    survivor carrying its window-final payload.
    """
    if comp.shape[0] == 0:
        return comp, w, is_ins
    order = stable_argsort(comp)
    sc = comp[order]
    last = np.empty(sc.shape[0], dtype=bool)
    last[-1] = True
    np.not_equal(sc[1:], sc[:-1], out=last[:-1])
    idx = order[last]
    return sc[last], w[idx], is_ins[idx]


def merge_sorted_csr(base_keys, weights, upsert_comp, upsert_weights, delete_comp):
    """Stream-merge a sorted, disjoint upsert/delete delta into sorted keys.

    The base is its sorted keys (``CSRSnapshot.keys()``) and ``weights``.
    Returns ``(keys, weights)`` for the merged edge set, or ``None`` when
    the base keys are not strictly increasing (the driver raises — a
    duplicate means a broken ``export_coo``).  Pure stream work:
    O(E + B log E), no whole-edge-set sort, nothing over the vertex space.
    """
    if base_keys.size > 1 and not bool(np.all(base_keys[1:] > base_keys[:-1])):
        # searchsorted pairs each touched key with one position, so a
        # duplicated base key would silently survive a delete/upsert.
        return None
    # Drop every touched key from the old stream: deletes disappear,
    # upserted keys re-enter from the delta with their new weight.
    n_ups = upsert_comp.shape[0]
    touched = np.concatenate([upsert_comp, delete_comp])
    keep = np.ones(base_keys.shape[0], dtype=bool)
    loc = np.searchsorted(base_keys, touched)
    hit = loc < base_keys.shape[0]
    hit[hit] = base_keys[loc[hit]] == touched[hit]
    keep[loc[hit]] = False
    kept_keys = base_keys[keep]
    total = kept_keys.shape[0] + n_ups
    new_keys = np.empty(total, dtype=np.int64)
    ins_at = np.searchsorted(kept_keys, upsert_comp) + np.arange(n_ups, dtype=np.int64)
    ins_mask = np.zeros(total, dtype=bool)
    ins_mask[ins_at] = True
    new_keys[ins_at] = upsert_comp
    new_keys[~ins_mask] = kept_keys
    new_weights = None
    if weights is not None:
        new_weights = np.empty(total, dtype=np.int64)
        new_weights[ins_at] = 0 if upsert_weights is None else upsert_weights
        new_weights[~ins_mask] = weights[keep]
    return new_keys, new_weights
