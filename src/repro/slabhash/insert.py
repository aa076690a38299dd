"""Batched insert-with-replace kernel driver.

This is the vectorized counterpart of the paper's slab-hash ``replace``
operation as scheduled by Algorithm 1.  On the device every item walks its
bucket chain one slab per warp-synchronous *probe round* and at each slab
either

1. **replaces** — the key already exists; the value lane is overwritten and
   the item reports "not newly added" (uniqueness is preserved, the most
   recent weight wins);
2. **claims an empty lane** — items targeting the same slab cooperate (the
   vectorized analogue of the intra-warp coalesced group) and the ``r``-th
   unplaced item of a group takes the ``r``-th empty lane;
3. **advances** — no key match and not enough empty lanes: the group's first
   unplaced item allocates and links a new tail slab if needed (one
   simulated atomic CAS per chain extension), and the leftovers move to the
   next slab.

The host does not replay those rounds.  Items sharing a head slab form a
*group* that stays together for the whole walk (chains from different
buckets never share slabs), and empty lanes exist only in a chain's last
slab, so where every item ends up follows from one look at each chain.
A launch is four steps:

1. **walk once** — enumerate the chain behind every group's head slab
   (``walk_chains`` over the unique heads, regrouped chain by chain);
2. **read every tail once** (``read_tails``) — one gather of each chain's
   last slab.  A tail's occupied lanes are a prefix (claims take the
   lowest empty lane and nothing ever empties one), so the row also
   gives ``used``, its occupied-lane count;
3. **hit pass** — match every item against every slab of its chain that
   holds a key in one kernel call (``insert_round_map`` /
   ``insert_round_set``); where every chain is one slab, that is the
   first ``used`` lanes of the tail row already read, and a launch whose
   tails are all empty (every item aimed at a fresh table) skips it.  A
   hit at chain position ``p`` is what the device resolves in round
   ``p + 1``;
4. **tail placement** (:func:`_place_at_tails`) — rank each group's misses
   in launch order.  With ``used`` of its tail's ``Bc`` lanes occupied,
   miss ``rank`` lands ``(used + rank) // Bc`` slabs past the tail, in
   lane ``(used + rank) % Bc`` — the tail itself, or new slab ``q`` = that
   quotient - 1.

A table id without a table gets a one-bucket table (Section III-b): its
items sort under the provisional head ``bump + id`` (``bump`` the pool's
first unused slab), above every existing head and in the order of the
bases ``bump + rank`` one contiguous carve then gives the new tables, whose
empty chains steps 2 and 3 skip.

The bulk build, the tombstone flush and the rehash place distinct keys
into empty one-slab chains, where steps 1-3 find nothing: their launch is
:func:`refill_chains`, which writes each chain as whole rows of one dense
block, with the same slab ids, lanes and charges as this placement.

The device model is charged from each item's *resolve depth* ``d`` — hit
position + 1, chain length ``L`` for a miss placed in the tail, ``L + q +
1`` for a spilled one: ``slab_reads`` grows by the sum of the depths and
``probe_rounds`` by their maximum, exactly what the rounds would have
counted.  New slabs are allocated in the device's order too — slab ``q``
of a chain is linked in round ``L + q``, one allocation per such round,
ascending tail-slab id within it — so slab ids, recycling, pool-growth
copies and atomics are those of the round-by-round schedule.  The data
movement is the kernels' (:mod:`repro.kernels.reference`); this driver owns
scheduling, chain extension, and all :mod:`repro.gpusim` charging.

Intra-batch duplicates of the same (table, key) are resolved *before* the
walk by keeping the last occurrence — the serialization the paper specifies
("only the most recent edge and its weight will be stored").  The group
sort finds them: a repeat shares its occurrence's head, so only groups of
several items are searched (:func:`_last_occurrences`).  Dropped
duplicates report "not newly added", so edge-count accounting stays exact.

Tombstones are treated as occupied (Section IV-C2: faster inserts, empties
only at chain tails), which is what lets searches stop at the first empty
lane.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.counters import get_counters
from repro.kernels import reference as kern
from repro.slabhash.constants import EMPTY_KEY, KEY_DTYPE, NULL_SLAB, VALUE_DTYPE
from repro.slabhash.search import checked_items
from repro.util.groupby import (
    _run_starts,
    group_starts,
    last_occurrence_mask,
    ragged_arange,
    stable_argsort,
)
from repro.util.validation import as_int_array, check_equal_length, check_in_range

__all__ = ["insert_batch", "refill_chains"]


def _last_occurrences(order, group, keys):
    """Drop every in-batch repeat of a (table, key) but its last
    occurrence from the group-major items (``order`` / ``group``).

    A repeat has its occurrence's head, so it sits in the same group,
    later in launch order: only groups of several items are searched, and
    ``(group, key)`` names a (table, key) there.
    """
    pos = (np.bincount(group)[group] > 1).nonzero()[0]
    comp = group[pos] << 32  # key < 2**32
    comp |= keys[order[pos]]
    ordered = np.sort(comp)
    if (ordered[1:] != ordered[:-1]).all():  # distinct keys: nothing to drop
        return order, group
    keep = last_occurrence_mask(comp)
    alive = np.ones(order.shape[0], dtype=bool)
    alive[pos[~keep]] = False
    return order[alive], group[alive]


def _extend_chains(pool, tails, lengths, n_new) -> np.ndarray:
    """Allocate and link ``n_new[g]`` slabs behind ``tails[g]``.

    Returns the new slab ids chain by chain, each chain's in link order
    (``q`` = 0, 1, ...).  Allocation follows the device's
    rounds: slab ``q`` of a chain of length ``L`` is linked in round ``L +
    q`` by the chain's then-tail; each round with links is one
    ``pool.allocate`` handing ids out in ascending tail-slab order.
    """
    chain = np.repeat(np.arange(tails.shape[0], dtype=np.int64), n_new)
    q = ragged_arange(n_new)
    link_round = lengths[chain] + q
    by_round = stable_argsort(link_round)
    bounds = np.append(group_starts(link_round[by_round]), chain.shape[0])
    new_ids = np.empty(chain.shape[0], dtype=np.int64)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        slots = by_round[lo:hi]
        # A chain's slab q - 1 was linked one round earlier and sits one
        # slot before slab q.
        prev = np.where(q[slots] == 0, tails[chain[slots]], new_ids[slots - 1])
        order = np.argsort(prev)
        ids = pool.allocate(hi - lo)
        new_ids[slots[order]] = ids
        pool.next_slab[prev[order]] = ids
    return new_ids


def _place_at_tails(pool, tails, lengths, occupied, group, k, v):
    """Step 4.  Chain ``g`` is ``lengths[g]`` slabs long with ``occupied[g]``
    lanes of its tail ``tails[g]`` in use; ``group`` / ``k`` / ``v`` are the
    group-major items' chain, key and value (``None`` for a set pool).
    Returns how many slabs past its tail each item went and the number of
    slabs linked."""
    lane_capacity = pool.lane_capacity
    count, rank = _ranks(group, tails.shape[0])
    beyond, lanes = np.divmod(occupied[group] + rank, lane_capacity)
    slabs = tails[group]
    links = 0
    # A chain links a slab iff its last miss lands past the tail.
    if beyond.any():
        n_new = np.maximum(occupied + count - 1, 0) // lane_capacity
        new_ids = _extend_chains(pool, tails, lengths, n_new)
        links = int(new_ids.shape[0])
        first_new = np.cumsum(n_new) - n_new
        spilled = beyond.nonzero()[0]
        slabs[spilled] = new_ids[first_new[group[spilled]] + beyond[spilled] - 1]
    kern.fill_lanes(pool.keys, slabs, lanes, k)
    if v is not None:
        kern.fill_lanes(pool.values, slabs, lanes, v)
    return beyond, links


def _groups(heads):
    """Sorted head slabs -> (each group's head, each item's group index):
    one run-start mask, and its running count numbers the groups."""
    start = _run_starts(heads)
    group = start.cumsum()
    group -= 1
    return heads[start], group


def _ranks(group, num_groups):
    """Sorted group ids -> (each group's size, each item's rank in its
    group): an item's distance from its group's first item, whose index
    is the running size of the groups before it."""
    count = np.bincount(group, minlength=num_groups)
    first = count.cumsum()
    first -= count
    return count, np.arange(group.shape[0], dtype=np.int64) - first[group]


def refill_chains(pool, heads, k, v) -> None:
    """Place distinct keys into empty one-slab chains, as one launch.

    ``heads[i]`` is item ``i``'s head slab, sorted (a chain's items in the
    order they are to be stored); ``k`` / ``v`` are the keys and values in
    the pool's dtypes (``v`` is ``None`` for a set pool).  A chain of
    ``c`` items fills ``ceil(c / Bc)`` whole rows — its head, then the
    slabs :func:`_extend_chains` links in the device's round order — so
    the items are laid out as one dense block of rows, each chain's last
    row padded with empty lanes, and written row by row
    (``kern.fill_rows``).  This is the one row writer of the bulk build,
    the tombstone flush and the rehash.  Slab ids, lanes and every charge
    are those of :func:`insert_batch` on the same items: the item of rank
    ``r`` in its chain resolves at depth ``1 + r // Bc``.
    """
    lane_capacity = pool.lane_capacity
    m = heads.shape[0]
    start = np.flatnonzero(_run_starts(heads))
    chain_heads = heads[start]
    count = np.diff(start, append=m)
    spill = (count - 1) // lane_capacity  # slabs linked behind each head
    new_ids = _extend_chains(pool, chain_heads, np.ones_like(count), spill)
    links = int(new_ids.shape[0])
    # Chain g's rows start after every earlier chain's head and links.
    row_first = np.cumsum(spill) - spill
    row_first += np.arange(start.shape[0], dtype=np.int64)
    rows = np.empty(start.shape[0] + links, dtype=np.int64)
    is_head = np.zeros(rows.shape[0], dtype=bool)
    is_head[row_first] = True
    rows[is_head] = chain_heads
    rows[~is_head] = new_ids  # chain by chain, each in link order
    # Item i of a chain whose first row is block row r sits at flat lane
    # i + (r * Bc - the chain's first item).
    lane = np.repeat(row_first * lane_capacity - start, count)
    lane += np.arange(m, dtype=np.int64)
    kern.fill_rows(pool.keys, rows, lane, k, EMPTY_KEY)
    if v is not None:
        kern.fill_rows(pool.values, rows, lane, v, 0)
    counters = get_counters()
    counters.kernel_launches += 1
    counters.probe_rounds += 1 + int(spill.max())
    # Ranks [j * Bc, (j + 1) * Bc) of a chain resolve j slabs past its head.
    full, rest = np.divmod(count, lane_capacity)
    counters.slab_reads += m + int((lane_capacity * full * (full - 1) // 2 + rest * full).sum())
    counters.slab_writes += m + links


def insert_batch(arena, table_ids, keys, values=None) -> np.ndarray:
    """Insert (table, key[, value]) items; return per-item "newly added".

    Parameters
    ----------
    arena:
        A :class:`repro.slabhash.arena.SlabArena`.
    table_ids, keys, values:
        Parallel arrays.  ``values`` is required for weighted (map) arenas
        and ignored for set arenas.  A table id without a table gets a
        one-bucket table, with no hash coefficients.

    Returns
    -------
    added : np.ndarray of bool
        ``added[i]`` is True iff item ``i`` created a key that was not
        previously in its table *and* item ``i`` is the batch's surviving
        occurrence of that (table, key).  Summing per table therefore gives
        the exact edge-count delta (popc-of-ballot semantics).
    """
    table_ids, keys = checked_items(arena, table_ids, keys)
    n = keys.shape[0]
    if values is not None:
        values = as_int_array(values, "values")
        check_equal_length(("keys", keys), ("values", values))
        if arena.pool.weighted:
            check_in_range(values, 0, 1 << 32, "values")  # the 32-bit lanes must not wrap
    if n == 0:
        return np.empty(0, dtype=bool)
    counters = get_counters()
    counters.kernel_launches += 1
    pool = arena.pool
    weighted = pool.weighted

    # The launch's one gather of the table bases.  A base is a slab id or
    # NULL_SLAB (-1); an item without a table takes its provisional head.
    bases = arena.table_base[table_ids]
    if creates := int(bases.min()) == NULL_SLAB:
        np.putmask(bases, bases == NULL_SLAB, table_ids + pool._bump)

    # Group-major item order; the stable sort keeps launch order in a
    # group.  Intra-batch replace semantics keep the last occurrence per
    # (table, key), which only a group of several items can repeat.
    heads = arena._heads_at(bases, table_ids, keys)
    order = stable_argsort(heads)
    group_heads, group = _groups(heads[order])
    num_groups = old = group_heads.shape[0]
    if creates:  # the new tables' groups close the order; carve their bases
        old = int(group_heads.searchsorted(pool._bump))
        new_ids = group_heads[old:] - pool._bump
        group_heads[old:] = arena._carve(new_ids, np.ones_like(new_ids))
    if num_groups < n:
        order, group = _last_occurrences(order, group, keys)
    k = keys[order].astype(KEY_DTYPE)
    if not weighted:
        v = None
    elif values is None:
        v = np.zeros(k.shape[0], dtype=VALUE_DTYPE)
    else:
        v = values[order].astype(VALUE_DTYPE)

    # (1) Walk every touched chain once and regroup it chain by chain.
    chain_slabs, owner, _ = kern.walk_chains(pool.next_slab, group_heads)
    if chain_slabs.shape[0] == num_groups:
        lengths = np.ones(num_groups, dtype=np.int64)
        chain_ptr = np.arange(num_groups + 1, dtype=np.int64)
        tails = chain_slabs
    else:
        chain_slabs = chain_slabs[stable_argsort(owner)]
        lengths = np.bincount(owner, minlength=num_groups)
        chain_ptr = np.concatenate([[0], np.cumsum(lengths)])
        tails = chain_slabs[chain_ptr[1:] - 1]

    # (2) Read every tail once: its rows feed the hit pass, its occupied
    # count the placement.  A new table's tail is its empty base slab.
    occupied = np.zeros(num_groups, dtype=np.int64)
    tail_rows, occupied[:old] = kern.read_tails(pool.keys, tails[:old])

    # (3) One hit/replace pass over the (item, chain-slab) pairs; a new
    # table's items, which close the order, have nothing to hit.
    m = int(group.searchsorted(old)) if creates else group.shape[0]
    chains = (chain_slabs, chain_ptr, tail_rows, occupied, group[:m], k[:m])
    depth = np.zeros(group.shape[0], dtype=np.int64)
    if weighted:
        depth[:m] = kern.insert_round_map(pool.keys, pool.values, *chains, v[:m])
    else:
        depth[:m] = kern.insert_round_set(pool.keys, *chains)
    misses = (depth == 0).nonzero()[0]
    all_missed = misses.shape[0] == depth.shape[0]
    writes = int(depth.shape[0] if weighted else misses.shape[0])  # a hit rewrites a value

    # (4) Place the misses behind each tail's occupied lanes.
    if misses.size:
        if not all_missed:
            group, k, v = group[misses], k[misses], v[misses] if weighted else None
        beyond, links = _place_at_tails(pool, tails, lengths, occupied, group, k, v)
        depth[misses] = lengths[group] + beyond
        writes += links

    counters.probe_rounds += int(depth.max())
    counters.slab_reads += int(depth.sum())
    counters.slab_writes += writes
    added = np.zeros(n, dtype=bool)
    added[order if all_missed else order[misses]] = True
    return added
