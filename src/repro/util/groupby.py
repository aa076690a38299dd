"""Vectorized ordering / group-by / segmented primitives.

The batched kernels in :mod:`repro.slabhash` and the baselines all follow the
same pattern a GPU kernel does: sort work items by a key (the slab, page, or
vertex they target), then let each "group" of items cooperate.  These helpers
implement that pattern with NumPy so no per-item Python loop ever runs in a
hot path (see the hpc-parallel guide: vectorize, avoid copies, keep arrays
contiguous).

Every ordering on the update path goes through two primitives built on
NumPy's *value* sort of int64, which is vectorised (AVX-512 / AVX2) where
its stable argsort and ``np.unique`` are not:

* :func:`stable_argsort` — ``np.argsort(keys, kind="stable")``, computed by
  value-sorting ``(key << b) | index``: the index in the low ``b`` bits
  breaks ties in input order, which is what "stable" means.
* :func:`sorted_unique` — ``np.unique(keys)``, computed as a value sort plus
  an adjacent-difference mask.

The occurrence masks are :func:`stable_argsort` plus run edges: one sort per
call.  ``docs/performance.md`` ("Ordering primitives") has the measurements;
``tests/test_util_groupby.py`` keeps ``np.unique`` / ``kind="stable"`` out of
the update-path packages.

All functions operate on 1-D integer arrays and are allocation-conscious:
they return views or freshly-computed small arrays, never modify inputs.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "first_occurrence_mask",
    "group_starts",
    "last_occurrence_mask",
    "last_occurrence_order",
    "ragged_arange",
    "rank_within_group",
    "segmented_sum",
    "sorted_unique",
    "stable_argsort",
]


def stable_argsort(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` at value-sort speed.

    Packs ``(key << b) | index`` with ``b = (n - 1).bit_length()`` into one
    int64 per item, sorts the values in place and masks the keys back off.
    Equal keys compare by their index, so ties keep input order and the
    result is bit-identical to NumPy's stable argsort.  Keys that are
    negative, need more than ``63 - b`` bits, or are not integers cannot be
    packed; those take NumPy's stable argsort directly.
    """
    n = keys.shape[0]
    if n == 0 or keys.dtype.kind not in "iu":  # not an integer type
        return np.argsort(keys, kind="stable")
    b = (n - 1).bit_length()
    packed = keys.astype(np.int64)  # the one copy; every step below is in place
    # Viewed unsigned, a negative key is huge: one reduction checks both ends.
    if int(packed.view(np.uint64).max()) >> (63 - b):
        return np.argsort(keys, kind="stable")
    packed <<= b
    packed |= np.arange(n, dtype=np.int64)
    packed.sort()
    packed &= (1 << b) - 1
    return packed


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique(keys)`` for a 1-D array: value sort + adjacent-difference mask."""
    ordered = np.sort(keys)
    starts = _run_starts(ordered)
    return ordered if starts.all() else ordered[starts]


def _run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Mask of the first element of every equal run of a *sorted* array."""
    starts = np.empty(sorted_keys.shape[0], dtype=bool)
    starts[:1] = True  # a slice, so the empty array needs no branch
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=starts[1:])
    return starts


def group_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Indices where each group begins in a *sorted* key array.

    ``group_starts([3, 3, 5, 9, 9, 9]) == [0, 2, 3]``.
    """
    return np.flatnonzero(_run_starts(sorted_keys))


def ragged_arange(lengths: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(l)`` for each l in lengths, vectorized."""
    lengths = np.asarray(lengths, dtype=np.int64)
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total, dtype=np.int64) - np.repeat(ends - lengths, lengths)


def rank_within_group(sorted_keys: np.ndarray) -> np.ndarray:
    """0-based rank of each element within its group, for sorted keys.

    ``rank_within_group([3, 3, 5, 9, 9, 9]) == [0, 1, 0, 0, 1, 2]``.

    This is the vectorized analogue of a warp lane computing its position in
    a coalesced same-destination group (Algorithm 1, lines 7-9).
    """
    starts = group_starts(sorted_keys)
    return ragged_arange(np.diff(starts, append=sorted_keys.shape[0]))


def segmented_sum(values: np.ndarray, group_ids: np.ndarray, num_groups: int) -> np.ndarray:
    """Sum ``values`` per dense group id (like a segmented reduction).

    ``group_ids`` need not be sorted.  Equivalent to ``np.bincount`` with
    weights but keeps an integer dtype for integer inputs.
    """
    if np.issubdtype(values.dtype, np.integer) or values.dtype == bool:
        out = np.bincount(group_ids, weights=values.astype(np.float64), minlength=num_groups)
        return out.astype(np.int64)
    return np.bincount(group_ids, weights=values, minlength=num_groups)


def _occurrence_mask(keys: np.ndarray, last: bool) -> np.ndarray:
    """Mask of each distinct key's last (else first) occurrence."""
    order = stable_argsort(keys)
    edge = _run_starts(keys[order])
    if last:  # a run ends where the next one starts; slices, so empty needs no branch
        edge[:-1] = edge[1:]
        edge[-1:] = True
    mask = np.zeros(keys.shape[0], dtype=bool)
    mask[order[edge]] = True
    return mask


def last_occurrence_mask(keys: np.ndarray) -> np.ndarray:
    """Boolean mask selecting the *last* occurrence of each distinct key.

    Order of first appearance is irrelevant; "last" means highest index.
    Used to realize the paper's replace semantics within a batch: when a
    batch contains the same edge several times with different weights, only
    the most recent one survives (Section IV-C1).

    Implemented with a stable sort so ties preserve input order.
    """
    return _occurrence_mask(keys, last=True)


def last_occurrence_order(keys: np.ndarray) -> np.ndarray:
    """Index of each distinct key's *last* occurrence, in ascending key
    order: the rows a replace-semantics batch keeps, sorted (one sort)."""
    order = stable_argsort(keys)
    end = _run_starts(keys[order])
    end[:-1] = end[1:]
    end[-1:] = True
    return order[end]


def first_occurrence_mask(keys: np.ndarray) -> np.ndarray:
    """Boolean mask selecting the *first* occurrence of each distinct key."""
    return _occurrence_mask(keys, last=False)
