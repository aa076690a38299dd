"""Warp-level primitive emulation.

These functions mirror the CUDA intrinsics the paper's Algorithms 1 and 2
are written in, operating on *lane vectors*: NumPy arrays of length 32
(``WARP_SIZE``) where element ``i`` is lane ``i``'s private value.

They are used by the :mod:`repro.gpusim.wcws` reference engine, which
executes the paper's pseudocode literally so the fast vectorized kernels
have an executable specification to be tested against.
"""

from __future__ import annotations

import numpy as np

__all__ = ["WARP_SIZE", "ballot", "find_first_set", "popc", "shuffle_idx"]

WARP_SIZE: int = 32
FULL_MASK: int = (1 << WARP_SIZE) - 1


def ballot(predicate: np.ndarray) -> int:
    """``__ballot_sync``: pack one bit per lane into a 32-bit mask.

    ``predicate`` is a boolean lane vector; bit ``i`` of the result is lane
    ``i``'s predicate.
    """
    pred = np.asarray(predicate, dtype=bool)
    if pred.shape != (WARP_SIZE,):
        raise ValueError(f"predicate must be a lane vector of shape ({WARP_SIZE},)")
    bits = np.left_shift(np.ones(WARP_SIZE, dtype=np.uint64), np.arange(WARP_SIZE, dtype=np.uint64))
    return int(np.sum(bits[pred], dtype=np.uint64))


def popc(mask: int) -> int:
    """``__popc``: population count of a 32-bit mask."""
    return int(bin(mask & FULL_MASK).count("1"))


def find_first_set(mask: int) -> int:
    """``__ffs`` semantics used in the paper: index of the lowest set bit.

    Returns -1 when the mask is empty (CUDA's ``__ffs`` returns 0; the
    pseudocode treats an empty work queue as loop exit, which we express
    with the -1 sentinel).
    """
    mask &= FULL_MASK
    if mask == 0:
        return -1
    return (mask & -mask).bit_length() - 1


def shuffle_idx(values: np.ndarray, src_lane: int) -> np.ndarray:
    """``__shfl_sync``: broadcast lane ``src_lane``'s value to all lanes."""
    vals = np.asarray(values)
    if vals.shape[0] != WARP_SIZE:
        raise ValueError(f"values must be a lane vector of shape ({WARP_SIZE}, ...)")
    return np.broadcast_to(vals[src_lane], vals.shape).copy()
