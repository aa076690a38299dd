"""Argument validation helpers.

Kernels validate once at the public-API boundary and then assume clean
inputs internally, so the hot loops carry no checks.  Edge-batch ids are
range-checked (:func:`repro.api.backend.checked_ids`) by the backend
template under a :class:`repro.api.Graph`, which only coerces — under a
``ShardedGraph``, by the router's template (it routes by id) plus each
shard's.
"""

from __future__ import annotations

import numpy as np

from repro.util.errors import ValidationError

__all__ = ["as_int_array", "check_equal_length", "check_in_range"]


def as_int_array(x, name: str = "array", dtype=np.int64) -> np.ndarray:
    """Coerce ``x`` to a contiguous 1-D integer array of ``dtype``.

    Accepts lists, scalars, and arrays; rejects floats with fractional parts
    and anything not 1-D after ``atleast_1d``.

    Already-clean arrays (1-D, contiguous, right dtype) pass through
    untouched, so a batch the :class:`repro.api.Graph` facade coerced
    costs nothing to coerce again at the backend, which range-checks it.
    """
    if (
        isinstance(x, np.ndarray)
        and x.dtype == dtype
        and x.ndim == 1
        and x.flags.c_contiguous
    ):
        return x
    arr = np.atleast_1d(np.asarray(x))
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be 1-D, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        if np.issubdtype(arr.dtype, np.floating):
            if not np.all(arr == np.floor(arr)):
                raise ValidationError(f"{name} contains non-integral values")
        else:
            raise ValidationError(f"{name} has non-numeric dtype {arr.dtype}")
    return np.ascontiguousarray(arr, dtype=dtype)


def check_equal_length(*named_arrays: tuple[str, np.ndarray]) -> int:
    """Check all arrays share one length; return it."""
    lengths = {name: arr.shape[0] for name, arr in named_arrays}
    unique = set(lengths.values())
    if len(unique) > 1:
        raise ValidationError(f"length mismatch: {lengths}")
    return next(iter(unique)) if unique else 0


def check_in_range(arr: np.ndarray, lo: int, hi: int, name: str = "array") -> None:
    """Check every element is in ``[lo, hi)``; O(n) with no temporaries."""
    if arr.size == 0:
        return
    mn, mx = int(arr.min()), int(arr.max())
    if mn < lo or mx >= hi:
        raise ValidationError(f"{name} values must be in [{lo}, {hi}); observed range [{mn}, {mx}]")
