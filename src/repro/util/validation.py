"""Argument validation helpers, and the one id rule (:func:`checked_ids`).

Kernels validate once at the public-API boundary and then assume clean
inputs internally, so the hot loops carry no checks.  Edge-batch ids are
range-checked by :func:`checked_ids` in the backend template under a
:class:`repro.api.Graph`, which only coerces — under a ``ShardedGraph``,
by the router's template (it routes by id) plus each shard's — and by a
:class:`repro.api.CSRSnapshot`'s reads.

Where each check of one slab-hash ``Graph.insert_edges`` lives:

- **facade** (``normalize_batch``): coercion, equal lengths, weights on an
  unweighted graph, self-loops dropped (their ids range-checked there,
  as no later layer sees them);
- **backend template** (``GraphBackend.insert_edges``): :func:`checked_ids`
  on ``src`` / ``dst``, weights against ``_weight_range``, self-loops
  dropped for a direct caller;
- **arena** (``SlabArena.insert``): equal lengths, table ids and keys in
  range, values in the 32-bit lanes; the launch carves the tables its one
  gather of the table bases finds missing, past ``create_tables``' checks,
  which hold there by construction.

A ``Graph.bulk_build`` on any backend is checked whole by the template
(``GraphBackend.bulk_build``): an empty graph, :func:`checked_ids` against
the graph's own vertex space (a build never grows it) and the weights,
before its one version step; under a ``ShardedGraph``, by the router's
template before any shard applies its share.

Each range check on an int64 array from 0 is one reduction
(:func:`check_in_range`).
"""

from __future__ import annotations

import numpy as np

from repro.util.errors import ValidationError

__all__ = ["as_int_array", "check_equal_length", "check_in_range", "checked_ids"]

# Above this bound an unsigned view can no longer tell a negative int64 apart.
_INT64_LIMIT = 1 << 63


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
    if not named_arrays:
        return 0
    n = named_arrays[0][1].shape[0]
    for _, arr in named_arrays:
        if arr.shape[0] != n:
            lengths = {name: a.shape[0] for name, a in named_arrays}
            raise ValidationError(f"length mismatch: {lengths}")
    return n


def check_in_range(arr: np.ndarray, lo: int, hi: int, name: str = "array") -> None:
    """Check every element is in ``[lo, hi)``; O(n) with no temporaries.

    An int64 array checked from 0 takes one reduction: viewed unsigned, a
    negative value is huge, so ``max < hi`` covers both ends.  Any other
    bound or dtype takes ``min`` and ``max``.  The observed range is read
    for the message only when the check fails.
    """
    if arr.size == 0:
        return
    if lo == 0 and hi <= _INT64_LIMIT and arr.dtype == np.int64:
        if int(arr.view(np.uint64).max()) < hi:
            return
    elif lo <= int(arr.min()) and int(arr.max()) < hi:
        return
    raise ValidationError(
        f"{name} values must be in [{lo}, {hi}); "
        f"observed range [{int(arr.min())}, {int(arr.max())}]"
    )


def checked_ids(num_vertices: int, **columns) -> tuple[np.ndarray, ...]:
    """The id rule of every batched operation, stated once.

    Each named column (``src=`` / ``dst=`` for a pair batch, ``vertex_ids=``
    for a vertex batch) is coerced to a contiguous 1-D int64 array
    (non-integral, boolean and non-numeric values are rejected, never
    truncated), all columns must share one length, and every id must lie
    in ``[0, num_vertices)``.  Returns the clean arrays in argument order.
    """
    arrays = tuple(as_int_array(column, name) for name, column in columns.items())
    check_equal_length(*zip(columns, arrays))
    for name, array in zip(columns, arrays):
        check_in_range(array, 0, num_vertices, name)
    return arrays


def _checked_id(value, bound: int | None, name: str, lo: int = 0) -> int:
    """The scalar form of :func:`checked_ids`: exactly one integral value
    in ``[lo, bound)`` — ``bound=None`` for a count such as k-core's ``k``
    — with fractional, boolean and non-numeric values rejected, never
    truncated."""
    ids = as_int_array(value, name)
    if ids.shape[0] != 1:
        raise ValidationError(f"{name} must be a single value, got {ids.shape[0]} values")
    checked = int(ids[0])
    if checked < lo or (bound is not None and checked >= bound):
        upper = "inf" if bound is None else bound
        raise ValidationError(f"{name} must be in [{lo}, {upper}), got {checked}")
    return checked
