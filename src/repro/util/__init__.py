"""Shared low-level helpers used across the repro package.

This subpackage intentionally contains no graph- or hash-table-specific
logic; it provides the vectorized building blocks (group-by / segmented
operations, hashing, validation) that the simulated-GPU kernels are written
in terms of.
"""

from repro.util.errors import ReproError, ValidationError
from repro.util.groupby import (
    group_starts,
    last_occurrence_mask,
    first_occurrence_mask,
    rank_within_group,
    segmented_sum,
)
from repro.util.hashing import UniversalHashFamily
from repro.util.validation import (
    as_int_array,
    check_equal_length,
    check_in_range,
)

__all__ = [
    "ReproError",
    "ValidationError",
    "UniversalHashFamily",
    "as_int_array",
    "check_equal_length",
    "check_in_range",
    "first_occurrence_mask",
    "group_starts",
    "last_occurrence_mask",
    "rank_within_group",
    "segmented_sum",
]
