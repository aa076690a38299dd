"""Growable device buffers.

GPU-resident structures in the paper grow by bulk reallocation (the vertex
dictionary "copies pointers to a new memory location after increasing its
capacity", Section IV-A1).  :class:`GrowableArray` reproduces exactly that
amortized-doubling behaviour and charges the copy to the global counters so
reallocation costs show up in the performance model.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.counters import get_counters

__all__ = ["GrowableArray"]


class GrowableArray:
    """A 1-D or 2-D NumPy array with amortized-doubling growth.

    Only the leading dimension grows.  ``self.data`` exposes the *full*
    capacity; callers track their own logical length (matching how device
    memory pools work — capacity and fill level are separate).
    """

    __slots__ = ("data", "fill_value")

    def __init__(self, capacity: int, dtype, width: int | None = None, fill_value=0) -> None:
        shape = (max(int(capacity), 1),) if width is None else (max(int(capacity), 1), width)
        self.data = np.full(shape, fill_value, dtype=dtype)
        self.fill_value = fill_value

    @property
    def capacity(self) -> int:
        return self.data.shape[0]

    def ensure(self, needed: int) -> None:
        """Grow (geometrically) until capacity >= ``needed``."""
        if needed <= self.capacity:
            return
        new_cap = self.capacity
        while new_cap < needed:
            new_cap *= 2
        new_shape = (new_cap,) + self.data.shape[1:]
        new_data = np.empty(new_shape, dtype=self.data.dtype)
        new_data[: self.capacity] = self.data
        new_data[self.capacity :] = self.fill_value
        get_counters().bytes_copied += int(self.data.nbytes)
        self.data = new_data

    def __len__(self) -> int:
        return self.capacity
