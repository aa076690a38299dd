"""Simulated-GPU substrate.

The paper's artifact is CUDA on a TITAN V.  This subpackage supplies the
equivalents the rest of the library is written against:

- :mod:`repro.gpusim.counters` — kernel cost counters (slab reads/writes,
  atomics, allocations, probe rounds, sorted elements) that act as the
  hardware-independent performance model;
- :mod:`repro.gpusim.warp` — 32-lane warp-primitive emulation
  (``ballot``/``ffs``/``shuffle``/``popc``);
- :mod:`repro.gpusim.wcws` — a literal Warp-Cooperative Work Sharing engine
  used as the *reference semantics* for the vectorized kernels;
- :mod:`repro.gpusim.memory` — growable device buffers.
"""

from repro.gpusim.counters import get_counters
from repro.gpusim.memory import GrowableArray
from repro.gpusim.warp import (
    WARP_SIZE,
    ballot,
    find_first_set,
    popc,
    shuffle_idx,
)

__all__ = [
    "WARP_SIZE",
    "GrowableArray",
    "ballot",
    "find_first_set",
    "get_counters",
    "popc",
    "shuffle_idx",
]
