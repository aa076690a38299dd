"""Layout constants for the slab hash.

A slab is 128 bytes = 32 four-byte words (one warp-coalesced transaction;
see ``WARP_SIZE`` in :mod:`repro.gpusim.warp`).  The concurrent *map* packs 15 key/value
pairs (30 words) plus a next pointer into a slab; the concurrent *set*
packs 30 keys plus a next pointer (Section IV-A2 of the paper gives the
bucket capacities 15 and 30).

Keys are 32-bit vertex ids.  Two values are reserved:

- ``EMPTY_KEY`` (0xFFFFFFFF): a lane that has never held a key.  Because
  insertions never overwrite tombstones, empty lanes exist only in the tail
  slab of a bucket chain — the kernels rely on this to terminate searches
  early.
- ``TOMBSTONE_KEY`` (0xFFFFFFFE): a deleted key.  Skipped by queries and by
  insertions (Section IV-C2), flushed only by explicit compaction.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "EMPTY_KEY",
    "TOMBSTONE_KEY",
    "MAX_KEY",
    "SLAB_KV_CAPACITY",
    "SLAB_KEY_CAPACITY",
    "NULL_SLAB",
    "KEY_DTYPE",
    "VALUE_DTYPE",
]

#: Sentinel for a never-used lane.
EMPTY_KEY: int = 0xFFFFFFFF

#: Sentinel for a deleted lane (never overwritten by inserts).
TOMBSTONE_KEY: int = 0xFFFFFFFE

#: Largest key a caller may store (both sentinels excluded).
MAX_KEY: int = TOMBSTONE_KEY - 1

#: Key/value pairs per slab in the concurrent-map variant.
SLAB_KV_CAPACITY: int = 15

#: Keys per slab in the concurrent-set variant.
SLAB_KEY_CAPACITY: int = 30

#: Null "pointer" terminating a bucket chain.
NULL_SLAB: int = -1

#: Storage dtypes (32-bit words, as on the device).
KEY_DTYPE = np.uint32
VALUE_DTYPE = np.uint32
