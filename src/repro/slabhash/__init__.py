"""SlabHash: the GPU hash table underlying the paper's dynamic graph.

A *slab* is one 128-byte memory unit — exactly one coalesced warp
transaction on the simulated device.  A hash table is an array of bucket
chains; each chain is a singly linked list of slabs.  Two variants exist
(Section IV):

- **concurrent map** — 15 key/value pairs per slab (``SLAB_KV_CAPACITY``),
  used when edges carry weights/metadata;
- **concurrent set** — 30 keys per slab (``SLAB_KEY_CAPACITY``), used when
  only destinations matter (e.g. triangle counting).

This subpackage implements a *multi-table arena*: all hash tables of a
graph live in one structure-of-arrays slab pool so batched operations
spanning thousands of per-vertex tables run as single vectorized kernels.
A standalone map or set is a one-table :class:`SlabArena`.
"""

from repro.slabhash.arena import SlabArena, SlabPool
from repro.slabhash.constants import (
    EMPTY_KEY,
    MAX_KEY,
    SLAB_KEY_CAPACITY,
    SLAB_KV_CAPACITY,
    TOMBSTONE_KEY,
)

__all__ = [
    "EMPTY_KEY",
    "MAX_KEY",
    "SLAB_KEY_CAPACITY",
    "SLAB_KV_CAPACITY",
    "SlabArena",
    "SlabPool",
    "TOMBSTONE_KEY",
]
