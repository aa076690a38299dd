"""Slab storage pool and the multi-table slab-hash arena.

Layout (structure-of-arrays; one row per slab):

- ``keys``   — ``(capacity, Bc)`` uint32 lane matrix (``Bc`` = 15 for the
  map variant, 30 for the set variant);
- ``values`` — ``(capacity, 15)`` uint32 lane matrix (map variant only);
- ``next``   — ``(capacity,)`` int64 successor slab index, ``NULL_SLAB``
  terminated.

A SoA layout keeps every kernel a sequence of contiguous gathers/scatters —
the NumPy analogue of coalesced 128-byte transactions (hpc-parallel guide:
prefer views, contiguous access, no per-item Python).

Allocation mirrors SlabAlloc: *base* slabs for a table's buckets are carved
in one contiguous bump allocation (Section IV-A2: "statically allocating
all the memory required for the initial buckets in bulk"), while overflow
slabs come from a free-list allocator and are linked to chain tails.  Only
vertex deletion returns overflow slabs to the free list (Section IV-D2).
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.counters import get_counters
from repro.gpusim.memory import GrowableArray
from repro.slabhash.constants import (
    EMPTY_KEY,
    KEY_DTYPE,
    MAX_KEY,
    NULL_SLAB,
    SLAB_KEY_CAPACITY,
    SLAB_KV_CAPACITY,
    TOMBSTONE_KEY,
    VALUE_DTYPE,
)
from repro.util.errors import ValidationError
from repro.util.groupby import ragged_arange, sorted_unique
from repro.util.hashing import PRIME, UniversalHashFamily
from repro.util.validation import as_int_array, check_in_range

__all__ = ["SlabPool", "SlabArena"]


class SlabPool:
    """Growable slab storage plus a free-list allocator.

    Parameters
    ----------
    weighted:
        If True, build the concurrent-map layout (15 KV pairs per slab and a
        parallel value matrix); otherwise the concurrent-set layout (30 keys
        per slab, no values).
    initial_capacity:
        Number of slabs to preallocate; the pool doubles as needed.
    """

    def __init__(self, weighted: bool, initial_capacity: int = 64) -> None:
        self.weighted = bool(weighted)
        self.lane_capacity = SLAB_KV_CAPACITY if weighted else SLAB_KEY_CAPACITY
        cap = max(int(initial_capacity), 1)
        self._keys = GrowableArray(cap, KEY_DTYPE, width=self.lane_capacity, fill_value=EMPTY_KEY)
        self._next = GrowableArray(cap, np.int64, fill_value=NULL_SLAB)
        self._values = (
            GrowableArray(cap, VALUE_DTYPE, width=self.lane_capacity, fill_value=0)
            if weighted
            else None
        )
        self._bump = 0  # next never-used slab
        self._free = np.empty(0, dtype=np.int64)  # stack of recycled slab ids

    # -- storage views -----------------------------------------------------

    @property
    def keys(self) -> np.ndarray:
        """Full-capacity key lane matrix (rows beyond allocation are junk)."""
        return self._keys.data

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            raise ValidationError("set-variant pool has no values")
        return self._values.data

    @property
    def next_slab(self) -> np.ndarray:
        return self._next.data

    @property
    def num_allocated(self) -> int:
        """Slabs currently owned by tables (bump minus free-list size)."""
        return self._bump - self._free.shape[0]

    @property
    def allocated_bytes(self) -> int:
        """Device bytes consumed by slabs currently owned by tables.

        Each slab is 128 bytes regardless of variant (the set variant packs
        more keys into the same footprint).
        """
        return self.num_allocated * 128

    # -- allocation --------------------------------------------------------

    def allocate(self, n: int) -> np.ndarray:
        """Allocate ``n`` slabs (freshly zeroed) and return their ids.

        Recycled slabs are preferred; the remainder comes from the bump
        pointer.  Each allocation is charged as one simulated atomic
        (SlabAlloc hands out slabs with atomic tickets).
        """
        n = int(n)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        counters = get_counters()
        counters.slabs_allocated += n
        counters.atomics += n
        from_free = min(n, self._free.shape[0])
        recycled = self._free[self._free.shape[0] - from_free :]
        self._free = self._free[: self._free.shape[0] - from_free]
        fresh_n = n - from_free
        fresh = np.arange(self._bump, self._bump + fresh_n, dtype=np.int64)
        self._bump += fresh_n
        self._ensure(self._bump)
        ids = np.concatenate([recycled, fresh]) if from_free else fresh
        # Reset recycled rows (fresh rows are already in the fill state).
        if from_free:
            self._keys.data[recycled] = EMPTY_KEY
            self._next.data[recycled] = NULL_SLAB
            if self._values is not None:
                self._values.data[recycled] = 0
        return ids

    def allocate_contiguous(self, n: int) -> int:
        """Bulk-allocate ``n`` contiguous slabs; return the first id.

        Used for base slabs: the paper stores a table's buckets at
        consecutive addresses so a single base pointer plus the bucket index
        addresses any bucket.
        """
        n = int(n)
        counters = get_counters()
        counters.slabs_allocated += n
        counters.atomics += 1  # one bulk reservation
        start = self._bump
        self._bump += n
        self._ensure(self._bump)
        return start

    def free(self, ids: np.ndarray) -> None:
        """Return slabs to the free list (no validation of double frees in
        the hot path; tests cover the callers' discipline)."""
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size == 0:
            return
        counters = get_counters()
        counters.slabs_freed += int(ids.size)
        counters.atomics += int(ids.size)
        self._free = np.concatenate([self._free, ids])

    def _ensure(self, needed: int) -> None:
        self._keys.ensure(needed)
        self._next.ensure(needed)
        if self._values is not None:
            self._values.ensure(needed)


class SlabArena:
    """Many slab-hash tables sharing one :class:`SlabPool`.

    A table is identified by a dense integer id (for the graph, the vertex
    id).  Per-table metadata:

    - ``table_base[t]``  — first base-slab id (buckets are contiguous), or
      ``NULL_SLAB`` if the table was never created;
    - ``table_buckets[t]`` — bucket count;
    - ``hash_family`` — ``(a, b)`` per table, set when ``t`` is created with
      more than one bucket (a one-bucket table never hashes).

    All operations are *batched*: they take parallel arrays of table ids and
    keys and run as vectorized passes over the touched chains (see
    :mod:`repro.slabhash.insert` etc. for the kernel mechanics).
    """

    def __init__(
        self,
        num_tables: int,
        weighted: bool,
        initial_slab_capacity: int = 64,
        hash_seed: int = 0x5AB0,
    ) -> None:
        if num_tables < 0:
            raise ValidationError("num_tables must be non-negative")
        self.pool = SlabPool(weighted, initial_capacity=initial_slab_capacity)
        self.num_tables = int(num_tables)
        self.table_base = np.full(max(num_tables, 1), NULL_SLAB, dtype=np.int64)[:num_tables]
        self.table_buckets = np.zeros(num_tables, dtype=np.int64)
        self.hash_family = UniversalHashFamily(num_tables, seed=hash_seed)

    # -- table lifecycle -----------------------------------------------------

    def grow_tables(self, new_num_tables: int) -> None:
        """Extend the table-id space, preserving existing tables."""
        if new_num_tables <= self.num_tables:
            return
        extra = new_num_tables - self.num_tables
        self.table_base = np.concatenate(
            [self.table_base, np.full(extra, NULL_SLAB, dtype=np.int64)]
        )
        self.table_buckets = np.concatenate([self.table_buckets, np.zeros(extra, dtype=np.int64)])
        self.hash_family.grow(new_num_tables)
        self.num_tables = int(new_num_tables)

    def create_tables(self, table_ids: np.ndarray, num_buckets: np.ndarray) -> None:
        """Create tables with the given bucket counts (:meth:`_carve`).

        A table id requested twice is refused before any slab is carved:
        the second run's bases would orphan the first's.
        """
        table_ids = as_int_array(table_ids, "table_ids")
        num_buckets = as_int_array(num_buckets, "num_buckets")
        if table_ids.shape != num_buckets.shape:
            raise ValidationError("table_ids and num_buckets must have equal length")
        if table_ids.size == 0:
            return
        check_in_range(table_ids, 0, self.num_tables, "table_ids")
        if int(num_buckets.min()) < 1:
            raise ValidationError("every table needs at least one bucket")
        # A base is a slab id or NULL_SLAB (-1): all are NULL iff the max is.
        if int(self.table_base[table_ids].max()) != NULL_SLAB:
            raise ValidationError("a requested table already exists")
        # Both graph paths pass ascending ids, which pay one comparison.
        increasing = (table_ids[1:] > table_ids[:-1]).all()
        if not increasing and sorted_unique(table_ids).size != table_ids.size:
            raise ValidationError("a table id is requested more than once")
        self._carve(table_ids, num_buckets)

    def _carve(self, table_ids: np.ndarray, num_buckets: np.ndarray) -> np.ndarray:
        """Carve the bases of ``table_ids`` (distinct, without tables, as the
        caller checked) from one contiguous reservation — the paper's bulk
        static allocation, no per-table ``cudaMalloc`` — and return them;
        only a table of several buckets gets hash coefficients."""
        total = int(num_buckets.sum())
        start = self.pool.allocate_contiguous(total)
        if total == table_ids.size:  # one bucket each: consecutive bases
            offsets = np.arange(start, start + total, dtype=np.int64)
        else:
            offsets = np.concatenate([[0], np.cumsum(num_buckets)[:-1]]) + start
        self.table_base[table_ids] = offsets
        self.table_buckets[table_ids] = num_buckets
        if total > table_ids.size:  # some table hashes: give it its (a, b)
            self.hash_family.assign(table_ids[num_buckets > 1])
        return offsets

    def has_table(self, table_ids: np.ndarray) -> np.ndarray:
        table_ids = as_int_array(table_ids, "table_ids")
        return self.table_base[table_ids] != NULL_SLAB

    @staticmethod
    def buckets_for(expected_size, load_factor: float, lane_capacity: int) -> np.ndarray:
        """Bucket count for an expected entry count and load factor.

        ``ceil(|A_u| / (lf * Bc))`` per Section IV-A2, minimum one bucket.
        """
        expected = np.atleast_1d(np.asarray(expected_size, dtype=np.float64))
        buckets = np.ceil(expected / (float(load_factor) * lane_capacity))
        return np.maximum(buckets, 1).astype(np.int64)

    # -- batched kernels (implemented in sibling modules) ---------------------

    def insert(self, table_ids, keys, values=None) -> np.ndarray:
        """Batched insert-with-replace, one-bucket tables created where
        missing; see :func:`repro.slabhash.insert.insert_batch`."""
        from repro.slabhash.insert import insert_batch

        return insert_batch(self, table_ids, keys, values)

    def delete(self, table_ids, keys) -> np.ndarray:
        """Batched tombstone delete; see :func:`repro.slabhash.delete.delete_batch`."""
        from repro.slabhash.delete import delete_batch

        return delete_batch(self, table_ids, keys)

    def search(self, table_ids, keys):
        """Batched membership probe; see :func:`repro.slabhash.search.search_batch`."""
        from repro.slabhash.search import search_batch

        return search_batch(self, table_ids, keys)

    def iterate(self, table_ids):
        """Gather all live entries of the given tables; see
        :func:`repro.slabhash.iterate.iterate_tables`."""
        from repro.slabhash.iterate import iterate_tables

        return iterate_tables(self, table_ids)

    def clear_tables(self, table_ids) -> None:
        """Empty tables and free their overflow slabs (vertex deletion).

        Base slabs are reset to empty but retained ("statically allocated
        memory is not reclaimed", Section IV-D2); chain slabs go back to the
        allocator.
        """
        from repro.slabhash.iterate import clear_tables

        clear_tables(self, table_ids)

    def flush_tombstones(self, table_ids) -> None:
        """Compact tables in place: drop tombstones, refill densely.

        The paper notes tombstones "can later be completely flushed out of
        the data structure, if required" — this is that optional pass.
        """
        from repro.slabhash.iterate import flush_tombstones

        flush_tombstones(self, table_ids)

    # -- chain geometry (used by kernels and stats) ----------------------------

    def bucket_heads(self, table_ids: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """Head slab id for each (table, key) pair; a one-bucket table's
        (Section III-b) only bucket is 0, so its pairs skip the hash."""
        return self._heads_at(self.table_base[table_ids], table_ids, keys)

    def _heads_at(self, bases: np.ndarray, table_ids: np.ndarray, keys: np.ndarray):
        """:meth:`bucket_heads` from the tables' gathered ``bases`` (an
        array the caller owns: the bucket offsets are added in place); a
        table of one bucket, or of none (not carved yet), does not hash."""
        buckets = self.table_buckets[table_ids]
        if not buckets.size or int(buckets.max()) <= 1:  # no pair hashes
            return bases
        hashed = np.flatnonzero(buckets > 1)
        if hashed.shape[0] == bases.shape[0]:
            bases += self.hash_family.bucket(table_ids, keys, buckets)
        else:
            bases[hashed] += self.hash_family.bucket(
                table_ids[hashed], keys[hashed], buckets[hashed]
            )
        return bases

    def table_slabs(self, table_ids: np.ndarray):
        """All slab ids belonging to the given tables.

        Returns ``(slab_ids, owner_pos)`` where ``owner_pos[i]`` indexes
        into ``table_ids``; the base slabs come first, one per bucket.
        """
        from repro.slabhash.iterate import collect_table_slabs

        return collect_table_slabs(self, table_ids)[:2]

    # -- debug invariants ------------------------------------------------------

    def check_invariants(self, dense=None) -> None:
        """Verify the structure the batched kernels take for granted.

        - every chain stays inside the pool and ends (no cycle), and no
          slab is reachable from two buckets;
        - empty lanes are the *end* of a chain: only its last slab has
          any, and there they sit above every occupied lane — which is
          what lets a search or delete round test a slab for an empty
          lane by reading its last lane alone and stop the walk there
          (``kernels.reference._probe_round``), ``read_tails`` take a
          tail's occupied-lane count from its first empty lane, and
          inserts place misses arithmetically behind those lanes;
        - the free list holds no slab twice and none that a table owns;
        - no slab is lost: the slabs the tables reach plus the free list
          are every slab the bump pointer has handed out;
        - every table with more than one bucket has its hash coefficients,
          ``a`` in ``[1, p)`` and ``b`` in ``[0, p)``;
        - with ``dense`` (table ids, e.g. the ones just flushed or rehashed):
          those tables hold no tombstone and no wholly empty overflow slab,
          so every bucket chain is exactly ``max(1, ceil(live / Bc))`` slabs.

        O(pool) and charges nothing to the device model; raises
        :class:`AssertionError`.  Runs after every
        :class:`~repro.core.vertex_dict.VertexDictionary` mutation when
        its debug switch is on.
        """
        pool = self.pool
        bump = pool._bump
        tables = np.flatnonzero(self.table_base != NULL_SLAB)
        buckets = self.table_buckets[tables]
        hashed = tables[buckets > 1]
        a, b = self.hash_family._a[hashed], self.hash_family._b[hashed]
        if ((a < 1) | (a >= PRIME) | (b < 0) | (b >= PRIME)).any():
            raise AssertionError("a table with several buckets has no hash coefficients")
        frontier = np.repeat(self.table_base[tables], buckets) + ragged_arange(buckets)
        owner = np.repeat(tables, buckets)
        levels, owners = [], []
        visited = 0
        while frontier.size:
            if frontier.min() < 0 or frontier.max() >= bump:
                raise AssertionError("a chain points outside the pool")
            levels.append(frontier)
            owners.append(owner)
            visited += frontier.size
            if visited > bump:
                break  # more visits than slabs: a cycle, caught below
            nxt = pool.next_slab[frontier]
            frontier, owner = nxt[nxt != NULL_SLAB], owner[nxt != NULL_SLAB]
        slabs = np.concatenate(levels) if levels else np.empty(0, dtype=np.int64)
        if np.unique(slabs).size != slabs.size:
            raise AssertionError("a slab is reachable twice (shared between chains, or a cycle)")

        empty = pool.keys[slabs] == KEY_DTYPE(EMPTY_KEY)
        n_empty = empty.sum(axis=1)
        lanes = np.arange(pool.lane_capacity)
        misplaced = (empty != (lanes >= (pool.lane_capacity - n_empty)[:, None])).any(axis=1)
        misplaced |= (n_empty > 0) & (pool.next_slab[slabs] != NULL_SLAB)
        if misplaced.any():
            raise AssertionError(
                f"empty lane before the end of a chain (slabs {slabs[misplaced][:8].tolist()})"
            )

        if dense is not None and slabs.size:
            mine = np.isin(np.concatenate(owners), dense)
            hollow = n_empty == pool.lane_capacity
            hollow[: int(buckets.sum())] = False  # a head slab may be empty
            if (pool.keys[slabs[mine]] == KEY_DTYPE(TOMBSTONE_KEY)).any() or hollow[mine].any():
                raise AssertionError("a table that must be dense holds a tombstone or a spare slab")

        free = pool._free
        if np.unique(free).size != free.size or np.isin(free, slabs).any():
            raise AssertionError("free list holds a slab twice or one a table still owns")
        lost = bump - slabs.size - free.size
        if lost:
            raise AssertionError(f"{lost} slabs owned by no table and not free")

    # -- scalar reference implementations (the executable specification) ------

    def reference_insert_one(self, table: int, key: int, value: int = 0) -> bool:
        """Chain-walking scalar insert-with-replace; True iff newly added."""
        if key > MAX_KEY:
            raise ValidationError(f"key {key} exceeds MAX_KEY")
        check_in_range(np.array([table], dtype=np.int64), 0, self.num_tables, "table_ids")
        if self.table_base[table] == NULL_SLAB:  # a one-bucket table, as a launch gives
            self._carve(np.array([table]), np.ones(1, dtype=np.int64))
        head = int(self.table_base[table])
        slab = head + self.hash_family.bucket_single(table, key, int(self.table_buckets[table]))
        pool = self.pool
        while True:
            row = pool.keys[slab]
            hit = np.flatnonzero(row == KEY_DTYPE(key))
            if hit.size:
                if pool.weighted:
                    pool.values[slab, hit[0]] = VALUE_DTYPE(value)
                return False
            empty = np.flatnonzero(row == KEY_DTYPE(EMPTY_KEY))
            if empty.size:
                pool.keys[slab, empty[0]] = KEY_DTYPE(key)
                if pool.weighted:
                    pool.values[slab, empty[0]] = VALUE_DTYPE(value)
                return True
            nxt = int(pool.next_slab[slab])
            if nxt == NULL_SLAB:
                new = int(self.pool.allocate(1)[0])
                pool.next_slab[slab] = new
                nxt = new
            slab = nxt

    def reference_delete_one(self, table: int, key: int) -> bool:
        """Chain-walking scalar tombstone delete; True iff key existed."""
        head = int(self.table_base[table])
        if head == NULL_SLAB:
            return False
        slab = head + self.hash_family.bucket_single(table, key, int(self.table_buckets[table]))
        pool = self.pool
        while slab != NULL_SLAB:
            row = pool.keys[slab]
            hit = np.flatnonzero(row == KEY_DTYPE(key))
            if hit.size:
                pool.keys[slab, hit[0]] = KEY_DTYPE(TOMBSTONE_KEY)
                return True
            if np.any(row == KEY_DTYPE(EMPTY_KEY)):
                return False  # empties only at the tail => key absent
            slab = int(pool.next_slab[slab])
        return False
