"""Hash functions used by the slab hash tables.

SlabHash (Ashkiani et al., IPDPS 2018) hashes a key into a bucket with a
universal hash ``h(k) = ((a*k + b) mod p) mod num_buckets`` where ``p`` is a
Mersenne-like prime and ``(a, b)`` are drawn per table.  Our graph keeps one
hash table per vertex, so :class:`UniversalHashFamily` vends *vectors* of
coefficients indexed by vertex id, letting a batched kernel hash a whole
batch of (source, destination) pairs in one NumPy expression.
"""

from __future__ import annotations

import numpy as np

__all__ = ["UniversalHashFamily"]

#: A prime larger than any 32-bit key (2**31 - 1, the 8th Mersenne prime).
PRIME: int = (1 << 31) - 1


class UniversalHashFamily:
    """Per-table universal hash coefficients, vectorized over table ids.

    Parameters
    ----------
    num_tables:
        Number of tables (vertices) to vend coefficients for.
    seed:
        Seed for the coefficient generator; fixed seeds give reproducible
        bucket layouts, which the tests rely on.
    """

    __slots__ = ("_a", "_b", "num_tables")

    def __init__(self, num_tables: int, seed: int = 0x5AB0) -> None:
        rng = np.random.default_rng(seed)
        self.num_tables = int(num_tables)
        # a must be nonzero mod p for universality.
        self._a = rng.integers(1, PRIME, size=self.num_tables, dtype=np.int64)
        self._b = rng.integers(0, PRIME, size=self.num_tables, dtype=np.int64)

    def grow(self, new_num_tables: int, seed: int = 0xC0FFEE) -> None:
        """Extend the coefficient vectors (used when the vertex dictionary
        grows); existing coefficients are preserved so existing tables keep
        their bucket layout."""
        if new_num_tables <= self.num_tables:
            return
        rng = np.random.default_rng(seed ^ self.num_tables)
        extra = new_num_tables - self.num_tables
        self._a = np.concatenate([self._a, rng.integers(1, PRIME, size=extra, dtype=np.int64)])
        self._b = np.concatenate([self._b, rng.integers(0, PRIME, size=extra, dtype=np.int64)])
        self.num_tables = int(new_num_tables)

    def bucket(
        self,
        table_ids: np.ndarray,
        keys: np.ndarray,
        num_buckets: np.ndarray,
    ) -> np.ndarray:
        """Vectorized bucket index for each (table, key) pair.

        ``num_buckets`` is indexed by ``table_ids`` (i.e. it is the
        per-*table* bucket-count array, not per-item).
        """
        a = self._a[table_ids]
        b = self._b[table_ids]
        h = (a * keys.astype(np.int64) + b) % PRIME
        return h % num_buckets[table_ids]

    def bucket_single(self, table_id: int, key: int, num_buckets: int) -> int:
        """Scalar bucket index (used by the WCWS reference engine)."""
        h = (int(self._a[table_id]) * int(key) + int(self._b[table_id])) % PRIME
        return int(h % num_buckets)
