"""Hash functions used by the slab hash tables.

SlabHash (Ashkiani et al., IPDPS 2018) hashes a key into a bucket with a
universal hash ``h(k) = ((a*k + b) mod p) mod num_buckets`` where ``p`` is a
Mersenne-like prime and ``(a, b)`` are drawn per table.  Our graph keeps one
hash table per vertex, so :class:`UniversalHashFamily` keeps *vectors* of
coefficients indexed by vertex id, letting a batched kernel hash a whole
batch of (source, destination) pairs in one NumPy expression.

A table's pair is a pure function of ``(seed, table id)``: the SplitMix64
generator (Steele, Lea & Flood, "Fast Splittable Pseudorandom Number
Generators", OOPSLA 2014) seeded with ``seed``, read at positions
``2t + 1`` and ``2t + 2``.  It is derived only when a table is created with
more than one bucket (:meth:`UniversalHashFamily.assign`); a one-bucket
table never hashes, so most of a large graph's tables hold zeros and cost
no random draw.
"""

from __future__ import annotations

import numpy as np

__all__ = ["UniversalHashFamily"]

#: A prime larger than any 32-bit key (2**31 - 1, the 8th Mersenne prime).
PRIME: int = (1 << 31) - 1

_GOLDEN_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_U64 = (1 << 64) - 1


def _splitmix64(state: np.ndarray) -> np.ndarray:
    """SplitMix64's output finaliser over a ``uint64`` array (wraps mod 2^64)."""
    z = (state ^ (state >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


class UniversalHashFamily:
    """Per-table universal hash coefficients, vectorized over table ids.

    Coefficients start at zero (no page is written for a table that never
    hashes) and are derived from ``(seed, table id)`` by :meth:`assign`,
    which the arena calls for exactly the tables it creates with more than
    one bucket.

    Parameters
    ----------
    num_tables:
        Number of tables (vertices) to hold coefficients for.
    seed:
        Seed of the derivation; fixed seeds give reproducible bucket
        layouts, which the tests rely on.
    """

    __slots__ = ("_a", "_b", "num_tables", "seed")

    def __init__(self, num_tables: int, seed: int = 0x5AB0) -> None:
        self.num_tables = int(num_tables)
        self.seed = int(seed)
        self._a = np.zeros(self.num_tables, dtype=np.int64)
        self._b = np.zeros(self.num_tables, dtype=np.int64)

    def grow(self, new_num_tables: int) -> None:
        """Extend the coefficient vectors (used when the vertex dictionary
        grows); existing coefficients are preserved so existing tables keep
        their bucket layout, and new ids wait for :meth:`assign`."""
        if new_num_tables <= self.num_tables:
            return
        extra = new_num_tables - self.num_tables
        self._a = np.concatenate([self._a, np.zeros(extra, dtype=np.int64)])
        self._b = np.concatenate([self._b, np.zeros(extra, dtype=np.int64)])
        self.num_tables = int(new_num_tables)

    def assign(self, table_ids: np.ndarray) -> None:
        """Derive ``a`` in ``[1, p)`` and ``b`` in ``[0, p)`` for each table.

        Idempotent: a table gets the same pair each time, so a rehashed
        table keeps its hash function.
        """
        ids = np.asarray(table_ids).astype(np.uint64)
        state = np.uint64(self.seed & _U64) + (ids * np.uint64(2) + np.uint64(1)) * _GOLDEN_GAMMA
        self._a[table_ids] = (_splitmix64(state) % np.uint64(PRIME - 1)).astype(np.int64) + 1
        state += _GOLDEN_GAMMA
        self._b[table_ids] = (_splitmix64(state) % np.uint64(PRIME)).astype(np.int64)

    def bucket(
        self,
        table_ids: np.ndarray,
        keys: np.ndarray,
        num_buckets: np.ndarray,
    ) -> np.ndarray:
        """Vectorized bucket index for each (table, key) pair; ``keys``
        (int64, or a narrower integer type) and ``num_buckets`` are per
        item, as the caller has them gathered already.
        """
        return (self._a[table_ids] * keys + self._b[table_ids]) % PRIME % num_buckets

    def bucket_single(self, table_id: int, key: int, num_buckets: int) -> int:
        """Scalar bucket index (used by the WCWS reference engine)."""
        h = (int(self._a[table_id]) * int(key) + int(self._b[table_id])) % PRIME
        return int(h % num_buckets)
