"""The vertex dictionary (Section III-a, IV-A1).

"We store vertices in a simple fixed-size array, indexed by vertex ID" —
the dictionary is capacity-bounded but growable: exceeding capacity
triggers a reallocation that copies only the per-vertex *handles* (table
base pointers, bucket counts, edge counters), never adjacency data.  That
shallow-copy property is the paper's argument for why over-allocation is
cheap to recover from; :class:`repro.gpusim.memory.GrowableArray` charges
exactly those copied bytes to the performance model.

The dictionary also owns the *exact* per-vertex edge counters maintained by
the popc-of-ballot accounting in the edge kernels, and their aggregate.

Complexity contract (the paper's central claim, Section IV-C): every
mutation here costs **O(batch)** — proportional to the items touched, never
to the vertex capacity.  Per-vertex counters are updated by scatter-adds
over the batch's sources (:meth:`add_edge_counts` / :meth:`sub_edge_counts`)
and the aggregate ``total_edges`` counter is maintained incrementally by
the same calls, so :meth:`total_edges` is an **O(1)** read.  All counter
mutations must go through the methods below; writing ``edge_count``
directly desynchronizes the aggregate.  Setting :attr:`debug_invariants`
on an instance (it defaults to ``False``) re-verifies the aggregate
against the full-array sum, and the arena's structural invariants
(:meth:`repro.slabhash.arena.SlabArena.check_invariants`), after every
mutation — O(capacity + pool) checks reserved for tests and debugging.
"""

from __future__ import annotations

import numpy as np

from repro.slabhash.arena import SlabArena
from repro.slabhash.constants import NULL_SLAB
from repro.util.errors import ValidationError
from repro.util.groupby import group_starts, sorted_unique, stable_argsort

__all__ = ["VertexDictionary"]


class VertexDictionary:
    """Per-vertex handles and counters backed by a :class:`SlabArena`.

    The arena holds ``table_base`` / ``table_buckets`` (the "pointers to the
    hash table associated with each vertex"); this class adds the edge
    counters and their incrementally maintained total, and coordinates
    growth of both together.
    """

    def __init__(self, capacity: int, weighted: bool, hash_seed: int = 0x5AB0) -> None:
        if capacity < 1:
            raise ValidationError("vertex capacity must be at least 1")
        self.arena = SlabArena(int(capacity), weighted=weighted, hash_seed=hash_seed)
        self.edge_count = np.zeros(int(capacity), dtype=np.int64)
        # Maintained incrementally by the mutators below so the
        # total_edges() read never scans a capacity-sized array.
        self._total_edges = 0
        self.debug_invariants = False

    @property
    def capacity(self) -> int:
        return self.arena.num_tables

    def ensure_capacity(self, needed: int) -> None:
        """Grow (by doubling) so ids < ``needed`` are addressable.

        This is the paper's dictionary reallocation: only handles move, and
        the aggregate is unaffected (new slots are empty).
        """
        if needed <= self.capacity:
            return
        new_cap = self.capacity
        while new_cap < needed:
            new_cap *= 2
        self.arena.grow_tables(new_cap)
        grown_counts = np.zeros(new_cap, dtype=np.int64)
        grown_counts[: self.edge_count.shape[0]] = self.edge_count
        self.edge_count = grown_counts
        self._check()

    def ensure_tables(self, vertex_ids: np.ndarray, expected_degree=None, load_factor=0.7):
        """Create hash tables for any of ``vertex_ids`` lacking one.

        With connectivity information (``expected_degree`` aligned with
        ``vertex_ids``) buckets are sized as ``ceil(d / (lf * Bc))``;
        without it each new table gets a single bucket (Section III-b).
        """
        vertex_ids = np.asarray(vertex_ids, dtype=np.int64)
        missing = self.arena.table_base[vertex_ids] == NULL_SLAB
        if not missing.any():
            return
        # Each new id is sized by its first occurrence: the stable sort
        # puts that one at the start of the id's run.
        missing_ids = vertex_ids[missing]
        order = stable_argsort(missing_ids)
        first = order[group_starts(missing_ids[order])]
        if expected_degree is None:
            expected_degree = np.zeros(vertex_ids.shape[0], dtype=np.int64)
        expected = np.asarray(expected_degree, dtype=np.int64)[missing][first]
        buckets = SlabArena.buckets_for(expected, load_factor, self.arena.pool.lane_capacity)
        self.arena.create_tables(missing_ids[first], buckets)

    def activate(self, vertex_ids: np.ndarray, expected_degree=None, load_factor=0.7) -> None:
        """Register a non-empty batch of non-negative ``vertex_ids``
        (Section IV-D1): grow the dictionary to address them, then give
        each id lacking one a table sized as :meth:`ensure_tables` does."""
        self.ensure_capacity(int(vertex_ids.max()) + 1)
        self.ensure_tables(vertex_ids, expected_degree, load_factor)

    # -- counter mutation (O(batch) scatter updates) ---------------------------

    def add_edge_counts(self, sources: np.ndarray) -> None:
        """Credit one edge to each occurrence of ``sources`` (dups allowed).

        The vectorized ``popc(ballot(success))`` of Algorithm 1 lines 9-10:
        an unbuffered scatter-add over the batch's sources, O(batch),
        independent of capacity.
        """
        if sources.size == 0:
            return
        np.add.at(self.edge_count, sources, 1)
        self._total_edges += int(sources.size)
        self._check()

    def credit_edge_counts(self, vertex_ids: np.ndarray, counts: np.ndarray) -> None:
        """Credit ``counts[i]`` edges to each of the *distinct*
        ``vertex_ids`` — :meth:`add_edge_counts` for a batch already
        counted per source (the bulk build's runs)."""
        self.edge_count[vertex_ids] += counts
        self._total_edges += int(counts.sum())
        self._check()

    def sub_edge_counts(self, sources: np.ndarray) -> None:
        """Debit one edge per occurrence of ``sources`` (dups allowed)."""
        if sources.size == 0:
            return
        np.subtract.at(self.edge_count, sources, 1)
        self._total_edges -= int(sources.size)
        self._check()

    def increment_edge_count(self, vertex: int, amount: int) -> None:
        """Scalar counter adjustment (the WCWS reference engine's path)."""
        self.edge_count[vertex] += amount
        self._total_edges += int(amount)
        self._check()

    def zero_edge_counts(self, vertex_ids: np.ndarray) -> int:
        """Zero the given vertices' counters; returns the edges dropped.

        Algorithm 2 line 22.  Duplicate ids are collapsed so each vertex is
        debited exactly once.
        """
        vertex_ids = sorted_unique(np.asarray(vertex_ids, dtype=np.int64))
        dropped = int(self.edge_count[vertex_ids].sum())
        self.edge_count[vertex_ids] = 0
        self._total_edges -= dropped
        self._check()
        return dropped

    # -- aggregate read (O(1)) -------------------------------------------------

    def total_edges(self) -> int:
        return self._total_edges

    # -- debug invariants ------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify the incremental aggregate against the full-array sum.

        O(capacity); run automatically after each mutation only when
        :attr:`debug_invariants` is set.
        """
        actual_edges = int(self.edge_count.sum())
        if self._total_edges != actual_edges:
            raise AssertionError(
                f"total_edges counter {self._total_edges} != array sum {actual_edges}"
            )

    def _check(self) -> None:
        if self.debug_invariants:
            self.check_invariants()
            self.arena.check_invariants()
