"""The vertex dictionary (Section III-a, IV-A1).

"We store vertices in a simple fixed-size array, indexed by vertex ID" —
the dictionary is capacity-bounded but growable: exceeding capacity
triggers a reallocation that copies only the per-vertex *handles* (table
base pointers, bucket counts, edge counters), never adjacency data.  That
shallow-copy property is the paper's argument for why over-allocation is
cheap to recover from; :class:`repro.gpusim.memory.GrowableArray` charges
exactly those copied bytes to the performance model.

The dictionary also owns the *exact* per-vertex edge counters maintained by
the popc-of-ballot accounting in the edge kernels, and the aggregate
counters derived from them.

Complexity contract (the paper's central claim, Section IV-C): every
mutation here costs **O(batch)** — proportional to the items touched, never
to the vertex capacity.  Per-vertex counters are updated by scatter-adds
over the batch's sources (:meth:`add_edge_counts` / :meth:`sub_edge_counts`)
and the aggregate ``total_edges`` / ``num_active`` counters are maintained
incrementally by the same calls, so :meth:`total_edges` and
:meth:`num_active` are **O(1)** reads.  All counter mutations must go
through the methods below; writing ``edge_count`` / ``active`` directly
desynchronizes the aggregates.  Setting :attr:`debug_invariants` on an
instance (it defaults to ``False``) re-verifies the aggregates against
the full-array sums, and the arena's structural invariants
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
    counters, the active-vertex mask, the incrementally maintained
    aggregates over both, and coordinates growth of all of them together.
    """

    def __init__(self, capacity: int, weighted: bool, hash_seed: int = 0x5AB0) -> None:
        if capacity < 1:
            raise ValidationError("vertex capacity must be at least 1")
        self.arena = SlabArena(int(capacity), weighted=weighted, hash_seed=hash_seed)
        self.edge_count = np.zeros(int(capacity), dtype=np.int64)
        self.active = np.zeros(int(capacity), dtype=bool)
        # Aggregates maintained incrementally by the mutators below so the
        # num_active()/total_edges() reads never scan capacity-sized arrays.
        self._total_edges = 0
        self._num_active = 0
        self.debug_invariants = False

    @property
    def capacity(self) -> int:
        return self.arena.num_tables

    def ensure_capacity(self, needed: int) -> None:
        """Grow (by doubling) so ids < ``needed`` are addressable.

        This is the paper's dictionary reallocation: only handles move, and
        the aggregates are unaffected (new slots are empty and inactive).
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
        grown_active = np.zeros(new_cap, dtype=bool)
        grown_active[: self.active.shape[0]] = self.active
        self.active = grown_active
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
        if expected_degree is None:
            new_ids = sorted_unique(vertex_ids[missing])
            buckets = np.ones(new_ids.shape[0], dtype=np.int64)
        else:
            # Each new id is sized by its first occurrence: the stable sort
            # puts that one at the start of the id's run.
            missing_ids = vertex_ids[missing]
            order = stable_argsort(missing_ids)
            missing_ids = missing_ids[order]
            first = group_starts(missing_ids)
            new_ids = missing_ids[first]
            expected = np.asarray(expected_degree, dtype=np.int64)[missing][order[first]]
            buckets = SlabArena.buckets_for(expected, load_factor, self.arena.pool.lane_capacity)
        self.arena.create_tables(new_ids, buckets)

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

    def activate(self, vertex_ids: np.ndarray) -> None:
        """Mark vertices active, counting only genuinely new activations."""
        fresh = vertex_ids[~self.active[vertex_ids]]
        if fresh.size == 0:
            return
        uniq = sorted_unique(fresh)
        self.active[uniq] = True
        self._num_active += int(uniq.size)
        self._check()

    def deactivate(self, vertex_ids: np.ndarray) -> np.ndarray:
        """Mark vertices inactive; returns the unique ids actually flipped
        (ids that were never active are ignored and not returned)."""
        live = vertex_ids[self.active[vertex_ids]]
        uniq = sorted_unique(live)
        if uniq.size:
            self.active[uniq] = False
            self._num_active -= int(uniq.size)
        self._check()
        return uniq

    # -- aggregate reads (O(1)) ------------------------------------------------

    def num_active(self) -> int:
        return self._num_active

    def total_edges(self) -> int:
        return self._total_edges

    # -- debug invariants ------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify the incremental aggregates against the full-array sums.

        O(capacity); run automatically after each mutation only when
        :attr:`debug_invariants` is set.
        """
        actual_edges = int(self.edge_count.sum())
        actual_active = int(np.count_nonzero(self.active))
        if self._total_edges != actual_edges:
            raise AssertionError(
                f"total_edges counter {self._total_edges} != array sum {actual_edges}"
            )
        if self._num_active != actual_active:
            raise AssertionError(
                f"num_active counter {self._num_active} != array count {actual_active}"
            )

    def _check(self) -> None:
        if self.debug_invariants:
            self.check_invariants()
            self.arena.check_invariants()
