"""A multi-tree B+-tree arena over 128-byte nodes.

Layout follows the GPU B-tree the paper cites (Awad et al., PPoPP 2019):
every node is one 128-byte cache line.  With 32-bit keys and values a leaf
holds up to 14 key/value pairs plus a next-leaf link; an internal node
holds up to 14 router keys and 15 children.  All trees share one
structure-of-arrays node pool, so per-node storage is three NumPy matrices
and the allocator is a bump pointer plus free list (the same discipline as
the slab pool).

Operations are scalar per tree (B-tree updates are inherently pointer-
chasing) but the node pool keeps memory traffic measurable: every node
touch is charged one ``slab_read``/``slab_write`` to the global counters,
so the cost model can price B-tree updates against hash updates in the
ablation bench.

Keys are unique per tree; insert-with-replace semantics matches the slab
hash so the two adjacency backends are drop-in comparable.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.counters import get_counters
from repro.gpusim.memory import GrowableArray
from repro.util.errors import ValidationError

__all__ = ["BPlusTreeArena"]

#: Key/value lanes per 128-byte node.
NODE_KEYS = 14

#: Fanout of internal nodes.
NODE_CHILDREN = NODE_KEYS + 1

_NULL = -1


class BPlusTreeArena:
    """Many B+-trees sharing one node pool.

    Parameters
    ----------
    num_trees:
        Number of tree ids (the graph maps vertex ids to tree ids).
    """

    def __init__(self, num_trees: int, initial_nodes: int = 64) -> None:
        if num_trees < 0:
            raise ValidationError("num_trees must be non-negative")
        self.num_trees = int(num_trees)
        self.root = np.full(max(num_trees, 1), _NULL, dtype=np.int64)[: self.num_trees]
        cap = max(initial_nodes, 1)
        # One extra lane beyond the 128-byte payload: insert-then-split
        # briefly overfills a node before the split restores the bound
        # (scratch space only; occupancy never exceeds NODE_KEYS at rest).
        self._keys = GrowableArray(cap, np.int64, width=NODE_KEYS + 1, fill_value=0)
        self._vals = GrowableArray(cap, np.int64, width=NODE_KEYS + 1, fill_value=0)
        self._children = GrowableArray(cap, np.int64, width=NODE_CHILDREN + 1, fill_value=_NULL)
        self._num_keys = GrowableArray(cap, np.int64, fill_value=0)
        self._is_leaf = GrowableArray(cap, bool, fill_value=True)
        self._next_leaf = GrowableArray(cap, np.int64, fill_value=_NULL)
        self._bump = 0
        self._free: list[int] = []
        self._count = np.zeros(self.num_trees, dtype=np.int64)

    # -- node pool ---------------------------------------------------------

    def _alloc_node(self, leaf: bool) -> int:
        counters = get_counters()
        counters.slabs_allocated += 1
        counters.atomics += 1
        if self._free:
            nid = self._free.pop()
        else:
            nid = self._bump
            self._bump += 1
            for buf in (
                self._keys,
                self._vals,
                self._children,
                self._num_keys,
                self._is_leaf,
                self._next_leaf,
            ):
                buf.ensure(self._bump)
        self._keys.data[nid] = 0
        self._vals.data[nid] = 0
        self._children.data[nid] = _NULL
        self._num_keys.data[nid] = 0
        self._is_leaf.data[nid] = leaf
        self._next_leaf.data[nid] = _NULL
        return nid

    def _free_node(self, nid: int) -> None:
        get_counters().slabs_freed += 1
        self._free.append(int(nid))

    @property
    def num_allocated_nodes(self) -> int:
        return self._bump - len(self._free)

    @property
    def allocated_bytes(self) -> int:
        return self.num_allocated_nodes * 128

    def count(self, tree: int) -> int:
        return int(self._count[tree])

    # -- scalar operations ----------------------------------------------------

    def insert_one(self, tree: int, key: int, value: int = 0) -> bool:
        """Insert-or-replace; True iff the key was new."""
        counters = get_counters()
        root = int(self.root[tree])
        if root == _NULL:
            root = self._alloc_node(leaf=True)
            self.root[tree] = root
        # Descend, remembering the path for splits.
        path: list[tuple[int, int]] = []  # (node, child index taken)
        node = root
        while not self._is_leaf.data[node]:
            counters.slab_reads += 1
            nk = int(self._num_keys.data[node])
            idx = int(np.searchsorted(self._keys.data[node, :nk], key, side="right"))
            path.append((node, idx))
            node = int(self._children.data[node, idx])
        counters.slab_reads += 1

        nk = int(self._num_keys.data[node])
        keys = self._keys.data[node]
        pos = int(np.searchsorted(keys[:nk], key))
        if pos < nk and keys[pos] == key:
            self._vals.data[node, pos] = value  # replace
            counters.slab_writes += 1
            return False

        # Shift-in insert at the leaf.
        keys[pos + 1 : nk + 1] = keys[pos:nk]
        self._vals.data[node, pos + 1 : nk + 1] = self._vals.data[node, pos:nk]
        keys[pos] = key
        self._vals.data[node, pos] = value
        self._num_keys.data[node] = nk + 1
        counters.slab_writes += 1
        self._count[tree] += 1

        # Split upward while overfull.
        child = node
        while self._num_keys.data[child] > NODE_KEYS:
            child = self._split(tree, child, path.pop() if path else None)
        return True

    def _split(self, tree: int, node: int, parent_slot) -> int:
        """Split an overfull node; returns the node whose parent may now be
        overfull (the parent), for iterative propagation."""
        counters = get_counters()
        nk = int(self._num_keys.data[node])
        mid = nk // 2
        right = self._alloc_node(leaf=bool(self._is_leaf.data[node]))

        if self._is_leaf.data[node]:
            # Right keeps [mid:], separator = right's first key.
            rcount = nk - mid
            self._keys.data[right, :rcount] = self._keys.data[node, mid:nk]
            self._vals.data[right, :rcount] = self._vals.data[node, mid:nk]
            self._num_keys.data[right] = rcount
            self._num_keys.data[node] = mid
            self._next_leaf.data[right] = self._next_leaf.data[node]
            self._next_leaf.data[node] = right
            sep = int(self._keys.data[right, 0])
        else:
            # Internal: middle key moves up.
            sep = int(self._keys.data[node, mid])
            rcount = nk - mid - 1
            self._keys.data[right, :rcount] = self._keys.data[node, mid + 1 : nk]
            self._children.data[right, : rcount + 1] = self._children.data[
                node, mid + 1 : nk + 1
            ]
            self._num_keys.data[right] = rcount
            self._num_keys.data[node] = mid
        counters.slab_writes += 2

        if parent_slot is None:
            # New root.
            new_root = self._alloc_node(leaf=False)
            self._keys.data[new_root, 0] = sep
            self._children.data[new_root, 0] = node
            self._children.data[new_root, 1] = right
            self._num_keys.data[new_root] = 1
            self.root[tree] = new_root
            counters.slab_writes += 1
            return new_root
        parent, idx = parent_slot
        pk = int(self._num_keys.data[parent])
        self._keys.data[parent, idx + 1 : pk + 1] = self._keys.data[parent, idx:pk]
        self._children.data[parent, idx + 2 : pk + 2] = self._children.data[
            parent, idx + 1 : pk + 1
        ]
        self._keys.data[parent, idx] = sep
        self._children.data[parent, idx + 1] = right
        self._num_keys.data[parent] = pk + 1
        counters.slab_writes += 1
        return parent

    def delete_one(self, tree: int, key: int) -> bool:
        """Delete a key; True iff it existed.

        Uses leaf-level removal without eager rebalancing (lazy deletion:
        underfull leaves are tolerated, matching the GPU B-tree's
        delete-and-compact-later strategy).  Router keys may become stale
        upper bounds, which searches tolerate by construction.
        """
        counters = get_counters()
        node = int(self.root[tree])
        if node == _NULL:
            return False
        while not self._is_leaf.data[node]:
            counters.slab_reads += 1
            nk = int(self._num_keys.data[node])
            idx = int(np.searchsorted(self._keys.data[node, :nk], key, side="right"))
            node = int(self._children.data[node, idx])
        counters.slab_reads += 1
        nk = int(self._num_keys.data[node])
        keys = self._keys.data[node]
        pos = int(np.searchsorted(keys[:nk], key))
        if pos >= nk or keys[pos] != key:
            return False
        keys[pos : nk - 1] = keys[pos + 1 : nk]
        self._vals.data[node, pos : nk - 1] = self._vals.data[node, pos + 1 : nk]
        self._num_keys.data[node] = nk - 1
        counters.slab_writes += 1
        self._count[tree] -= 1
        return True

    def search_one(self, tree: int, key: int) -> tuple[bool, int]:
        counters = get_counters()
        node = int(self.root[tree])
        if node == _NULL:
            return False, 0
        while not self._is_leaf.data[node]:
            counters.slab_reads += 1
            nk = int(self._num_keys.data[node])
            idx = int(np.searchsorted(self._keys.data[node, :nk], key, side="right"))
            node = int(self._children.data[node, idx])
        counters.slab_reads += 1
        nk = int(self._num_keys.data[node])
        pos = int(np.searchsorted(self._keys.data[node, :nk], key))
        if pos < nk and self._keys.data[node, pos] == key:
            return True, int(self._vals.data[node, pos])
        return False, 0

    # -- sorted access (the B-tree's raison d'être) ------------------------------

    def _leftmost_leaf(self, tree: int) -> int:
        node = int(self.root[tree])
        if node == _NULL:
            return _NULL
        while not self._is_leaf.data[node]:
            node = int(self._children.data[node, 0])
        return node

    def items_sorted(self, tree: int) -> tuple[np.ndarray, np.ndarray]:
        """All (keys, values) in ascending key order via the leaf chain."""
        counters = get_counters()
        node = self._leftmost_leaf(tree)
        ks, vs = [], []
        while node != _NULL:
            counters.slab_reads += 1
            nk = int(self._num_keys.data[node])
            ks.append(self._keys.data[node, :nk].copy())
            vs.append(self._vals.data[node, :nk].copy())
            node = int(self._next_leaf.data[node])
        if not ks:
            e = np.empty(0, dtype=np.int64)
            return e, e.copy()
        return np.concatenate(ks), np.concatenate(vs)

    def range_query(self, tree: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """All (keys, values) with ``lo <= key < hi`` — the operation hash
        tables cannot serve and the paper's future work motivates."""
        counters = get_counters()
        node = int(self.root[tree])
        if node == _NULL or lo >= hi:
            e = np.empty(0, dtype=np.int64)
            return e, e.copy()
        while not self._is_leaf.data[node]:
            counters.slab_reads += 1
            nk = int(self._num_keys.data[node])
            idx = int(np.searchsorted(self._keys.data[node, :nk], lo, side="right"))
            node = int(self._children.data[node, idx])
        ks, vs = [], []
        while node != _NULL:
            counters.slab_reads += 1
            nk = int(self._num_keys.data[node])
            keys = self._keys.data[node, :nk]
            take = (keys >= lo) & (keys < hi)
            if take.any():
                ks.append(keys[take].copy())
                vs.append(self._vals.data[node, :nk][take].copy())
            if nk and keys[-1] >= hi:
                break
            node = int(self._next_leaf.data[node])
        if not ks:
            e = np.empty(0, dtype=np.int64)
            return e, e.copy()
        return np.concatenate(ks), np.concatenate(vs)

    def destroy_tree(self, tree: int) -> None:
        """Free every node of a tree (vertex deletion)."""
        root = int(self.root[tree])
        if root == _NULL:
            return
        stack = [root]
        while stack:
            node = stack.pop()
            if not self._is_leaf.data[node]:
                nk = int(self._num_keys.data[node])
                stack.extend(int(c) for c in self._children.data[node, : nk + 1])
            self._free_node(node)
        self.root[tree] = _NULL
        self._count[tree] = 0
