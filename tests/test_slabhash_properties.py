"""Property-based tests: the slab arena against a dict reference model.

Hypothesis drives random operation sequences (insert / delete / search /
flush) against both the vectorized arena and a plain Python dict model; at
every step the live key/value sets, the success masks, and the structural
tail invariant must agree.  This is the broadest correctness net over the
paper's core data structure.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.slabhash.arena import SlabArena
from tests.test_slabhash_arena import check_tail_invariant

NUM_TABLES = 4
KEY_SPACE = 60  # small => heavy collisions and chains

ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "search", "flush"]),
        st.lists(
            st.tuples(
                st.integers(0, NUM_TABLES - 1),
                st.integers(0, KEY_SPACE - 1),
                st.integers(0, 100),
            ),
            max_size=40,
        ),
    ),
    max_size=12,
)


def apply_reference(model, op, items):
    results = []
    if op == "insert":
        seen_last = {}
        for i, (t, k, v) in enumerate(items):
            seen_last[(t, k)] = i
        for i, (t, k, v) in enumerate(items):
            if seen_last[(t, k)] == i and (t, k) not in model:
                results.append(True)
            else:
                results.append(False)
            if seen_last[(t, k)] == i:
                model[(t, k)] = v
    elif op == "delete":
        for t, k, _ in items:
            results.append((t, k) in model)
            model.pop((t, k), None)
    elif op == "search":
        for t, k, _ in items:
            results.append((t, k) in model)
    return results


@given(ops)
@settings(max_examples=60, deadline=None)
def test_arena_matches_dict_model(op_list):
    arena = SlabArena(NUM_TABLES, weighted=True)
    arena.create_tables(np.arange(NUM_TABLES), np.ones(NUM_TABLES, dtype=np.int64))
    model: dict[tuple[int, int], int] = {}

    for op, items in op_list:
        if op == "flush":
            arena.flush_tombstones(np.arange(NUM_TABLES))
            arena.check_invariants(dense=np.arange(NUM_TABLES))
        elif items:
            t = np.array([i[0] for i in items])
            k = np.array([i[1] for i in items])
            v = np.array([i[2] for i in items])
            expected = apply_reference(model, op, items)
            if op == "insert":
                added = arena.insert(t, k, v)
                assert int(added.sum()) == sum(expected)
            elif op == "delete":
                removed = arena.delete(t, k)
                # Duplicate (t, k) within a delete batch: exactly one
                # occurrence succeeds; totals must match the model.
                assert int(removed.sum()) == len(
                    {(tt, kk) for (tt, kk, _), e in zip(items, expected) if e}
                )
            elif op == "search":
                found, vals = arena.search(t, k)
                assert found.tolist() == expected
                for f, (tt, kk, _), got in zip(found, items, vals.tolist()):
                    if f:
                        assert got == model[(tt, kk)]

        # Full-state comparison + structural invariant after every op.
        owners, keys, vals = arena.iterate(np.arange(NUM_TABLES))
        got = {
            (int(o), int(k2)): int(v2)
            for o, k2, v2 in zip(owners.tolist(), keys.tolist(), vals.tolist())
        }
        assert got == model
        check_tail_invariant(arena, np.arange(NUM_TABLES))


@given(
    st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=300),
    st.integers(1, 5),
)
@settings(max_examples=40, deadline=None)
def test_set_arena_unique_and_complete(keys, buckets):
    """Any key multiset inserts to exactly its distinct set."""
    arena = SlabArena(1, weighted=False)
    arena.create_tables(np.array([0]), np.array([buckets]))
    arr = np.array(keys, dtype=np.int64)
    added = arena.insert(np.zeros(arr.size, np.int64), arr)
    assert int(added.sum()) == len(set(keys))
    _, got, _ = arena.iterate(np.array([0]))
    assert sorted(got.tolist()) == sorted(set(keys))
    found, _ = arena.search(np.zeros(arr.size, np.int64), arr)
    assert found.all()


@given(st.lists(st.integers(0, 40), min_size=1, max_size=120))
@settings(max_examples=40, deadline=None)
def test_reference_scalar_ops_agree_with_kernels(keys):
    """The scalar reference implementation (the executable spec) and the
    vectorized kernels produce identical tables."""
    arr = np.array(keys, dtype=np.int64)

    fast = SlabArena(1, weighted=True, hash_seed=99)
    fast.create_tables(np.array([0]), np.array([1]))
    fast.insert(np.zeros(arr.size, np.int64), arr, arr * 3)

    slow = SlabArena(1, weighted=True, hash_seed=99)
    slow.create_tables(np.array([0]), np.array([1]))
    for k in keys:
        slow.reference_insert_one(0, int(k), int(k) * 3)

    for arena in (fast, slow):
        check_tail_invariant(arena, np.array([0]))
    _, fk, fv = fast.iterate(np.array([0]))
    _, sk, sv = slow.iterate(np.array([0]))
    assert dict(zip(fk.tolist(), fv.tolist())) == dict(zip(sk.tolist(), sv.tolist()))
