"""Unit and property tests for the segmented/group-by primitives."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.groupby import (
    first_occurrence_mask,
    group_starts,
    last_occurrence_mask,
    rank_within_group,
    segmented_sum,
    sorted_unique,
    stable_argsort,
)

int_lists = st.lists(st.integers(min_value=-50, max_value=50), max_size=200)

INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1


def _pack_limit(n: int) -> int:
    """Smallest key ``stable_argsort`` cannot pack for a batch of ``n``."""
    return 1 << (63 - (n - 1).bit_length())


@st.composite
def int64_keys(draw):
    """int64 arrays that straddle every branch of the packed sort: small
    duplicated keys, the full signed range, and keys on both sides of the
    batch's packing limit."""
    n = draw(st.integers(min_value=0, max_value=130))
    if n == 0:
        return np.empty(0, dtype=np.int64)
    limit = _pack_limit(n)
    pool = st.one_of(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=INT64_MIN, max_value=INT64_MAX),
        st.sampled_from([limit - 1, min(limit, INT64_MAX), INT64_MAX, INT64_MIN, 0]),  # n=1: 2**63
    )
    packable_only = draw(st.booleans())
    values = draw(st.lists(pool, min_size=n, max_size=n))
    if packable_only:
        values = [min(abs(v), limit - 1) for v in values]
    return np.array(values, dtype=np.int64)


def _brute_force_masks(keys):
    first_at, last_at = {}, {}
    for i, key in enumerate(keys.tolist()):
        first_at.setdefault(key, i)
        last_at[key] = i
    first = np.zeros(keys.shape[0], dtype=bool)
    last = np.zeros(keys.shape[0], dtype=bool)
    first[list(first_at.values())] = True
    last[list(last_at.values())] = True
    return first, last


class TestGroupStarts:
    def test_example(self):
        assert group_starts(np.array([3, 3, 5, 9, 9, 9])).tolist() == [0, 2, 3]

    def test_all_distinct(self):
        assert group_starts(np.arange(5)).tolist() == [0, 1, 2, 3, 4]

    def test_all_equal(self):
        assert group_starts(np.zeros(5, dtype=np.int64)).tolist() == [0]

    def test_lengths_roundtrip(self):
        keys = np.array([1, 1, 2, 4, 4, 4, 9])
        starts = group_starts(keys)
        lens = np.diff(starts, append=keys.size)
        assert lens.tolist() == [2, 1, 3, 1]
        assert int(lens.sum()) == keys.size


class TestRankWithinGroup:
    def test_example(self):
        got = rank_within_group(np.array([3, 3, 5, 9, 9, 9]))
        assert got.tolist() == [0, 1, 0, 0, 1, 2]

    def test_empty(self):
        assert rank_within_group(np.array([], dtype=np.int64)).size == 0

    @given(int_lists)
    @settings(max_examples=50, deadline=None)
    def test_rank_bounded_by_group_size(self, values):
        arr = np.sort(np.array(values, dtype=np.int64))
        rank = rank_within_group(arr)
        for key in np.unique(arr):
            grp = rank[arr == key]
            assert sorted(grp.tolist()) == list(range(grp.size))


class TestSegmentedSum:
    def test_basic(self):
        out = segmented_sum(np.array([1, 2, 3, 4]), np.array([0, 1, 0, 2]), 3)
        assert out.tolist() == [4, 2, 4]

    def test_bool_values(self):
        out = segmented_sum(np.array([True, False, True]), np.array([0, 0, 1]), 2)
        assert out.tolist() == [1, 1]

    def test_float_values(self):
        out = segmented_sum(np.array([0.5, 0.25]), np.array([1, 1]), 2)
        assert out[1] == pytest.approx(0.75)


class TestOccurrenceMasks:
    def test_last_example(self):
        keys = np.array([5, 3, 5, 7, 3])
        mask = last_occurrence_mask(keys)
        assert mask.tolist() == [False, False, True, True, True]

    def test_first_example(self):
        keys = np.array([5, 3, 5, 7, 3])
        mask = first_occurrence_mask(keys)
        assert mask.tolist() == [True, True, False, True, False]

    def test_empty(self):
        assert last_occurrence_mask(np.array([], dtype=np.int64)).size == 0
        assert first_occurrence_mask(np.array([], dtype=np.int64)).size == 0

    @given(int_lists)
    @settings(max_examples=50, deadline=None)
    def test_masks_partition_uniques(self, values):
        arr = np.array(values, dtype=np.int64)
        last = last_occurrence_mask(arr)
        first = first_occurrence_mask(arr)
        n_unique = np.unique(arr).size
        assert int(last.sum()) == n_unique
        assert int(first.sum()) == n_unique
        # The masked keys cover every distinct key exactly once.
        assert sorted(arr[last].tolist()) == np.unique(arr).tolist()
        assert sorted(arr[first].tolist()) == np.unique(arr).tolist()

    @given(int_lists)
    @settings(max_examples=50, deadline=None)
    def test_last_selects_highest_index(self, values):
        arr = np.array(values, dtype=np.int64)
        mask = last_occurrence_mask(arr)
        for idx in np.flatnonzero(mask):
            assert not np.any(arr[idx + 1 :] == arr[idx])

    @pytest.mark.parametrize(
        "keys",
        [
            np.array([9, 4, 7, 1, 8], dtype=np.int64),  # distinct
            np.array([5, 3, 5, 7, 3, 5], dtype=np.int64),  # duplicated
            np.array([-2, 4, -2, -9, 4, INT64_MIN], dtype=np.int64),  # negative: unpackable
            np.array([7], dtype=np.int64),
        ],
        ids=["distinct", "duplicated", "negative", "singleton"],
    )
    def test_masks_match_brute_force(self, keys):
        before = keys.copy()
        first, last = _brute_force_masks(keys)
        assert first_occurrence_mask(keys).tolist() == first.tolist()
        assert last_occurrence_mask(keys).tolist() == last.tolist()
        assert np.array_equal(keys, before)

    @given(int64_keys())
    @settings(max_examples=100, deadline=None)
    def test_masks_match_brute_force_property(self, keys):
        first, last = _brute_force_masks(keys)
        assert np.array_equal(first_occurrence_mask(keys), first)
        assert np.array_equal(last_occurrence_mask(keys), last)


class TestStableArgsort:
    @given(int64_keys())
    @settings(max_examples=200, deadline=None)
    def test_matches_numpy_stable_argsort(self, keys):
        before = keys.copy()
        got = stable_argsort(keys)
        expected = np.argsort(keys, kind="stable")
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
        assert np.array_equal(keys, before)  # never mutated

    @pytest.mark.parametrize("n", [2, 3, 64, 65, 1000])
    def test_both_sides_of_the_packing_limit(self, n):
        """``limit - 1`` is the largest key the packed path sorts; ``limit``
        is the first to take NumPy's argsort.  Same answer either way."""
        limit = _pack_limit(n)
        for top in (limit - 1, limit):
            keys = np.full(n, top, dtype=np.int64)
            keys[::2] = top - 1  # ties on both values, interleaved
            assert np.array_equal(stable_argsort(keys), np.argsort(keys, kind="stable"))

    def test_all_equal_keeps_input_order(self):
        keys = np.full(37, 12, dtype=np.int64)
        assert stable_argsort(keys).tolist() == list(range(37))

    def test_empty_and_singleton(self):
        assert stable_argsort(np.empty(0, dtype=np.int64)).tolist() == []
        assert stable_argsort(np.array([-4], dtype=np.int64)).tolist() == [0]

    @pytest.mark.parametrize("dtype", [np.int32, np.uint32, np.uint64, np.float64])
    def test_other_dtypes(self, dtype):
        keys = np.array([3, 1, 3, 0, 1, 2**31 - 1], dtype=dtype)
        assert np.array_equal(stable_argsort(keys), np.argsort(keys, kind="stable"))

    def test_uint64_above_int64_range(self):
        keys = np.array([2**63 + 5, 1, 2**63 + 5, 0], dtype=np.uint64)
        assert np.array_equal(stable_argsort(keys), np.argsort(keys, kind="stable"))

    def test_non_contiguous_input(self):
        keys = np.array([5, 0, 3, 0, 5, 0, 1, 0], dtype=np.int64)[::2]
        assert stable_argsort(keys).tolist() == [3, 1, 0, 2]


class TestSortedUnique:
    @given(int64_keys())
    @settings(max_examples=200, deadline=None)
    def test_matches_numpy_unique(self, keys):
        before = keys.copy()
        got = sorted_unique(keys)
        expected = np.unique(keys)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
        assert np.array_equal(keys, before)  # never mutated

    def test_examples(self):
        assert sorted_unique(np.array([4, 1, 4, 4, -2, 1])).tolist() == [-2, 1, 4]
        assert sorted_unique(np.array([3, 2, 1])).tolist() == [1, 2, 3]
        assert sorted_unique(np.zeros(6, dtype=np.int64)).tolist() == [0]
        assert sorted_unique(np.empty(0, dtype=np.int64)).tolist() == []
        assert sorted_unique(np.array([8])).tolist() == [8]


# -- the update path orders through these primitives and nothing else ----------------

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
#: The layers the wall-clock ledger traces on the update path, and the cold
#: whole-graph passes (``COO.to_csr`` behind every cold snapshot, the
#: analytics' cold counts).
GUARDED = (
    "core",
    "slabhash",
    "api",
    "stream",
    "eventlog",
    "kernels/reference.py",
    "coo.py",
    "analytics",
)
#: (file, enclosing function) pairs that may keep the slow forms: debug-only
#: O(pool) structural checks that never run in a timed path.
ALLOWED = {("slabhash/arena.py", "check_invariants")}
#: The passes that drain tables themselves.  Sending what they drained back
#: through the insert kernel re-hashes, dedup-sorts and hit-matches entries
#: that are distinct and whose chains were just emptied ("Maintenance
#: passes"); they place through ``repro.slabhash.insert.refill_chains``.
DRAINERS = ("slabhash/iterate.py", "core/rehash.py", "core/vertex_ops.py")


def _slow_orderings(path: Path) -> list:
    """``np.unique(...)`` / ``np.lexsort(...)`` calls and ``kind="stable"``
    arguments in one file — and, in a :data:`DRAINERS` file, calls of
    ``insert`` / ``insert_batch`` — as ``(relative file, enclosing function,
    line, what)``."""
    rel = path.relative_to(SRC).as_posix()
    found = []

    def walk(node, function):
        for child in ast.iter_child_nodes(node):
            inside = function
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inside = child.name
            if isinstance(child, ast.Call):
                f = child.func
                if isinstance(f, ast.Attribute) and f.attr in ("unique", "lexsort"):
                    if ast.unparse(f.value) == "np":
                        found.append((rel, function, child.lineno, f"np.{f.attr}"))
                name = getattr(f, "attr", getattr(f, "id", None))
                if rel in DRAINERS and name in ("insert", "insert_batch"):
                    found.append((rel, function, child.lineno, f"{name}() of drained entries"))
                for kw in child.keywords:
                    if kw.arg == "kind" and getattr(kw.value, "value", None) == "stable":
                        found.append((rel, function, child.lineno, 'kind="stable"'))
            walk(child, inside)

    walk(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return found


def test_update_path_orders_only_through_groupby():
    """``np.unique`` and NumPy's stable argsort cost 4-14x the packed value sort on
    this NumPy (docs/performance.md, "Ordering primitives"); a new call in
    a traced layer would give the gain back without failing anything else.
    ``np.lexsort`` is refused everywhere: ``COO.csr_order`` is the one
    ``(src, dst)`` ordering ("Cold passes")."""
    files = []
    for entry in GUARDED:
        target = SRC / entry
        files.extend(sorted(target.rglob("*.py")) if target.is_dir() else [target])
    assert len(files) > 20  # the scan really sees the packages
    found = [hit for path in files for hit in _slow_orderings(path)]
    found += [
        hit
        for path in sorted(SRC.rglob("*.py"))
        if path not in files
        for hit in _slow_orderings(path)
        if hit[3] == "np.lexsort"
    ]
    offenders = [
        f"{rel}:{line}: {what} in {function}() — use repro.util.groupby, COO.csr_order or refill_chains"
        for rel, function, line, what in found
        if (rel, function) not in ALLOWED
    ]
    assert offenders == [], "\n".join(offenders)
    # The allow-list names code that exists, so it cannot outlive its reason.
    assert ALLOWED <= {(rel, function) for rel, function, _, _ in found}
