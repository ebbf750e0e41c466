"""Unit tests for k-way merging and key grouping."""

from __future__ import annotations

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mr.comparators import (
    Comparator,
    _natural_cmp,
    comparator_from_key,
    default_comparator,
    raw_bytes_comparator,
)
from repro.mr.merge import group_runs, merge_runs

#: Orders like ``default_comparator`` but is opaque to the code
#: (``is_natural`` is false): ``record_key`` hands out ``cmp_to_key``
#: wrappers.
opaque_comparator = Comparator(_natural_cmp, name="opaque")

_COMPARATORS = {
    c.name: c
    for c in (default_comparator, raw_bytes_comparator, opaque_comparator)
}


class TestMergeSorted:
    def test_merges_in_order(self) -> None:
        a = [("a", 1), ("c", 3)]
        b = [("b", 2), ("d", 4)]
        merged = merge_runs([a, b], default_comparator)
        assert merged == [("a", 1), ("b", 2), ("c", 3), ("d", 4)]

    def test_stability_for_equal_keys(self) -> None:
        a = [("k", "first"), ("k", "second")]
        b = [("j", "zeroth"), ("k", "third")]
        for comparator in _COMPARATORS.values():
            merged = merge_runs([a, b], comparator)
            assert merged == [("j", "zeroth"), *a, ("k", "third")]

    def test_empty_streams(self) -> None:
        assert merge_runs([], default_comparator) == []
        assert merge_runs([[]], default_comparator) == []
        assert merge_runs([[], [("a", 1)], []], default_comparator) == [
            ("a", 1)
        ]

    def test_single_stream(self) -> None:
        records = [("a", 1), ("b", 2)]
        assert merge_runs([records], default_comparator) == records

    def test_many_streams(self) -> None:
        runs = [[(i, None), (i + 100, None)] for i in range(10)]
        merged = [key for key, _ in merge_runs(runs, default_comparator)]
        assert merged == sorted(merged)

    @pytest.mark.parametrize("name", list(_COMPARATORS))
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.text(alphabet="abc", max_size=2), max_size=6),
            max_size=5,
        )
    )
    def test_equals_heap_merge(self, name, key_runs) -> None:
        """``merge_runs`` is the k-way heap merge, record for record:
        values tag (run, position), so any tie broken differently
        shows."""
        comparator = _COMPARATORS[name]
        key_fn = comparator.key_fn()
        runs = [
            [
                (key, (index, position))
                for position, key in enumerate(sorted(keys, key=key_fn))
            ]
            for index, keys in enumerate(key_runs)
        ]
        expected = list(
            heapq.merge(*runs, key=lambda record: key_fn(record[0]))
        )
        assert merge_runs([list(run) for run in runs], comparator) == expected


class TestGroupByKey:
    def test_basic_grouping(self) -> None:
        records = [("a", 1), ("a", 2), ("b", 3)]
        groups = list(group_runs(records, default_comparator))
        assert groups == [("a", [1, 2]), ("b", [3])]

    def test_empty(self) -> None:
        assert list(group_runs([], default_comparator)) == []

    def test_all_distinct(self) -> None:
        records = [(1, "a"), (2, "b"), (3, "c")]
        groups = list(group_runs(records, default_comparator))
        assert groups == [(1, ["a"]), (2, ["b"]), (3, ["c"])]

    def test_grouping_comparator_secondary_sort(self) -> None:
        """Composite keys grouped on their first field share one group."""
        grouping = comparator_from_key(lambda key: key[0])
        records = [(("a", 1), "x"), (("a", 2), "y"), (("b", 1), "z")]
        groups = list(group_runs(records, grouping))
        assert groups == [(("a", 1), ["x", "y"]), (("b", 1), ["z"])]

    def test_group_key_is_first_seen(self) -> None:
        grouping = comparator_from_key(lambda key: key[0])
        records = [(("a", 9), "x"), (("a", 1), "y")]
        groups = list(group_runs(records, grouping))
        assert groups[0][0] == ("a", 9)

    def test_raw_bytes_grouping_splits_equal_but_distinct_encodings(
        self,
    ) -> None:
        """``1 == 1.0`` in Python, but their bytes differ: two groups."""
        records = [(1, "a"), (1, "b"), (1.0, "c"), ("k", "d")]
        groups = list(group_runs(records, raw_bytes_comparator))
        assert groups == [(1, ["a", "b"]), (1.0, ["c"]), ("k", ["d"])]

    def test_custom_cmp_grouping(self) -> None:
        """A bare ``cmp`` (case-insensitive) groups through its wrapper."""
        def casefold_cmp(a, b):
            return _natural_cmp(a.lower(), b.lower())

        grouping = Comparator(casefold_cmp, name="casefold")
        records = [("A", 1), ("a", 2), ("B", 3), ("b", 4), ("c", 5)]
        groups = list(group_runs(records, grouping))
        assert groups == [("A", [1, 2]), ("B", [3, 4]), ("c", [5])]
