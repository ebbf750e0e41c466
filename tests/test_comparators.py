"""Unit tests for sort and grouping comparators."""

from __future__ import annotations

import pickle
from operator import itemgetter

import pytest

from repro.mr.comparators import (
    Comparator,
    comparator_from_key,
    default_comparator,
    raw_bytes_comparator,
)


class TestDefaultComparator:
    def test_cmp_signs(self) -> None:
        assert default_comparator.cmp(1, 2) < 0
        assert default_comparator.cmp(2, 1) > 0
        assert default_comparator.cmp(2, 2) == 0

    def test_min(self) -> None:
        assert default_comparator.min([3, 1, 2]) == 1
        assert default_comparator.min(["b", "a"]) == "a"

    def test_min_empty_raises(self) -> None:
        with pytest.raises(ValueError):
            default_comparator.min([])

    def test_sorted(self) -> None:
        assert default_comparator.sorted([3, 1, 2]) == [1, 2, 3]

    def test_is_natural_flag(self) -> None:
        assert default_comparator.is_natural
        assert not raw_bytes_comparator.is_natural

    def test_key_fn_usable_in_sorted(self) -> None:
        key_fn = default_comparator.key_fn()
        assert sorted([3, 1, 2], key=key_fn) == [1, 2, 3]


class TestRawBytesComparator:
    def test_orders_mixed_types(self) -> None:
        # ints and strings are not mutually comparable in Python, but
        # their serialised bytes are.
        ordered = raw_bytes_comparator.sorted([1, "a", 2, "b"])
        assert set(ordered) == {1, "a", 2, "b"}

    def test_equal_objects(self) -> None:
        assert raw_bytes_comparator.cmp("x", "x") == 0

    def test_distinguishes_int_and_float(self) -> None:
        # 1 == 1.0 in Python but their serialisations differ.
        assert raw_bytes_comparator.cmp(1, 1.0) != 0


class TestCustomComparators:
    def test_reverse_comparator(self) -> None:
        reverse = Comparator(lambda a, b: (a < b) - (a > b), name="rev")
        assert reverse.sorted([1, 3, 2]) == [3, 2, 1]
        assert reverse.min([1, 3, 2]) == 3

    def test_comparator_from_key(self) -> None:
        by_first = comparator_from_key(lambda pair: pair[0])
        assert by_first.cmp(("a", 2), ("a", 99)) == 0
        assert by_first.cmp(("a", 2), ("b", 0)) < 0

    def test_comparator_from_key_pickles(self) -> None:
        by_first = pickle.loads(pickle.dumps(comparator_from_key(itemgetter(0))))
        assert by_first.cmp(("a", 2), ("a", 99)) == 0
        assert by_first.cmp(("b", 0), ("a", 1)) > 0
        assert by_first.sorted([("b", 0), ("a", 1)]) == [("a", 1), ("b", 0)]

    def test_secondary_sort_consistency(self) -> None:
        """Grouping on a prefix must coarsen the full composite order."""
        grouping = comparator_from_key(lambda key: key[0])
        composite_keys = [("a", 2), ("a", 1), ("b", 0)]
        ordered = default_comparator.sorted(composite_keys)
        assert ordered == [("a", 1), ("a", 2), ("b", 0)]
        assert grouping.cmp(ordered[0], ordered[1]) == 0
        assert grouping.cmp(ordered[1], ordered[2]) < 0


class TestRecordKey:
    """``record_key`` keys compare with ``<``/``>`` as ``cmp`` signs."""

    @pytest.mark.parametrize(
        "comparator",
        [
            default_comparator,
            raw_bytes_comparator,
            Comparator(lambda a, b: (a < b) - (a > b), name="rev"),
        ],
        ids=lambda c: c.name,
    )
    def test_key_order_is_the_cmp_sign(self, comparator) -> None:
        items = [3, 1, 2, 1, -5, 300]
        key = comparator.record_key(1)
        for a in items:
            for b in items:
                ka, kb = key(("x", a)), key(("y", b))
                order = comparator.cmp(a, b)
                assert (ka > kb) - (ka < kb) == (order > 0) - (order < 0)

    def test_natural_key_is_an_itemgetter(self) -> None:
        assert isinstance(default_comparator.record_key(2), itemgetter)
        assert default_comparator.record_key(2)((0, 1, "k")) == "k"
