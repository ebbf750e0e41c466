"""Unit tests for the Shared data structure (paper Section 5)."""

from __future__ import annotations

import pytest

from repro.core.shared import Shared
from repro.mr import counters as C
from repro.mr import serde
from repro.mr.api import Combiner, Context
from repro.mr.comparators import comparator_from_key, default_comparator
from repro.mr.counters import Counters
from repro.mr.storage import LocalStore


class _SumCombiner(Combiner):
    def reduce(self, key, values, context):
        context.write(key, sum(values))


class _LeakyCombiner(Combiner):
    """Violates the contract: emits under a different key."""

    def reduce(self, key, values, context):
        context.write(key + 1, sum(values))


def _shared(counters=None, store=None, **kwargs) -> Shared:
    counters = counters if counters is not None else Counters()
    store = store if store is not None else LocalStore(counters)
    defaults = dict(
        comparator=default_comparator,
        grouping_comparator=default_comparator,
        store=store,
        counters=counters,
    )
    defaults.update(kwargs)
    return Shared(**defaults)


def _combine_context(counters) -> Context:
    return Context(counters, lambda k, v: None)


class TestBasics:
    def test_empty(self) -> None:
        shared = _shared()
        assert shared.is_empty()
        assert shared.peek_min_key() is None
        assert len(shared) == 0
        with pytest.raises(KeyError):
            shared.pop_min_key_values()

    def test_add_and_pop_in_key_order(self) -> None:
        shared = _shared()
        shared.add("c", 3)
        shared.add("a", 1)
        shared.add("b", 2)
        popped = [shared.pop_min_key_values() for _ in range(3)]
        assert popped == [("a", [1]), ("b", [2]), ("c", [3])]
        assert shared.is_empty()

    def test_multiple_values_per_key(self) -> None:
        shared = _shared()
        shared.add("k", 1)
        shared.add("k", 2)
        shared.add("k", 1)
        assert shared.pop_min_key_values() == ("k", [1, 2, 1])

    def test_peek_does_not_remove(self) -> None:
        shared = _shared()
        shared.add("x", 1)
        assert shared.peek_min_key() == "x"
        assert shared.peek_min_key() == "x"
        assert not shared.is_empty()

    def test_drain(self) -> None:
        shared = _shared()
        for key in ("b", "a", "c"):
            shared.add(key, key.upper())
        assert list(shared.drain()) == [
            ("a", ["A"]),
            ("b", ["B"]),
            ("c", ["C"]),
        ]

    def test_interleaved_add_and_pop(self) -> None:
        shared = _shared()
        shared.add("a", 1)
        assert shared.pop_min_key_values() == ("a", [1])
        shared.add("b", 2)
        shared.add("c", 3)
        assert shared.pop_min_key_values() == ("b", [2])
        shared.add("d", 4)
        assert shared.pop_min_key_values() == ("c", [3])
        assert shared.pop_min_key_values() == ("d", [4])

    def test_unhashable_keys(self) -> None:
        shared = _shared()
        shared.add([2, 1], "second")
        shared.add([1, 1], "first")
        shared.add([1, 1], "again")
        assert shared.pop_min_key_values() == ([1, 1], ["first", "again"])
        assert shared.pop_min_key_values() == ([2, 1], ["second"])

    def test_validation(self) -> None:
        with pytest.raises(ValueError, match="combine_context"):
            _shared(combiner=_SumCombiner())
        with pytest.raises(ValueError, match="combine_batch_size"):
            _shared(combine_batch_size=1)


class TestSpilling:
    def test_spills_when_over_budget(self) -> None:
        counters = Counters()
        shared = _shared(counters=counters, memory_limit_bytes=1024)
        for i in range(200):
            shared.add(i, "x" * 20)
        assert shared.spill_count > 0
        assert counters.get_int(C.ANTI_SHARED_SPILLS) == shared.spill_count
        assert counters.get(C.ANTI_SHARED_SPILLED_BYTES) > 0

    def test_pop_order_preserved_across_spills(self) -> None:
        shared = _shared(memory_limit_bytes=1024)
        import random

        rng = random.Random(5)
        keys = list(range(300))
        rng.shuffle(keys)
        for key in keys:
            shared.add(key, f"value-{key}" * 3)
        popped = [key for key, _ in shared.drain()]
        assert popped == sorted(keys)

    def test_values_merged_from_memory_and_runs(self) -> None:
        shared = _shared(memory_limit_bytes=1024)
        # first wave spills, second wave stays in memory
        for i in range(100):
            shared.add(i, "spilled" + "x" * 20)
        assert shared.spill_count > 0
        for i in range(100):
            shared.add(i, "fresh")
        for key, values in shared.drain():
            assert set(values) == {"spilled" + "x" * 20, "fresh"}

    def test_run_merging_when_over_threshold(self) -> None:
        shared = _shared(memory_limit_bytes=512, merge_threshold=2)
        for i in range(400):
            shared.add(i % 50, "x" * 30)
        # merge keeps the run count bounded
        assert len(shared._runs) <= 3
        popped = [key for key, _ in shared.drain()]
        assert popped == sorted(set(range(50)))

    def test_disk_accounting_via_store(self) -> None:
        counters = Counters()
        shared = _shared(counters=counters, memory_limit_bytes=512)
        for i in range(100):
            shared.add(i, "x" * 30)
        assert counters.get(C.DISK_WRITE_BYTES) > 0


class TestGroupingComparator:
    def test_pop_groups_by_grouping_comparator(self) -> None:
        grouping = comparator_from_key(lambda key: key[0])
        shared = _shared(grouping_comparator=grouping)
        shared.add(("a", 2), "second")
        shared.add(("a", 1), "first")
        shared.add(("b", 1), "other")
        key, values = shared.pop_min_key_values()
        assert key == ("a", 1)
        assert values == ["first", "second"]  # sort-key order
        assert shared.pop_min_key_values() == (("b", 1), ["other"])

    def test_grouping_across_spill_boundary(self) -> None:
        grouping = comparator_from_key(lambda key: key[0])
        shared = _shared(grouping_comparator=grouping, memory_limit_bytes=512)
        for seq in range(50):
            shared.add(("g", seq), "x" * 30)
        shared.add(("h", 0), "other")
        key, values = shared.pop_min_key_values()
        assert key == ("g", 0)
        assert len(values) == 50
        assert shared.pop_min_key_values()[0] == ("h", 0)


class TestCombineInShared:
    def test_values_fold_in_batches(self) -> None:
        counters = Counters()
        shared = _shared(
            counters=counters,
            combiner=_SumCombiner(),
            combine_context=_combine_context(counters),
            combine_batch_size=4,
        )
        for _ in range(10):
            shared.add("k", 1)
        # folded at size 4 twice; at most batch-size values in memory
        assert len(shared._table["k"].values) < 10
        key, values = shared.pop_min_key_values()
        assert key == "k"
        assert sum(values) == 10

    def test_combining_avoids_spills(self) -> None:
        counters = Counters()
        without = _shared(memory_limit_bytes=1024)
        for i in range(1000):
            without.add(i % 10, 1)
        combined = _shared(
            counters=counters,
            memory_limit_bytes=1024,
            combiner=_SumCombiner(),
            combine_context=_combine_context(counters),
        )
        for i in range(1000):
            combined.add(i % 10, 1)
        assert without.spill_count > 0
        assert combined.spill_count == 0
        assert [(k, sum(v)) for k, v in combined.drain()] == [
            (i, 100) for i in range(10)
        ]

    def test_contract_violating_combiner_is_ignored(self) -> None:
        counters = Counters()
        shared = _shared(
            counters=counters,
            combiner=_LeakyCombiner(),
            combine_context=_combine_context(counters),
            combine_batch_size=2,
        )
        for _ in range(6):
            shared.add(5, 1)
        key, values = shared.pop_min_key_values()
        assert key == 5
        assert values == [1] * 6  # raw values kept, nothing lost


class TestBatches:
    """``add_group`` / ``add_pairs`` / ``pop_groups``: one frame for a
    batch, the behaviour of that many single calls.  The cases are the
    ones ``tests/test_property_shared.py``'s machines shrink to when the
    batched code is broken in the obvious ways."""

    def test_a_fanned_out_value_is_sized_for_every_pair(self) -> None:
        # One value object under many keys is *sized* once but *charged*
        # per pair: the spill lands where single adds put it.
        value = "x" * 40
        keys = list(range(30))
        runs = []
        for feed in ("add", "add_group", "add_pairs"):
            counters = Counters()
            shared = _shared(counters=counters, memory_limit_bytes=256)
            if feed == "add":
                for key in keys:
                    shared.add(key, value)
            elif feed == "add_group":
                shared.add_group(keys[0], keys[1:], value)
            else:
                shared.add_pairs([(key, value) for key in keys])
            runs.append(
                (
                    counters.get_int(C.ANTI_SHARED_SPILLS),
                    counters.get_int(C.ANTI_SHARED_SPILLED_BYTES),
                    counters.get_int(C.ANTI_SHARED_SPILLED_RECORDS),
                    len(shared),
                    list(shared.drain()),
                )
            )
        assert runs[0][0] > 1
        assert runs[0] == runs[1] == runs[2]

    def test_same_item_tuples_spill_as_sizing_each_value_would(
        self, monkeypatch
    ) -> None:
        # A LazySH re-execution builds a fresh ("S", record) per key: it
        # is sized once per run of such tuples, and the spills land on
        # the pairs where sizing each value puts them.  Equal tuples of
        # other objects (("S", 1) == ("S", True)) are sized afresh.
        record = (3, 40, -12, *range(8))
        pairs = [(key, ("S", record)) for key in range(12)]
        pairs += [(key, ("T", record)) for key in range(12, 24)]
        pairs += [(24, ("S", 1)), (25, ("S", True)), (26, ("S", 1.0))]
        sized: list = []
        approx_size = serde.approx_size

        def counting(obj):
            if type(obj) is tuple:
                sized.append(obj)
            return approx_size(obj)

        monkeypatch.setattr(serde, "approx_size", counting)
        runs = []
        for feed in ("add_pairs", "add"):
            counters = Counters()
            shared = _shared(counters=counters, memory_limit_bytes=300)
            spills_after = []
            if feed == "add_pairs":
                shared.add_pairs(pairs)
            else:
                for key, value in pairs:
                    shared.add(key, value)
                    spills_after.append(shared.spill_count)
            runs.append(
                (
                    counters.get_int(C.ANTI_SHARED_SPILLS),
                    counters.get_int(C.ANTI_SHARED_SPILLED_BYTES),
                    counters.get_int(C.ANTI_SHARED_SPILLED_RECORDS),
                    len(shared),
                    list(shared.drain()),
                )
            )
            if feed == "add_pairs":
                # One ("S", record), one ("T", record), three equals.
                assert sized == [pairs[0][1], pairs[12][1]] + [
                    value for _, value in pairs[24:]
                ]
            sized.clear()
        assert runs[0][0] > 1 and spills_after[-1] == runs[0][0]
        assert runs[0] == runs[1]

    def test_pop_groups_stops_at_the_bound(self) -> None:
        shared = _shared()
        shared.add_pairs([(key, key.upper()) for key in "dbca"])
        assert shared.pop_groups("c") == [("a", ["A"]), ("b", ["B"])]
        assert shared.pop_groups("c") == []
        assert shared.pop_groups("c", inclusive=True) == [("c", ["C"])]
        assert shared.peek_min_key() == "d"
        assert shared.pop_groups("z") == [("d", ["D"])]
        assert shared.is_empty() and shared.idle

    def test_pop_groups_takes_a_grouping_equal_neighbour_whole(self) -> None:
        # ``[1]`` and ``[1.0]`` order as equals but serialise (and so
        # hash-table) differently: two heap entries, one group.
        shared = _shared()
        shared.add_pairs([([1], "int"), ([2], "two"), ([1.0], "float")])
        groups = shared.pop_groups([2])
        assert len(groups) == 1
        assert groups[0][0] == [1]
        assert sorted(groups[0][1]) == ["float", "int"]
        assert shared.pop_groups([2], inclusive=True) == [([2], ["two"])]

    def test_pop_groups_reads_spilled_runs(self) -> None:
        shared = _shared(memory_limit_bytes=256)
        for key in range(40):
            shared.add(key, "x" * 20)
        assert shared.spill_count > 0 and not shared.idle
        groups = shared.pop_groups(30)
        assert [key for key, _ in groups] == list(range(30))
        assert all(values == ["x" * 20] for _, values in groups)
        assert shared.peek_min_key() == 30

    def test_pop_groups_under_an_opaque_comparator(self) -> None:
        from repro.mr.comparators import Comparator

        descending = Comparator(lambda a, b: (a < b) - (a > b), name="desc")
        shared = _shared(comparator=descending, grouping_comparator=descending)
        shared.add_group(3, [1, 2], "v")
        assert shared.pop_groups(2) == [(3, ["v"])]
        assert shared.pop_groups(2, inclusive=True) == [(2, ["v"])]
        assert shared.pop_groups(0) == [(1, ["v"])]
        assert shared.idle

    def test_idle_follows_every_insert_and_pop(self) -> None:
        shared = _shared(memory_limit_bytes=64)
        assert shared.idle
        shared.add_pairs([])
        assert shared.idle
        shared.add("k", "v" * 100)  # over budget: straight to a run
        assert shared.spill_count == 1 and len(shared) == 0
        assert not shared.idle
        assert shared.pop_min_key_values() == ("k", ["v" * 100])
        assert shared.idle
