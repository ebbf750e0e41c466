"""Unit tests for the job API: contexts, partitioners, base classes."""

from __future__ import annotations

import copy
import pickle
import zlib

import pytest

from repro.mr.api import (
    Combiner,
    Context,
    HashPartitioner,
    KeyFieldPartitioner,
    Mapper,
    PartitionMemo,
    Reducer,
    exact_key,
    run_reducer_on_group,
    stable_hash,
)
from repro.mr import serde
from repro.mr.counters import Counters


class TestStableHash:
    def test_deterministic_across_calls(self) -> None:
        assert stable_hash("query") == stable_hash("query")

    def test_spread(self) -> None:
        values = {stable_hash(f"key{i}") for i in range(100)}
        assert len(values) > 90

    def test_works_for_compound_keys(self) -> None:
        assert stable_hash(("row", 7)) != stable_hash(("col", 7))

    @pytest.mark.parametrize("order", [1, -1])
    def test_memo_answers_what_an_encode_would(self, order, monkeypatch) -> None:
        """Tuples of exact ``str``/``int`` are memoised; equal tuples of
        other item types are not, whichever is asked first."""
        import repro.mr.api as api

        monkeypatch.setattr(api, "_HASH_MEMO", {})
        keys = [
            ("row", 1), ("row", True), ("row", 1.0), ("row", 1),
            (1, "a"), (True, "a"), (1.0, "a"),
            (1, 2, 3), (1, 2, 3.0), (True, 2, 3),
            (("row", 1),), ((("row", True),),),
            (), ("",), (1 << 70, "x"), (-(1 << 70), "x"),
        ]
        for key in keys[::order] * 2:
            assert stable_hash(key) == zlib.crc32(serde.encode(key)), key
        assert set(api._HASH_MEMO) == {
            (tuple, key) for key in keys if exact_key(key)
        }


class TestPartitioners:
    def test_hash_partitioner_range(self) -> None:
        partitioner = HashPartitioner()
        for key in ["a", "b", 1, (2, 3), None]:
            assert 0 <= partitioner.get_partition(key, 7) < 7

    def test_hash_partitioner_stable(self) -> None:
        partitioner = HashPartitioner()
        assert partitioner.get_partition("x", 5) == partitioner.get_partition("x", 5)

    def test_key_field_partitioner(self) -> None:
        partitioner = KeyFieldPartitioner(lambda key: key[0])
        assert partitioner.get_partition(("a", 1), 9) == partitioner.get_partition(
            ("a", 2), 9
        )

    def test_base_partitioner_abstract(self) -> None:
        from repro.mr.api import Partitioner

        with pytest.raises(NotImplementedError):
            Partitioner().get_partition("k", 2)


class TestPartitionMemo:
    @staticmethod
    def _memo():
        calls: list = []

        def get_partition(key, num_partitions):
            calls.append(key)
            return len(key) % num_partitions

        return PartitionMemo(get_partition, 3), calls

    def test_asks_once_per_distinct_key(self) -> None:
        memo, calls = self._memo()
        records = [("a", 1), ("bb", 2), ("a", 3)]
        assert memo.of_records(records) == [1, 2, 1]
        assert memo.of_records(records) == [1, 2, 1]
        assert calls == ["a", "bb"]

    def test_unhashable_key_asks_for_every_record(self) -> None:
        memo, calls = self._memo()
        records = [("a", 1), (["x", "y"], 2), ("a", 3)]
        assert memo.of_records(records) == [1, 2, 1]
        assert calls[-3:] == ["a", ["x", "y"], "a"]

    def test_records_in_keeps_one_partition_in_order(self) -> None:
        memo, calls = self._memo()
        records = [("a", 1), ("bb", 2), ("a", 3), ("dddd", 4)]
        assert memo.records_in(records, 1) == [("a", 1), ("a", 3), ("dddd", 4)]
        assert memo.records_in(records, 0) == []
        assert calls == ["a", "bb", "dddd"]
        unhashable = [(["x"], 1), ("a", 2)]
        assert memo.records_in(unhashable, 1) == unhashable

    def test_cleared_when_full(self, monkeypatch) -> None:
        import repro.mr.api as api

        monkeypatch.setattr(api, "_PARTITION_MEMO_LIMIT", 2)
        memo, _ = self._memo()
        memo.of_records([("a", 0), ("bb", 0), ("ccc", 0)])
        assert dict(memo) == {"ccc": 0}

    def test_one_memo_per_partitioner_and_reducer_count(self) -> None:
        partitioner = HashPartitioner()
        memo = PartitionMemo.of(partitioner, 3)
        assert PartitionMemo.of(partitioner, 3) is memo
        assert PartitionMemo.of(partitioner, 4) is not memo
        assert PartitionMemo.of(HashPartitioner(), 3) is not memo
        for _ in range(2):
            ctx = Context(
                Counters(),
                lambda k, v: None,
                partitioner=partitioner,
                num_partitions=3,
            )
            assert ctx.partitions is memo

    @pytest.mark.parametrize(
        "keys", [(1, 1.0, True), (1.0, True, 1), (True, 1, 1.0)]
    )
    def test_equal_keys_of_other_types_ask_the_partitioner(self, keys) -> None:
        """``1 == 1.0 == True``, but each encodes, and so hashes, apart:
        whichever is asked first, each gets its own partition."""
        partitioner = HashPartitioner()
        expected = [partitioner.get_partition(key, 8) for key in keys]
        assert len(set(expected)) == 3
        memo = PartitionMemo.of(partitioner, 8)
        assert memo.of_records([(key, 0) for key in keys]) == expected
        for key, partition in zip(keys, expected):
            assert memo.records_in([(key, 0)], partition) == [(key, 0)]
        for mixed in ((1, "a"), ("a", 1.0), (1, (2, True))):
            records = [(key, 0) for key in (*mixed, *keys)]
            assert memo.of_records(records) == [
                partitioner.get_partition(key, 8) for key, _ in records
            ]

    def test_exact_keys(self) -> None:
        for key in ("a", 7, -(1 << 80), ("row", 7), (), ("a", "b")):
            assert exact_key(key)
        for key in (1.0, True, None, b"a", ("row", True), ("a", 1.0), (("a",),)):
            assert not exact_key(key)

    def test_pickled_or_copied_it_arrives_empty(self) -> None:
        partitioner = HashPartitioner()
        keys = [(f"k{index}", 0) for index in range(100)]
        expected = [partitioner.get_partition(key, 3) for key, _ in keys]
        assert PartitionMemo.of(partitioner, 3).of_records(keys) == expected
        for clone in (
            pickle.loads(pickle.dumps(partitioner)),
            copy.deepcopy(partitioner),
            copy.copy(partitioner),
        ):
            memo = PartitionMemo.of(clone, 3)
            assert not memo and memo is not PartitionMemo.of(partitioner, 3)
            assert memo.of_records(keys) == expected
        assert len(PartitionMemo.of(partitioner, 3)) == 100
        assert len(pickle.dumps(partitioner)) < 300


class TestContext:
    def test_write_goes_to_sink(self) -> None:
        collected = []
        ctx = Context(Counters(), lambda k, v: collected.append((k, v)))
        ctx.write("k", "v")
        ctx.emit("k2", "v2")
        assert collected == [("k", "v"), ("k2", "v2")]

    def test_with_sink_overrides_sink_only(self) -> None:
        ctx = Context(
            Counters(),
            lambda k, v: None,
            partitioner=HashPartitioner(),
            num_partitions=3,
            task_id="t",
            partition=1,
        )
        collected = []
        new_ctx = ctx.with_sink(lambda k, v: collected.append((k, v)))
        new_ctx.write("a", 1)
        assert collected == [("a", 1)]
        assert new_ctx.partition == 1
        assert new_ctx.num_partitions == 3
        assert new_ctx.counters is ctx.counters

    def test_derived_contexts_share_the_partition_memo(self) -> None:
        ctx = Context(
            Counters(),
            lambda k, v: None,
            partitioner=HashPartitioner(),
            num_partitions=3,
            task_id="t",
            partition=1,
            store="store",
        )
        assert ctx.partitions is not None and not ctx.partitions
        captured: list = []
        for derived in (
            ctx.with_sink(lambda k, v: None),
            ctx.with_sink(lambda k, v: None, partition=2),
            ctx.with_capture(captured),
            ctx.with_capture(captured).with_sink(lambda k, v: None),
        ):
            assert derived.partitions is ctx.partitions
            assert derived.partitioner is ctx.partitioner
            assert derived.task_id == "t" and derived.store == "store"
        ctx.with_capture(captured).write("k", "v")
        assert captured == [("k", "v")]
        assert Context(Counters(), lambda k, v: None).partitions is None

    def test_with_sink_partition_override(self) -> None:
        ctx = Context(Counters(), lambda k, v: None, partition=1)
        assert ctx.with_sink(lambda k, v: None, partition=5).partition == 5

    def test_get_partition(self) -> None:
        ctx = Context(
            Counters(),
            lambda k, v: None,
            partitioner=HashPartitioner(),
            num_partitions=4,
        )
        assert 0 <= ctx.get_partition("key") < 4

    def test_get_partition_without_partitioner(self) -> None:
        ctx = Context(Counters(), lambda k, v: None)
        with pytest.raises(RuntimeError):
            ctx.get_partition("key")


class TestBaseClasses:
    def test_identity_mapper(self) -> None:
        collected = []
        ctx = Context(Counters(), lambda k, v: collected.append((k, v)))
        Mapper().map("k", "v", ctx)
        assert collected == [("k", "v")]

    def test_identity_reducer(self) -> None:
        collected = []
        ctx = Context(Counters(), lambda k, v: collected.append((k, v)))
        Reducer().reduce("k", iter([1, 2]), ctx)
        assert collected == [("k", 1), ("k", 2)]

    def test_combiner_is_a_reducer(self) -> None:
        assert issubclass(Combiner, Reducer)

    def test_run_reducer_on_group(self) -> None:
        class Summing(Reducer):
            def reduce(self, key, values, context):
                context.write(key, sum(values))

        ctx = Context(Counters(), lambda k, v: None)
        assert run_reducer_on_group(Summing(), "k", [1, 2, 3], ctx) == [("k", 6)]
