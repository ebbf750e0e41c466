"""Unit tests for the map-side sort buffer (collect/spill/combine/merge)."""

from __future__ import annotations

import functools

import pytest

from repro.mr import counters as C
from repro.mr import serde
from repro.mr.api import Combiner, Context, HashPartitioner, Mapper, Partitioner, Reducer
from repro.mr.buffer import MapOutputBuffer
from repro.mr.comparators import (
    Comparator,
    default_comparator,
    raw_bytes_comparator,
)
from repro.mr.config import JobConf
from repro.mr.counters import Counters
from repro.mr.cost import FixedCostMeter, TableCostMeter
from repro.mr.storage import LocalStore


class _ModPartitioner(Partitioner):
    def get_partition(self, key, num_partitions):
        return key % num_partitions


class _SumCombiner(Combiner):
    def reduce(self, key, values, context):
        context.write(key, sum(values))


def _make_buffer(**job_kwargs):
    defaults = dict(
        mapper=Mapper,
        reducer=Reducer,
        partitioner=_ModPartitioner(),
        num_reducers=4,
        cost_meter=FixedCostMeter(),
        sort_buffer_bytes=64 * 1024,
    )
    defaults.update(job_kwargs)
    job = JobConf(**defaults)
    counters = Counters()
    store = LocalStore(counters)
    context = Context(
        counters=counters,
        sink=lambda k, v: None,
        partitioner=job.partitioner,
        num_partitions=job.num_reducers,
        task_id="map0",
        store=store,
    )
    return MapOutputBuffer(job, store, context, "map0"), counters, store


def _all_records(segments):
    return {
        partition: list(segment.scan())
        for partition, segment in segments.items()
    }


class TestCollect:
    def test_in_memory_finalize(self) -> None:
        buffer, counters, _ = _make_buffer()
        buffer.collect(0, "a")
        buffer.collect(1, "b")
        buffer.collect(4, "c")  # partition 0 again
        segments = buffer.finalize()
        records = _all_records(segments)
        assert records[0] == [(0, "a"), (4, "c")]
        assert records[1] == [(1, "b")]
        assert counters.get_int(C.MAP_OUTPUT_RECORDS) == 3
        assert counters.get(C.MAP_OUTPUT_BYTES) > 0
        assert buffer.spill_count == 0

    def test_records_sorted_within_partition(self) -> None:
        buffer, _, _ = _make_buffer()
        for key in (8, 0, 4):
            buffer.collect(key, "v")
        records = _all_records(buffer.finalize())
        assert [k for k, _ in records[0]] == [0, 4, 8]

    def test_invalid_partition_rejected(self) -> None:
        class Bad(Partitioner):
            def get_partition(self, key, num_partitions):
                return num_partitions  # out of range

        buffer, _, _ = _make_buffer(partitioner=Bad())
        with pytest.raises(ValueError, match="outside"):
            buffer.collect(1, "v")

    def test_collect_after_finalize_rejected(self) -> None:
        buffer, _, _ = _make_buffer()
        buffer.finalize()
        with pytest.raises(RuntimeError):
            buffer.collect(0, "v")
        with pytest.raises(RuntimeError):
            buffer.collect_batch([])  # nothing to add is still a misuse
        with pytest.raises(RuntimeError):
            buffer.finalize()

    def test_partition_cpu_charged(self) -> None:
        buffer, counters, _ = _make_buffer()
        buffer.collect(0, "a")
        assert counters.get(C.CPU_PARTITION_SECONDS) == pytest.approx(1e-6)


class TestSpilling:
    def test_spill_on_bytes(self) -> None:
        buffer, counters, _ = _make_buffer(sort_buffer_bytes=1024)
        for i in range(100):
            buffer.collect(i, "x" * 40)
        assert buffer.spill_count >= 1
        assert counters.get_int(C.MAP_SPILLS) == buffer.spill_count

    def test_spill_on_record_count(self) -> None:
        # 16 KiB * 0.05 / 16 = 51 records per spill window.
        buffer, counters, _ = _make_buffer(sort_buffer_bytes=16 * 1024)
        for i in range(103):
            buffer.collect(i, 0)
        assert buffer.spill_count == 2
        assert counters.get_int(C.MAP_SPILLED_RECORDS) == 102

    def test_merged_output_is_sorted(self) -> None:
        buffer, counters, _ = _make_buffer(sort_buffer_bytes=2048)
        import random

        rng = random.Random(3)
        keys = [rng.randrange(1000) * 4 for _ in range(300)]  # partition 0
        for key in keys:
            buffer.collect(key, "payload")
        segments = buffer.finalize()
        merged_keys = [k for k, _ in segments[0].scan()]
        assert merged_keys == sorted(keys)
        assert counters.get_int(C.MAP_SPILLS) > 1

    def test_multi_pass_merge_with_small_factor(self) -> None:
        buffer, _, _ = _make_buffer(sort_buffer_bytes=1024, merge_factor=2)
        keys = list(range(0, 1200, 4))
        for key in keys:
            buffer.collect(key, "x" * 30)
        segments = buffer.finalize()
        assert [k for k, _ in segments[0].scan()] == sorted(keys)

    def test_merge_passes_move_stored_bytes(self, monkeypatch) -> None:
        """Without a Combiner no merge runs user code: every pass,
        intermediate and final, moves records as their stored bytes —
        no value decoded, no record re-encoded — and writes what
        decoding, merging and re-encoding would."""
        buffer, counters, _ = _make_buffer(sort_buffer_bytes=16 * 1024)
        # A key's value is a function of the key: records that tie are
        # identical, so the reference need not model tie order.
        keys = [(i * 7919) % 400 for i in range(700)]
        values = {key: ("v", key, [float(key)] * (key % 5)) for key in keys}
        for key in keys:
            buffer.collect(key, values[key])
        calls = {"decode_stream": 0, "append_records": 0}
        for name in calls:
            original = getattr(serde, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(serde, name, counted)
        segments = buffer.finalize()
        assert buffer.spill_count >= 12
        assert counters.get_int(C.MAP_SPILLS) == buffer.spill_count
        assert calls == {"decode_stream": 0, "append_records": 0}
        monkeypatch.undo()
        for partition, segment in segments.items():
            expected = bytearray()
            serde.append_records(
                expected,
                sorted((k, values[k]) for k in keys if k % 4 == partition),
            )
            assert segment.store.peek_file(segment.name) == bytes(expected)

    def test_single_spill_becomes_final_output(self) -> None:
        """One spill + empty buffer = rename, no extra disk traffic."""
        buffer, counters, _ = _make_buffer(sort_buffer_bytes=16 * 1024)
        for i in range(51):  # exactly one record-limit spill
            buffer.collect(i, 0)
        write_after_spill = counters.get(C.DISK_WRITE_BYTES)
        segments = buffer.finalize()
        assert counters.get(C.DISK_WRITE_BYTES) == write_after_spill
        assert sum(s.record_count for s in segments.values()) == 51


def _descending(a, b) -> int:
    return (b > a) - (b < a)


class TestSpillOrder:
    """A spill writes each partition's records in the order one stable
    sort on ``(partition, key)`` gives, under every kind of comparator."""

    @pytest.mark.parametrize(
        "comparator",
        [
            default_comparator,
            raw_bytes_comparator,
            Comparator(_descending, name="descending"),
        ],
        ids=["natural", "encoded-bytes", "custom-cmp"],
    )
    def test_spill_segments_match_stable_sort(self, comparator) -> None:
        # 51 records per spill window (16 KiB buffer); keys repeat, the
        # values tell tied records apart, and partition 3 stays empty.
        buffer, counters, store = _make_buffer(
            sort_buffer_bytes=16 * 1024, comparator=comparator
        )
        records = [
            ((i * 37) % 7 * 4 + i % 3, f"v{i}") for i in range(102)
        ]
        for key, value in records:
            buffer.collect(key, value)
        assert counters.get_int(C.MAP_SPILLS) == 2
        key_fn = functools.cmp_to_key(comparator.cmp)
        for spill in range(2):
            window = records[spill * 51 : (spill + 1) * 51]
            expected = sorted(
                window, key=lambda rec: (rec[0] % 4, key_fn(rec[0]))
            )
            assert not store.exists(f"map0/spill{spill}/p3")
            for partition in range(3):
                pairs = [rec for rec in expected if rec[0] % 4 == partition]
                assert len({key for key, _ in pairs}) < len(pairs)
                raw = bytearray()
                serde.append_records(raw, pairs)
                name = f"map0/spill{spill}/p{partition}"
                assert store.peek_file(name) == bytes(raw)


class TestCompression:
    def test_compressed_segments_smaller(self) -> None:
        plain, _, _ = _make_buffer()
        packed, _, _ = _make_buffer(map_output_codec="gzip")
        for buffer in (plain, packed):
            for i in range(200):
                buffer.collect(0, "repetitive payload " * 3)
        plain_size = sum(s.size_bytes for s in plain.finalize().values())
        packed_size = sum(s.size_bytes for s in packed.finalize().values())
        assert packed_size < plain_size / 2

    def test_materialized_counter_tracks_segments(self) -> None:
        buffer, counters, _ = _make_buffer()
        buffer.collect(0, "abc")
        segments = buffer.finalize()
        total = sum(s.size_bytes for s in segments.values())
        assert counters.get_int(C.MAP_OUTPUT_MATERIALIZED_BYTES) == total


class TestSpillCombine:
    def test_combiner_applied_per_spill(self) -> None:
        buffer, counters, _ = _make_buffer(
            combiner=_SumCombiner, sort_buffer_bytes=16 * 1024
        )
        for _ in range(60):  # > 51, so one spill plus in-memory tail
            buffer.collect(4, 1)
        segments = buffer.finalize()
        records = list(segments[0].scan())
        # one combined record per spill window
        assert [k for k, _ in records] == [4, 4]
        assert sum(v for _, v in records) == 60
        assert counters.get_int(C.COMBINE_INPUT_RECORDS) == 60
        assert counters.get_int(C.COMBINE_OUTPUT_RECORDS) == 2

    def test_combiner_at_final_merge_needs_min_spills(self) -> None:
        buffer, _, _ = _make_buffer(
            combiner=_SumCombiner, sort_buffer_bytes=16 * 1024
        )
        for _ in range(51 * 3 + 10):  # >= 3 spills triggers merge combine
            buffer.collect(4, 1)
        segments = buffer.finalize()
        records = list(segments[0].scan())
        assert records == [(4, 163)]

    def test_combiner_at_final_merge_gets_decoded_values(self) -> None:
        seen: list = []

        class Recording(_SumCombiner):
            def reduce(self, key, values, context):
                values = list(values)
                seen.append(values)
                super().reduce(key, iter(values), context)

        buffer, _, _ = _make_buffer(
            combiner=Recording, sort_buffer_bytes=16 * 1024
        )
        for _ in range(51 * 3 + 10):
            buffer.collect(4, 1)
        buffer.finalize()
        assert buffer.spill_count >= 3
        # Four spill-time calls, then the final merge's one call over
        # the four combined values — ints, not stored bytes.
        assert seen[-1] == [51, 51, 51, 10]

    def test_combine_cpu_charged(self) -> None:
        buffer, counters, _ = _make_buffer(combiner=_SumCombiner)
        buffer.collect(0, 1)
        buffer.collect(0, 2)
        buffer.finalize()
        assert counters.get(C.CPU_COMBINE_SECONDS) > 0

    def test_combiner_setup_and_cleanup_cpu_charged(self) -> None:
        """A stateful combiner does work in ``setup``/``cleanup`` (the
        spill-time AntiCombiner drains Shared there): every combiner
        run charges both, as map and reduce tasks charge theirs."""
        runs = []

        class Counting(_SumCombiner):
            def setup(self, context):
                runs.append(context)

        buffer, counters, _ = _make_buffer(
            combiner=Counting,
            sort_buffer_bytes=16 * 1024,
            cost_meter=TableCostMeter({"setup": 1.0, "cleanup": 2.0}),
        )
        for i in range(51 * 3 + 10):  # 4 spills, 2 partitions, merge combine
            buffer.collect(i % 2, 1)
        buffer.finalize()
        assert len(runs) == 4 * 2 + 2
        assert counters.get(C.CPU_COMBINE_SECONDS) == 3.0 * len(runs)

    def test_combiner_setup_groups_cleanup_all_metered(self) -> None:
        """Each combiner run — per (spill, partition), and at the final
        merge — is charged its setup, one call per group and its
        cleanup, also past one metered batch of groups."""
        runs = []
        calls = []

        class Counting(_SumCombiner):
            def setup(self, context):
                runs.append(context)

            def reduce(self, key, values, context):
                calls.append(key)
                super().reduce(key, values, context)

        # In memory: one run per partition, 600 groups each.
        buffer, counters, _ = _make_buffer(
            combiner=Counting,
            sort_buffer_bytes=1 << 20,
            cost_meter=FixedCostMeter(cost_per_call=1.0),
        )
        for i in range(4 * 600):
            buffer.collect(i, 1)
        buffer.finalize()
        assert buffer.spill_count == 0
        assert (len(runs), len(calls)) == (4, 2400)
        assert counters.get(C.CPU_COMBINE_SECONDS) == 4 * (1 + 600 + 1)

        # Spilled: per (spill, partition) plus the final merge's runs.
        runs.clear()
        calls.clear()
        buffer, counters, _ = _make_buffer(
            combiner=Counting,
            sort_buffer_bytes=16 * 1024,
            cost_meter=FixedCostMeter(cost_per_call=1.0),
        )
        for i in range(51 * 3 + 10):
            buffer.collect(i % 4, 1)
        buffer.finalize()
        assert buffer.spill_count == 4
        assert len(runs) == 4 * 4 + 4
        assert counters.get(C.CPU_COMBINE_SECONDS) == 2 * len(runs) + len(
            calls
        )
