"""Unit tests for the reduce task driver."""

from __future__ import annotations

from repro.mr import counters as C
from repro.mr.api import Mapper, Partitioner, Reducer
from repro.mr.comparators import comparator_from_key
from repro.mr.config import JobConf
from repro.mr.cost import GROUP_CALLS_PER_BATCH, FixedCostMeter
from repro.mr.maptask import MapTask
from repro.mr.reducetask import ReduceTask


class _ModPartitioner(Partitioner):
    def get_partition(self, key, num_partitions):
        if isinstance(key, tuple):
            key = key[0]
        return key % num_partitions


class _CollectReducer(Reducer):
    def reduce(self, key, values, context):
        context.write(key, list(values))


def _job(**kwargs) -> JobConf:
    defaults = dict(
        mapper=Mapper,
        reducer=_CollectReducer,
        partitioner=_ModPartitioner(),
        num_reducers=2,
        cost_meter=FixedCostMeter(),
    )
    defaults.update(kwargs)
    return JobConf(**defaults)


def _run_map_tasks(job, splits):
    return [
        MapTask(job, f"map{i}").run(split) for i, split in enumerate(splits)
    ]


class TestReduceTask:
    def test_merges_segments_and_groups(self) -> None:
        job = _job()
        maps = _run_map_tasks(
            job, [[(0, "a"), (2, "b")], [(0, "c"), (4, "d")]]
        )
        segments = [m.segments[0] for m in maps if 0 in m.segments]
        result = ReduceTask(job, 0).run(segments)
        assert result.output == [(0, ["a", "c"]), (2, ["b"]), (4, ["d"])]
        assert result.counters.get_int(C.REDUCE_INPUT_GROUPS) == 3
        assert result.counters.get_int(C.REDUCE_INPUT_RECORDS) == 4

    def test_empty_input(self) -> None:
        result = ReduceTask(_job(), 1).run([])
        assert result.output == []
        assert result.counters.get_int(C.REDUCE_INPUT_GROUPS) == 0

    def test_shuffle_bytes_accounted(self) -> None:
        job = _job()
        maps = _run_map_tasks(job, [[(0, "payload")]])
        segments = [maps[0].segments[0]]
        result = ReduceTask(job, 0).run(segments)
        assert result.shuffle_bytes == segments[0].size_bytes

    def test_staging_when_fetch_exceeds_buffer(self) -> None:
        job = _job(reduce_buffer_bytes=1024)
        big_split = [(0, "x" * 100) for _ in range(100)]
        maps = _run_map_tasks(job, [big_split])
        segments = [maps[0].segments[0]]
        result = ReduceTask(job, 0).run(segments)
        # staged: fetched data written to the reduce task's local disk
        assert result.counters.get(C.DISK_WRITE_BYTES) > 0
        assert result.output[0][0] == 0

    def test_no_staging_when_fetch_fits(self) -> None:
        job = _job(reduce_buffer_bytes=1 << 20)
        maps = _run_map_tasks(job, [[(0, "small")]])
        result = ReduceTask(job, 0).run([maps[0].segments[0]])
        assert result.counters.get(C.DISK_WRITE_BYTES) == 0

    def test_multi_pass_merge(self) -> None:
        job = _job(merge_factor=2)
        splits = [[(0, f"s{i}")] for i in range(5)]
        maps = _run_map_tasks(job, splits)
        segments = [m.segments[0] for m in maps]
        result = ReduceTask(job, 0).run(segments)
        # value order within a key is unspecified (as in Hadoop), but
        # the group must be complete and delivered in one reduce call
        assert len(result.output) == 1
        key, values = result.output[0]
        assert key == 0
        assert sorted(values) == [f"s{i}" for i in range(5)]

    def test_multi_pass_merge_charged_like_the_map_side(self) -> None:
        """Each intermediate pass charges merge, its reads, then its
        write — serialisation and a metered compress — as a map-side
        pass does; the last merge charges merge and reads."""
        job = _job(merge_factor=2, map_output_codec="gzip")
        maps = _run_map_tasks(job, [[(0, f"s{i}")] for i in range(5)])
        segments = [m.segments[0] for m in maps]
        result = ReduceTask(job, 0).run(segments)

        model = job.framework_cost_model
        raw = [segment.raw_bytes for segment in segments]
        # Runs are (records, raw bytes); passes take the first two and
        # append their output: s0+s1 -> m0, s2+s3 -> m1, s4+m0 -> m2,
        # then the last merge reads m1 and m2.
        runs = [(1, size) for size in raw]
        framework = 0.0
        codec = 0.0
        while len(runs) > 2:
            batch, runs = runs[:2], runs[2:]
            records = sum(count for count, _ in batch)
            framework += model.merge_cost(records, 2)
            for _, size in batch:
                framework += model.serialize_cost(size)
                codec += 1e-6
            written = sum(size for _, size in batch)
            framework += model.serialize_cost(written)
            codec += 1e-6
            runs.append((records, written))
        framework += model.merge_cost(5, 2)
        for _, size in runs:
            framework += model.serialize_cost(size)
            codec += 1e-6
        assert result.counters.get(C.CPU_FRAMEWORK_SECONDS) == framework
        assert result.counters.get(C.CPU_CODEC_SECONDS) == codec
        assert sorted(result.output[0][1]) == [f"s{i}" for i in range(5)]

    def test_reduce_output_counters(self) -> None:
        job = _job()
        maps = _run_map_tasks(job, [[(0, "a")]])
        result = ReduceTask(job, 0).run([maps[0].segments[0]])
        assert result.counters.get_int(C.REDUCE_OUTPUT_RECORDS) == 1
        assert result.counters.get(C.HDFS_WRITE_BYTES) > 0

    def test_setup_groups_cleanup_all_metered(self) -> None:
        """More groups than one metered batch holds: setup, every
        group's reduce call and cleanup are each charged once."""
        groups = GROUP_CALLS_PER_BATCH + 100
        job = _job(cost_meter=FixedCostMeter(cost_per_call=1.0))
        maps = _run_map_tasks(
            job, [[(2 * i, "a") for i in range(groups)], [(0, "b")]]
        )
        segments = [m.segments[0] for m in maps]
        result = ReduceTask(job, 0).run(segments)
        assert result.counters.get_int(C.REDUCE_INPUT_GROUPS) == groups
        assert result.counters.get_int(C.REDUCE_INPUT_RECORDS) == groups + 1
        assert result.counters.get(C.CPU_REDUCE_SECONDS) == 1 + groups + 1


class TestSecondarySort:
    def test_grouping_comparator_drives_reduce_calls(self) -> None:
        """Composite (key, seq) records grouped by key, sorted by seq."""

        class SecondaryMapper(Mapper):
            def map(self, key, value, context):
                context.write((value[0], value[1]), value[1])

        job = _job(
            mapper=SecondaryMapper,
            grouping_comparator=comparator_from_key(lambda key: key[0]),
        )
        split = [(i, (0, seq)) for i, seq in enumerate([3, 1, 2])]
        maps = _run_map_tasks(job, [split])
        result = ReduceTask(job, 0).run([maps[0].segments[0]])
        # one reduce call for the whole group, values in seq order
        assert len(result.output) == 1
        key, values = result.output[0]
        assert key[0] == 0
        assert values == [1, 2, 3]
