"""Unit tests for the map task driver."""

from __future__ import annotations

import pytest

from repro.mr import counters as C
from repro.mr.api import Mapper, Partitioner, Reducer
from repro.mr.config import JobConf
from repro.mr.cost import FixedCostMeter
from repro.mr.counters import Counters
from repro.mr.maptask import MapTask


class _ModPartitioner(Partitioner):
    def get_partition(self, key, num_partitions):
        return key % num_partitions


class _FanOutMapper(Mapper):
    """Emits (key*2 + i, value) for i in 0..1."""

    def map(self, key, value, context):
        context.write(key * 2, value)
        context.write(key * 2 + 1, value)


class _LifecycleMapper(Mapper):
    """Exercises setup/cleanup emission (in-mapper combining pattern)."""

    def setup(self, context):
        self.seen = 0

    def map(self, key, value, context):
        self.seen += 1

    def cleanup(self, context):
        context.write(0, self.seen)


def _job(**kwargs) -> JobConf:
    defaults = dict(
        mapper=_FanOutMapper,
        reducer=Reducer,
        partitioner=_ModPartitioner(),
        num_reducers=2,
        cost_meter=FixedCostMeter(),
    )
    defaults.update(kwargs)
    return JobConf(**defaults)


class TestMapTask:
    def test_produces_partitioned_segments(self) -> None:
        result = MapTask(_job(), "map0").run([(0, "a"), (1, "b")])
        assert set(result.segments) == {0, 1}
        even = list(result.segments[0].scan())
        odd = list(result.segments[1].scan())
        assert even == [(0, "a"), (2, "b")]
        assert odd == [(1, "a"), (3, "b")]

    def test_counters(self) -> None:
        result = MapTask(_job(), "map0").run([(0, "a"), (1, "b")])
        counters = result.counters
        assert counters.get_int(C.MAP_INPUT_RECORDS) == 2
        assert counters.get_int(C.MAP_OUTPUT_RECORDS) == 4
        assert counters.get(C.HDFS_READ_BYTES) > 0
        assert counters.get(C.CPU_MAP_SECONDS) > 0

    def test_cleanup_emissions_collected(self) -> None:
        job = _job(mapper=_LifecycleMapper)
        result = MapTask(job, "map0").run([(i, "x") for i in range(5)])
        assert list(result.segments[0].scan()) == [(0, 5)]

    def test_empty_split(self) -> None:
        result = MapTask(_job(), "map0").run([])
        assert result.segments == {}
        assert result.counters.get_int(C.MAP_INPUT_RECORDS) == 0

    def test_output_bytes_property(self) -> None:
        result = MapTask(_job(), "map0").run([(0, "a")])
        assert result.output_bytes == sum(
            seg.size_bytes for seg in result.segments.values()
        )

    def test_setup_map_cleanup_all_metered(self) -> None:
        meter = FixedCostMeter(cost_per_call=1.0)
        job = _job(cost_meter=meter)
        result = MapTask(job, "map0").run([(0, "a")])
        # setup + 1 map call + cleanup = 3 metered user calls, plus one
        # metered partition call per emitted record (2) and codec calls.
        assert result.counters.get(C.CPU_MAP_SECONDS) == 3.0

    def test_failed_attempt_keeps_the_calls_it_made(self) -> None:
        """A mapper raising on its k-th record, past the first flush
        (two emissions a call, so a batch ends every 256 calls): the
        attempt's counters hold setup plus the k - 1 calls that
        returned."""
        k = 300

        class FailOnK(Mapper):
            def map(self, key, value, context):
                if key == k - 1:
                    raise RuntimeError("boom")
                context.write(key, value)
                context.write(key + 1, value)

        counters = Counters()
        job = _job(mapper=FailOnK, cost_meter=FixedCostMeter(1.0))
        split = [(i, "x") for i in range(400)]
        with pytest.raises(RuntimeError, match="boom"):
            MapTask(job, "map0").run(split, counters)
        assert counters.get(C.CPU_MAP_SECONDS) == 1 + (k - 1)

    def test_flushes_where_each_call_would(self) -> None:
        """Emissions flush right after the call that brings 512 or
        more pending, as a per-call loop flushed them, though calls are
        metered in batches: a mapper writing three records a call sees
        the buffer's output count step by 513 every 171 calls, and each
        flush is one metered partition pass."""
        seen: list[int] = []

        class Watching(Mapper):
            def map(self, key, value, context):
                seen.append(context.counters.get_int(C.MAP_OUTPUT_RECORDS))
                for i in range(3):
                    context.write(3 * key + i, value)

        job = _job(mapper=Watching, cost_meter=FixedCostMeter(1.0))
        result = MapTask(job, "map0").run([(i, "x") for i in range(600)])
        assert seen == [513 * (i // 171) for i in range(600)]
        assert result.counters.get(C.CPU_PARTITION_SECONDS) == 4.0
        assert result.counters.get(C.CPU_MAP_SECONDS) == 1 + 600 + 1
