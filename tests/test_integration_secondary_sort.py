"""Secondary sort (grouping comparator) through the full anti pipeline.

The paper's Section 6.1 explicitly handles grouping comparators: "The
grouping comparator is used to determine key equality, ensuring that
Shared's behavior is consistent with the original MapReduce program
when the user provides a grouping comparator that is different from
the regular key comparator, e.g., for secondary sort."
"""

from __future__ import annotations

from operator import itemgetter

import pytest

from repro.core.config import Strategy
from repro.core.transform import enable_anti_combining
from repro.mr.api import Context, Mapper, Partitioner, Reducer, stable_hash
from repro.mr.comparators import comparator_from_key
from repro.mr.config import JobConf
from repro.mr.cost import FixedCostMeter
from repro.mr.counters import MEASURED_CPU_COUNTERS
from repro.mr.engine import LocalJobRunner
from repro.mr.executor import ParallelExecutor, SerialExecutor
from repro.mr.split import split_records


class SensorMapper(Mapper):
    """Emit composite keys (station, timestamp) for secondary sort."""

    def map(self, key, reading, context: Context) -> None:
        station, timestamp, temperature = reading
        context.write((station, timestamp), temperature)


class StationPartitioner(Partitioner):
    """Partition on the natural key only, as secondary sort requires."""

    def get_partition(self, key, num_partitions):
        return stable_hash(key[0]) % num_partitions


class FirstAndLastReducer(Reducer):
    """Relies on values arriving in timestamp order within a station."""

    def reduce(self, key, values, context: Context) -> None:
        ordered = list(values)
        context.write(key[0], (ordered[0], ordered[-1], len(ordered)))


READINGS = [
    ("station-a", 3, 13.0),
    ("station-a", 1, 11.0),
    ("station-b", 2, 22.0),
    ("station-a", 2, 12.0),
    ("station-b", 1, 21.0),
    ("station-c", 1, 31.0),
    ("station-b", 3, 23.0),
]

EXPECTED = {
    "station-a": (11.0, 13.0, 3),
    "station-b": (21.0, 23.0, 3),
    "station-c": (31.0, 31.0, 1),
}


def _job(**kwargs) -> JobConf:
    defaults = dict(
        mapper=SensorMapper,
        reducer=FirstAndLastReducer,
        partitioner=StationPartitioner(),
        grouping_comparator=comparator_from_key(itemgetter(0)),
        num_reducers=3,
        cost_meter=FixedCostMeter(),
    )
    defaults.update(kwargs)
    return JobConf(**defaults)


def _splits():
    return split_records(
        list(enumerate(READINGS)), num_splits=3
    )


class TestSecondarySort:
    def test_original_job(self) -> None:
        result = LocalJobRunner().run(_job(), _splits())
        assert dict(result.output) == EXPECTED

    @pytest.mark.parametrize(
        "strategy", [Strategy.EAGER, Strategy.LAZY, Strategy.ADAPTIVE]
    )
    def test_anti_combining_preserves_secondary_sort(self, strategy) -> None:
        anti = enable_anti_combining(_job(), strategy=strategy)
        result = LocalJobRunner().run(anti, _splits())
        assert dict(result.output) == EXPECTED

    def test_anti_with_forced_shared_spills(self) -> None:
        anti = enable_anti_combining(_job(), shared_memory_bytes=1024)
        result = LocalJobRunner().run(anti, _splits())
        assert dict(result.output) == EXPECTED

    def test_one_reduce_call_per_station(self) -> None:
        from repro.mr import counters as C

        result = LocalJobRunner().run(_job(num_reducers=1), _splits())
        assert result.counters.get_int(C.REDUCE_INPUT_GROUPS) == 3


@pytest.mark.parametrize("anti", [False, True], ids=["Original", "AdaptiveSH"])
def test_pool_run_equals_serial(anti: bool) -> None:
    """The library's grouping comparator pickles, so a secondary-sort
    job runs on a process pool, with the serial run's output and
    deterministic counters."""
    job = _job()
    if anti:
        job = enable_anti_combining(job)

    def deterministic(result) -> dict:
        return {
            name: value
            for name, value in result.counters.as_dict().items()
            if name not in MEASURED_CPU_COUNTERS
        }

    serial = LocalJobRunner(executor=SerialExecutor()).run(job, _splits())
    with ParallelExecutor(max_workers=2) as pool:
        pooled = LocalJobRunner(executor=pool).run(job, _splits())
    assert dict(pooled.output) == dict(serial.output) == EXPECTED
    assert deterministic(pooled) == deterministic(serial)
