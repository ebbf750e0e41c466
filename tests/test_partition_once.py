"""A job asks the Partitioner about a key once per process (DESIGN.md §8).

There is one key→partition memo per partitioner instance and reducer
count in a process, ``PartitionMemo.of``; every task's ``Context`` reads
it, and so do the map-output buffer, the AntiMapper and the reduce-side
decode loop.  So a counting Partitioner sees, across both map tasks and
every reduce task of a job, exactly the distinct keys the original Map
emitted — the representative keys the AntiMapper writes were bucketed
already, and the keys LazySH re-generates in a reducer were asked by the
map task that first emitted them — and no task asks about a key twice.
A second run asks nothing; an unpickled copy and another reducer count
ask afresh.  And because the bucket a record was encoded for and the
partition it is filed under are one lookup, they cannot differ.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core import encoding
from repro.core.config import Strategy
from repro.core.transform import enable_anti_combining
from repro.mr.api import Context, HashPartitioner, Mapper, Partitioner, Reducer
from repro.mr.config import JobConf
from repro.mr.cost import FixedCostMeter
from repro.mr.counters import MEASURED_CPU_COUNTERS, Counters
from repro.mr.engine import LocalJobRunner
from repro.mr.executor import ParallelExecutor, SerialExecutor
from repro.mr.maptask import MapTask
from repro.mr.reducetask import ReduceTask

NUM_REDUCERS = 3
#: A second reducer count for the same partitioner instance.
OTHER_REDUCERS = 2


def _partition_of(key: int, num_partitions: int = NUM_REDUCERS) -> int:
    return (key // 2) % num_partitions


class _CountingPartitioner(Partitioner):
    def __init__(self) -> None:
        self.asked: list[int] = []

    def get_partition(self, key, num_partitions):
        assert num_partitions in (NUM_REDUCERS, OTHER_REDUCERS)
        self.asked.append(key)
        return _partition_of(key, num_partitions)


class _FanOutMapper(Mapper):
    """Eight keys per call, two values; keys repeat from call to call."""

    def map(self, key, value, context):
        for step in range(8):
            out_key = (key * 5 + step * 3) % 41
            context.write(out_key, value if step % 4 else value + "!")


class _CollectReducer(Reducer):
    def reduce(self, key, values, context):
        context.write(key, sorted(values))


SPLITS = [
    [(index, f"text-{index % 7}") for index in range(start, start + 30)]
    for start in (0, 30)
]


def _map_output(records) -> list[tuple]:
    emitted: list[tuple] = []
    context = Context(Counters(), lambda k, v: emitted.append((k, v)))
    mapper = _FanOutMapper()
    for key, value in records:
        mapper.map(key, value, context)
    return emitted


#: Every distinct key the original Map emits over both splits.
DISTINCT_KEYS = sorted({key for split in SPLITS for key, _ in _map_output(split)})

VARIANTS = {
    "Original": lambda job: job,
    "EagerSH": lambda job: enable_anti_combining(job, strategy=Strategy.EAGER),
    "LazySH": lambda job: enable_anti_combining(job, strategy=Strategy.LAZY),
    "AdaptiveSH": enable_anti_combining,
}


def _job(
    variant: str,
    partitioner: Partitioner,
    num_reducers: int = NUM_REDUCERS,
) -> JobConf:
    return VARIANTS[variant](
        JobConf(
            mapper=_FanOutMapper,
            reducer=_CollectReducer,
            partitioner=partitioner,
            num_reducers=num_reducers,
            cost_meter=FixedCostMeter(),
            name="fan-out",
        )
    )


def _run_tasks(job: JobConf) -> tuple[list, list, dict[str, list[int]]]:
    """Run ``job``'s map tasks, then its reduce tasks, in this process.

    Returns the map results, the job output and, per task, the keys the
    job's counting Partitioner was asked.
    """
    partitioner = job.partitioner
    asked: dict[str, list[int]] = {}
    map_results = []
    for index, split in enumerate(SPLITS):
        partitioner.asked.clear()
        map_results.append(MapTask(job, f"map{index}").run(split))
        asked[f"map{index}"] = list(partitioner.asked)
    output = []
    for partition in range(job.num_reducers):
        segments = [
            result.segments[partition]
            for result in map_results
            if partition in result.segments
        ]
        partitioner.asked.clear()
        output += ReduceTask(job, partition).run(segments).output
        asked[f"reduce{partition}"] = list(partitioner.asked)
    return map_results, output, asked


def _all_asked(asked: dict[str, list[int]]) -> list[int]:
    return sorted(key for keys in asked.values() for key in keys)


def _expected_output() -> list:
    expected: dict[int, list] = {}
    for split in SPLITS:
        for key, value in _map_output(split):
            expected.setdefault(key, []).append(value)
    return sorted((key, sorted(values)) for key, values in expected.items())


@pytest.mark.parametrize("variant", VARIANTS)
def test_each_task_partitions_each_key_once(variant: str) -> None:
    job = _job(variant, _CountingPartitioner())
    map_results, output, asked = _run_tasks(job)

    # -- map tasks: each asks about its own keys, each at most once --------
    for index, split in enumerate(SPLITS):
        mine = asked[f"map{index}"]
        assert len(mine) == len(set(mine)), f"{variant} map{index}: {mine}"
        assert set(mine) <= {key for key, _ in _map_output(split)}

    # -- filed where it was encoded for ------------------------------------
    lazy_inputs: dict[int, list[tuple]] = {p: [] for p in range(NUM_REDUCERS)}
    for result in map_results:
        for partition, segment in result.segments.items():
            for rep_key, component in segment.scan():
                if job.anti is None:
                    keys = [rep_key]
                elif isinstance(component, encoding.LazyValue):
                    record = (component.input_key, component.input_value)
                    lazy_inputs[partition].append(record)
                    keys = [
                        key
                        for key, _ in _map_output([record])
                        if _partition_of(key) == partition
                    ]
                    assert rep_key == min(keys)
                elif isinstance(component, encoding.EagerValue):
                    keys = [rep_key, *component.other_keys]
                else:
                    keys = [rep_key]
                assert {_partition_of(key) for key in keys} == {partition}

    # -- reduce tasks: at most one question per re-generated key -----------
    for partition in range(NUM_REDUCERS):
        mine = asked[f"reduce{partition}"]
        regenerated = {key for key, _ in _map_output(lazy_inputs[partition])}
        assert len(mine) == len(set(mine)), f"{variant} reduce{partition}: {mine}"
        assert set(mine) <= regenerated
    if variant == "LazySH":
        assert all(lazy_inputs.values())

    # -- the job: one question per distinct original output key -----------
    assert _all_asked(asked) == DISTINCT_KEYS, (
        f"{variant}: {len(_all_asked(asked))} get_partition calls for "
        f"{len(DISTINCT_KEYS)} distinct keys"
    )

    # The same job all along.
    assert sorted(output) == _expected_output()


@pytest.mark.parametrize("variant", VARIANTS)
def test_the_memo_is_per_process_and_reducer_count(variant: str) -> None:
    partitioner = _CountingPartitioner()
    job = _job(variant, partitioner)
    _run_tasks(job)

    # A second run of the same job asks nothing.
    _, output, asked = _run_tasks(job)
    assert _all_asked(asked) == []
    assert sorted(output) == _expected_output()

    # An unpickled copy of the job arrives with an empty memo.
    copied = pickle.loads(pickle.dumps(job))
    assert copied.partitioner is not partitioner
    _, output, asked = _run_tasks(copied)
    assert _all_asked(asked) == DISTINCT_KEYS
    assert sorted(output) == _expected_output()

    # Another reducer count keeps its own memo, and leaves this one be.
    _, output, asked = _run_tasks(_job(variant, partitioner, OTHER_REDUCERS))
    assert _all_asked(asked) == DISTINCT_KEYS
    assert sorted(output) == _expected_output()
    _, _, asked = _run_tasks(job)
    assert _all_asked(asked) == []


@pytest.fixture(scope="module")
def pool():
    with ParallelExecutor(max_workers=2) as executor:
        yield executor


def _deterministic_counters(result) -> dict:
    return {
        name: value
        for name, value in result.counters.as_dict().items()
        if name not in MEASURED_CPU_COUNTERS
    }


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_pool_run_equals_serial(variant: str, pool) -> None:
    """Run serially first, so the job's partitioner holds a warm memo
    when the pool pickles it: the workers' copies start empty."""
    job = _job(variant, _CountingPartitioner())
    serial = LocalJobRunner(executor=SerialExecutor()).run(job, SPLITS)
    pooled = LocalJobRunner(executor=pool).run(job, SPLITS)
    assert sorted(pooled.output) == sorted(serial.output) == _expected_output()
    assert _deterministic_counters(pooled) == _deterministic_counters(serial)


class _NumberMapper(Mapper):
    """Emit the record's value as the key: ``1``, ``1.0`` and ``True``."""

    def map(self, key, value, context):
        context.write(value, key)


#: Keys equal under ``==`` that encode, hash and partition apart.
NUMBER_SPLITS = [[(0, 1), (1, 1.0)], [(2, True), (3, 1)], [(4, 1.0), (5, True)]]


@pytest.mark.parametrize("variant", ["Original", "AdaptiveSH"])
def test_equal_keys_of_other_types_keep_their_partitions(variant, pool) -> None:
    partitioner = HashPartitioner()
    job = VARIANTS[variant](
        JobConf(
            mapper=_NumberMapper,
            reducer=Reducer,
            partitioner=partitioner,
            num_reducers=8,
            cost_meter=FixedCostMeter(),
            name="numbers",
        )
    )
    expected: dict[int, list] = {}
    for split in NUMBER_SPLITS:
        for key, value in split:
            expected.setdefault(partitioner.get_partition(value, 8), []).append(
                (type(value).__name__, key)
            )

    def by_partition(result) -> dict[int, list]:
        return {
            partition: sorted((type(key).__name__, value) for key, value in records)
            for partition, records in result.outputs_by_partition.items()
            if records
        }

    serial = LocalJobRunner(executor=SerialExecutor()).run(job, NUMBER_SPLITS)
    pooled = LocalJobRunner(executor=pool).run(job, NUMBER_SPLITS)
    assert by_partition(serial) == by_partition(pooled) == {
        partition: sorted(records) for partition, records in expected.items()
    }
