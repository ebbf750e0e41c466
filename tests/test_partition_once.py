"""A task asks the Partitioner about a key once (DESIGN.md §8).

The task's ``Context`` owns the one key→partition memo; the map-output
buffer, the AntiMapper and the reduce-side decode loop all read it.  So
a counting Partitioner sees, per map task, exactly the distinct keys the
original Map emitted — the representative keys the AntiMapper writes
were bucketed already and are dict hits when the buffer files them — and
per reduce task exactly the distinct keys LazySH re-generated (all of
them: the paper's cost model charges a partition call for every
re-generated key, kept or not).  And because the bucket a record was
encoded for and the partition it is filed under are one lookup, they
cannot differ.
"""

from __future__ import annotations

import pytest

from repro.core import encoding
from repro.core.config import Strategy
from repro.core.crosscall import enable_cross_call_anti_combining
from repro.core.transform import enable_anti_combining
from repro.mr.api import Context, Mapper, Partitioner, Reducer
from repro.mr.config import JobConf
from repro.mr.cost import FixedCostMeter
from repro.mr.counters import Counters
from repro.mr.maptask import MapTask
from repro.mr.reducetask import ReduceTask

NUM_REDUCERS = 3


def _partition_of(key: int) -> int:
    return (key // 2) % NUM_REDUCERS


class _CountingPartitioner(Partitioner):
    def __init__(self) -> None:
        self.asked: list[int] = []

    def get_partition(self, key, num_partitions):
        assert num_partitions == NUM_REDUCERS
        self.asked.append(key)
        return _partition_of(key)


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


VARIANTS = {
    "Original": lambda job: job,
    "EagerSH": lambda job: enable_anti_combining(job, strategy=Strategy.EAGER),
    "LazySH": lambda job: enable_anti_combining(job, strategy=Strategy.LAZY),
    "AdaptiveSH": enable_anti_combining,
    "CrossCall": enable_cross_call_anti_combining,
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_each_task_partitions_each_key_once(variant: str) -> None:
    partitioner = _CountingPartitioner()
    job = VARIANTS[variant](
        JobConf(
            mapper=_FanOutMapper,
            reducer=_CollectReducer,
            partitioner=partitioner,
            num_reducers=NUM_REDUCERS,
            cost_meter=FixedCostMeter(),
            name="fan-out",
        )
    )

    # -- map tasks: one question per distinct original output key ---------
    map_results = []
    for index, split in enumerate(SPLITS):
        partitioner.asked.clear()
        map_results.append(MapTask(job, f"map{index}").run(split))
        distinct = {key for key, _ in _map_output(split)}
        assert sorted(partitioner.asked) == sorted(distinct), (
            f"{variant} map{index}: {len(partitioner.asked)} get_partition "
            f"calls for {len(distinct)} distinct keys"
        )

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

    # -- reduce tasks: one question per distinct re-generated key ----------
    output = []
    for partition in range(NUM_REDUCERS):
        segments = [
            result.segments[partition]
            for result in map_results
            if partition in result.segments
        ]
        partitioner.asked.clear()
        output += ReduceTask(job, partition).run(segments).output
        regenerated = {key for key, _ in _map_output(lazy_inputs[partition])}
        assert sorted(partitioner.asked) == sorted(regenerated), (
            f"{variant} reduce{partition}: {len(partitioner.asked)} "
            f"get_partition calls for {len(regenerated)} re-generated keys"
        )
    if variant == "LazySH":
        assert all(lazy_inputs.values())

    # The same job all along.
    expected: dict[int, list] = {}
    for split in SPLITS:
        for key, value in _map_output(split):
            expected.setdefault(key, []).append(value)
    assert sorted(output) == sorted(
        (key, sorted(values)) for key, values in expected.items()
    )
