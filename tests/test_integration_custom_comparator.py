"""Custom sort comparators through the full anti pipeline.

The representative-key trick (Section 3.1) depends on the *job's* sort
order, not Python's: "the minimal key is chosen as the representative
key ... because all Reduce calls in a reduce task happen in ascending
key order".  With a descending comparator, "minimal" must mean
*first-to-be-reduced*, i.e. the largest natural key — if the AntiMapper
used natural ``min`` the decoded keys would arrive after their Reduce
calls and the output would be wrong.
"""

from __future__ import annotations

import pytest

from repro.core.config import Strategy
from repro.core.transform import enable_anti_combining
from repro.mr.api import Mapper, Partitioner, Reducer
from repro.mr.comparators import Comparator
from repro.mr.config import JobConf
from repro.mr.cost import FixedCostMeter
from repro.mr.engine import LocalJobRunner
from repro.mr.split import split_records


def _descending_cmp(a, b) -> int:
    return (a < b) - (a > b)


# A module-level cmp function, so that the jobs pickle and run on a
# process pool too.
descending = Comparator(_descending_cmp, name="descending")


class _ModPartitioner(Partitioner):
    def get_partition(self, key, num_partitions):
        return key % num_partitions


class _FanOutMapper(Mapper):
    """Each input spawns records for several keys with a shared value."""

    def map(self, key, value, context):
        for offset in (0, 2, 4, 6):
            context.write(key * 10 + offset, value)


class _CollectReducer(Reducer):
    def reduce(self, key, values, context):
        context.write(key, sorted(values))


def _job(**kwargs) -> JobConf:
    defaults = dict(
        mapper=_FanOutMapper,
        reducer=_CollectReducer,
        partitioner=_ModPartitioner(),
        num_reducers=2,
        comparator=descending,
        cost_meter=FixedCostMeter(),
    )
    defaults.update(kwargs)
    return JobConf(**defaults)


SPLITS = split_records([(i, f"v{i % 3}") for i in range(12)], num_splits=3)


class TestDescendingSortOrder:
    def test_original_job_reduces_descending(self) -> None:
        result = LocalJobRunner().run(_job(num_reducers=1), SPLITS)
        keys = [key for key, _ in result.output]
        assert keys == sorted(keys, reverse=True)

    @pytest.mark.parametrize(
        "strategy", [Strategy.EAGER, Strategy.LAZY, Strategy.ADAPTIVE]
    )
    def test_anti_combining_with_descending_order(self, strategy) -> None:
        job = _job()
        base = LocalJobRunner().run(job, SPLITS)
        anti = LocalJobRunner().run(
            enable_anti_combining(job, strategy=strategy), SPLITS
        )
        assert anti.sorted_output() == base.sorted_output()

    def test_representative_key_follows_job_order(self) -> None:
        """Eager representative = first key in *job* sort order."""
        from repro.core import encoding
        from repro.core.anti_mapper import AntiMapper
        from repro.core.config import AntiCombiningConfig
        from repro.core.runtime import AntiRuntime
        from repro.mr.api import Context
        from repro.mr.counters import Counters

        runtime = AntiRuntime(
            mapper_factory=_FanOutMapper,
            reducer_factory=_CollectReducer,
            combiner_factory=None,
            partitioner=_ModPartitioner(),
            num_reducers=1,
            comparator=descending,
            grouping_comparator=descending,
            meter=FixedCostMeter(),
            config=AntiCombiningConfig(strategy=Strategy.EAGER),
        )
        emitted = []
        context = Context(
            Counters(),
            lambda k, v: emitted.append((k, v)),
            partitioner=runtime.partitioner,
            num_partitions=runtime.num_reducers,
        )
        mapper = AntiMapper(runtime)
        mapper.setup(context)
        mapper.map(1, "shared", context)
        # keys 10, 12, 14, 16 share one value; under a descending sort
        # the reduce-first key is 16, so 16 must be the representative
        assert len(emitted) == 1
        rep_key, component = emitted[0]
        assert rep_key == 16
        assert encoding.tag_of(component) == encoding.EAGER
        assert sorted(component.other_keys) == [10, 12, 14]

    def test_with_forced_shared_spills(self) -> None:
        job = _job()
        base = LocalJobRunner().run(job, SPLITS)
        anti = LocalJobRunner().run(
            enable_anti_combining(job, shared_memory_bytes=1024), SPLITS
        )
        assert anti.sorted_output() == base.sorted_output()
