"""Failure injection: the system must fail loudly, never silently.

Covers the failure modes the paper calls out (non-deterministic Map
under LazySH, Section 6.2) plus plain user-code crashes, bad
partitioners and serialisation failures — all must surface as
exceptions with actionable messages, never as corrupted output.
"""

from __future__ import annotations

import random

import pytest

from repro.core.anti_reducer import DecodeError
from repro.core.config import Strategy
from repro.core.transform import enable_anti_combining
from repro.mr import serde
from repro.mr.api import Mapper, Partitioner, Reducer
from repro.mr.config import JobConf
from repro.mr.cost import FixedCostMeter
from repro.mr.engine import LocalJobRunner
from repro.mr.split import split_records


class _ModPartitioner(Partitioner):
    def get_partition(self, key, num_partitions):
        return key % num_partitions


def _job(mapper, reducer=Reducer, **kwargs) -> JobConf:
    defaults = dict(
        mapper=mapper,
        reducer=reducer,
        partitioner=_ModPartitioner(),
        num_reducers=2,
        cost_meter=FixedCostMeter(),
    )
    defaults.update(kwargs)
    return JobConf(**defaults)


SPLITS = [[(i, i) for i in range(6)]]


# Module level, so that the jobs pickle and run on a process pool too.
class NondeterministicMapper(Mapper):
    """Different keys on re-execution — the LazySH hazard."""

    def map(self, key, value, context):
        context.write(random.randrange(1000), value)


class CrashingMapper(Mapper):
    def map(self, key, value, context):
        raise RuntimeError("mapper boom")


class CrashingReducer(Reducer):
    def reduce(self, key, values, context):
        raise RuntimeError("reducer boom")


class OverflowingPartitioner(Partitioner):
    def get_partition(self, key, num_partitions):
        return num_partitions + 1


class EmitsObjectsMapper(Mapper):
    def map(self, key, value, context):
        context.write(key, object())


class MixedKeysMapper(Mapper):
    def map(self, key, value, context):
        context.write("string", 1)
        context.write(123, 2)


class TestNondeterminism:
    def test_nondeterministic_map_with_lazy_raises(self) -> None:
        anti = enable_anti_combining(
            _job(NondeterministicMapper), strategy=Strategy.LAZY
        )
        with pytest.raises(DecodeError, match="non-deterministic"):
            LocalJobRunner().run(anti, SPLITS)

    def test_nondeterministic_map_with_eager_is_safe(self) -> None:
        # T = 0 / pure EagerSH is the paper's prescribed setting: no
        # re-execution, so non-determinism cannot corrupt anything.
        anti = enable_anti_combining(
            _job(NondeterministicMapper), strategy=Strategy.EAGER
        )
        result = LocalJobRunner().run(anti, SPLITS)
        assert len(result.output) == 6


class TestUserCodeCrashes:
    def test_mapper_exception_propagates(self) -> None:
        with pytest.raises(RuntimeError, match="mapper boom"):
            LocalJobRunner().run(_job(CrashingMapper), SPLITS)

    def test_mapper_exception_propagates_through_anti(self) -> None:
        anti = enable_anti_combining(_job(CrashingMapper))
        with pytest.raises(RuntimeError, match="mapper boom"):
            LocalJobRunner().run(anti, SPLITS)

    def test_reducer_exception_propagates(self) -> None:
        with pytest.raises(RuntimeError, match="reducer boom"):
            LocalJobRunner().run(_job(Mapper, CrashingReducer), SPLITS)

    def test_reducer_exception_propagates_through_anti(self) -> None:
        anti = enable_anti_combining(_job(Mapper, CrashingReducer))
        with pytest.raises(RuntimeError, match="reducer boom"):
            LocalJobRunner().run(anti, SPLITS)


class TestBadConfigurations:
    def test_out_of_range_partitioner(self) -> None:
        job = _job(Mapper, partitioner=OverflowingPartitioner())
        with pytest.raises(ValueError, match="outside"):
            LocalJobRunner().run(job, SPLITS)

    def test_unserialisable_map_output(self) -> None:
        with pytest.raises(serde.SerdeError, match="unsupported type"):
            LocalJobRunner().run(_job(EmitsObjectsMapper), SPLITS)

    def test_unserialisable_output_through_anti(self) -> None:
        anti = enable_anti_combining(_job(EmitsObjectsMapper))
        with pytest.raises(serde.SerdeError):
            LocalJobRunner().run(anti, SPLITS)

    def test_incomparable_keys_fail_loudly(self) -> None:
        from repro.mr.api import HashPartitioner

        # The default comparator cannot order str vs int; Python's
        # TypeError must surface, not silent misordering.
        job = _job(
            MixedKeysMapper, num_reducers=1, partitioner=HashPartitioner()
        )
        with pytest.raises(TypeError):
            LocalJobRunner().run(job, SPLITS)

    def test_incomparable_keys_work_with_raw_bytes_comparator(self) -> None:
        from repro.mr.api import HashPartitioner
        from repro.mr.comparators import raw_bytes_comparator

        job = _job(
            MixedKeysMapper,
            num_reducers=1,
            partitioner=HashPartitioner(),
            comparator=raw_bytes_comparator,
        )
        result = LocalJobRunner().run(job, SPLITS)
        assert {key for key, _ in result.output} == {"string", 123}
