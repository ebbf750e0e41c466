"""The paper's core correctness claim, property-tested.

For *any* MapReduce program, the Anti-Combining-transformed job must
produce exactly the same reduce output as the original job — for every
strategy (EagerSH / LazySH / AdaptiveSH), any threshold ``T``, any
number of reducers and splits, with or without a Combiner, and even
when ``Shared`` is forced to spill.

Hypothesis drives a family of deterministic pseudo-random mappers whose
fan-out, key distribution and value sharing vary per example, which
covers plain records, eager groups, lazy records and their mixtures.
"""

from __future__ import annotations

import math
import random
from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import Strategy
from repro.core.transform import enable_anti_combining
from repro.mr import serde
from repro.mr.api import Combiner, Mapper, Partitioner, Reducer
from repro.mr.config import JobConf
from repro.mr.cost import FixedCostMeter
from repro.mr.engine import LocalJobRunner
from repro.mr.split import split_records


class ModPartitioner(Partitioner):
    def get_partition(self, key, num_partitions):
        return key % num_partitions


class SeededMapper(Mapper):
    """Deterministic pseudo-random fan-out (safe for LazySH).

    The per-record RNG is seeded from the input record, so re-execution
    reproduces the exact same output — the determinism LazySH requires.
    ``value_sharing`` controls how often output records repeat a value,
    steering between the EagerSH-friendly and worst-case regimes.
    ``float_values`` draws the values from :data:`FLOAT_VALUES` instead
    of small ints.
    """

    def __init__(
        self,
        seed: int = 0,
        max_fanout: int = 4,
        key_space: int = 20,
        value_sharing: int = 3,  # smaller = more shared values
        float_values: bool = False,
    ):
        self.seed = seed
        self.max_fanout = max_fanout
        self.key_space = key_space
        self.value_sharing = value_sharing
        self.float_values = float_values

    def map(self, key, value, context):
        rng = random.Random(f"{self.seed}:{key}:{value}")
        fanout = rng.randrange(self.max_fanout + 1)
        for _ in range(fanout):
            out_key = rng.randrange(self.key_space)
            out_value = rng.randrange(max(1, self.value_sharing))
            if self.float_values:
                out_value = FLOAT_VALUES[out_value]
            context.write(out_key, out_value)


#: Signed zeros first (equal, same hash, different bytes); all dyadic,
#: so the Combiner tests' sums are exact in any order.
FLOAT_VALUES = (0.0, -0.0, 1.0, -1.0, 0.5, 2.0)


class CollectReducer(Reducer):
    """Canonical output: the sorted multiset of values per key."""

    def reduce(self, key, values, context):
        context.write(key, sorted(values, key=serde.encode))


class SumReducer(Reducer):
    def reduce(self, key, values, context):
        context.write(key, sum(values))


class SumCombiner(Combiner):
    def reduce(self, key, values, context):
        context.write(key, sum(values))


def _mapper_class(shape):
    """A picklable mapper factory for ``shape``, so the job can run on
    a worker pool too."""
    return partial(
        SeededMapper,
        **{
            name: shape[name]
            for name in (
                "seed",
                "max_fanout",
                "key_space",
                "value_sharing",
                "float_values",
            )
        },
    )


def _inputs(num_records: int) -> list[tuple[int, int]]:
    return [(i, i * 7 % 13) for i in range(num_records)]


job_shapes = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 10_000),
        "num_records": st.integers(0, 25),
        "num_splits": st.integers(1, 4),
        "num_reducers": st.integers(1, 5),
        "max_fanout": st.integers(0, 6),
        "key_space": st.integers(1, 25),
        "value_sharing": st.integers(1, 6),
        "float_values": st.booleans(),
        "strategy": st.sampled_from(list(Strategy)),
        "threshold": st.sampled_from([0.0, 1e-9, math.inf]),
        "shared_memory": st.sampled_from([1024, 4 * 1024 * 1024]),
        "sort_buffer": st.sampled_from([2048, 8 * 1024 * 1024]),
    }
)


def _run_pair(shape, with_combiner: bool, use_map_combiner: bool = False):
    mapper = _mapper_class(shape)
    job = JobConf(
        mapper=mapper,
        reducer=SumReducer if with_combiner else CollectReducer,
        combiner=SumCombiner if with_combiner else None,
        partitioner=ModPartitioner(),
        num_reducers=shape["num_reducers"],
        sort_buffer_bytes=shape["sort_buffer"],
        cost_meter=FixedCostMeter(),
    )
    anti = enable_anti_combining(
        job,
        strategy=shape["strategy"],
        threshold_t=shape["threshold"],
        use_map_combiner=use_map_combiner,
        shared_memory_bytes=shape["shared_memory"],
    )
    splits = split_records(
        _inputs(shape["num_records"]), num_splits=shape["num_splits"]
    )
    runner = LocalJobRunner()
    return runner.run(job, splits), runner.run(anti, splits)


class TestOutputEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(job_shapes)
    def test_without_combiner(self, shape) -> None:
        base, anti = _run_pair(shape, with_combiner=False)
        # Byte-wise: ``==`` cannot tell ``-0.0`` from ``0.0``.
        assert anti.canonical_output() == base.canonical_output()

    @settings(max_examples=40, deadline=None)
    @given(job_shapes)
    def test_with_combiner_shared_only(self, shape) -> None:
        """C = 0: Combiner removed from the map phase, used in Shared."""
        base, anti = _run_pair(shape, with_combiner=True)
        assert anti.sorted_output() == base.sorted_output()

    @settings(max_examples=40, deadline=None)
    @given(job_shapes)
    def test_with_map_combiner(self, shape) -> None:
        """C = 1: the spill-time Anti-Combiner path."""
        base, anti = _run_pair(
            shape, with_combiner=True, use_map_combiner=True
        )
        assert anti.sorted_output() == base.sorted_output()

    @settings(max_examples=30, deadline=None)
    @given(job_shapes, st.sampled_from(["gzip", "snappy"]))
    def test_with_compression(self, shape, codec) -> None:
        """Anti-Combining composes with map-output compression."""
        mapper = _mapper_class(shape)
        job = JobConf(
            mapper=mapper,
            reducer=CollectReducer,
            partitioner=ModPartitioner(),
            num_reducers=shape["num_reducers"],
            map_output_codec=codec,
            cost_meter=FixedCostMeter(),
        )
        anti = enable_anti_combining(job, strategy=shape["strategy"])
        splits = split_records(
            _inputs(shape["num_records"]), num_splits=shape["num_splits"]
        )
        runner = LocalJobRunner()
        base = runner.run(job, splits)
        result = runner.run(anti, splits)
        assert result.canonical_output() == base.canonical_output()


class TestTransferReduction:
    @settings(max_examples=30, deadline=None)
    @given(job_shapes)
    def test_adaptive_never_loses_to_original_by_much(self, shape) -> None:
        """AdaptiveSH's output is at most one flag byte per record larger."""
        base, anti = _run_pair(
            dict(shape, strategy=Strategy.ADAPTIVE), with_combiner=False
        )
        allowance = base.map_output_records  # 1 byte per original record
        assert anti.map_output_bytes <= base.map_output_bytes + allowance

    @settings(max_examples=30, deadline=None)
    @given(job_shapes)
    def test_anti_never_increases_record_count(self, shape) -> None:
        base, anti = _run_pair(shape, with_combiner=False)
        assert anti.map_output_records <= base.map_output_records
