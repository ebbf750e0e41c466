"""Property test: grouping comparators under Anti-Combining.

Secondary sort is the subtlest interaction in the paper's Section 6.1:
``Shared`` must group decoded keys with the *grouping* comparator while
ordering them with the *sort* comparator.  Hypothesis generates jobs
over composite integer keys whose grouping comparator coarsens the sort
order by a random modulus, and checks the transformed job against the
original — including the value order each reduce call observes, which
is what secondary sort exists to guarantee.

``TestThreeOrdersAgree`` drives the three kinds of order a comparator
can declare — natural, encoded-bytes and none (an opaque ``cmp``) —
through every place that orders or groups records: the natural and the
opaque comparator order alike, so they must give identical results
everywhere, and ``raw_bytes_comparator`` must match a reference built
from its ``cmp`` alone.
"""

from __future__ import annotations

import functools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import Strategy
from repro.core.shared import Shared
from repro.core.transform import enable_anti_combining
from repro.datagen.qlog import generate_query_log
from repro.experiments.common import strategy_variants
from repro.mr.api import Combiner, Context, Mapper, Partitioner, Reducer
from repro.mr.buffer import MapOutputBuffer
from repro.mr.comparators import (
    Comparator,
    _natural_cmp,
    comparator_from_key,
    default_comparator,
    raw_bytes_comparator,
)
from repro.mr.config import JobConf
from repro.mr.cost import FixedCostMeter
from repro.mr.counters import Counters
from repro.mr.engine import LocalJobRunner
from repro.mr.executor import SerialExecutor
from repro.mr.merge import group_runs, merge_runs
from repro.mr.split import split_records
from repro.mr.storage import LocalStore
from repro.workloads.query_suggestion import query_suggestion_job

#: Orders exactly like ``default_comparator`` but declares nothing, so
#: ``record_key`` hands out ``cmp_to_key`` wrappers and ``Shared``
#: keeps a wrapper heap.
OPAQUE = Comparator(_natural_cmp, name="opaque")


class GroupFieldPartitioner(Partitioner):
    """Partitions on the grouping field, as secondary sort requires."""

    def __init__(self, divisor: int):
        self.divisor = divisor

    def get_partition(self, key, num_partitions):
        return (key[0] // self.divisor) % num_partitions


class CompositeKeyMapper(Mapper):
    """Emits composite (group-part, sequence) keys pseudo-randomly."""

    key_space: int = 12

    def __init__(self, seed: int = 0, fanout: int = 3):
        self.seed = seed
        self.fanout = fanout

    def map(self, key, value, context):
        rng = random.Random(f"{self.seed}:{key}:{value}")
        for _ in range(rng.randrange(self.fanout + 1)):
            group_part = rng.randrange(self.key_space)
            sequence = rng.randrange(50)
            context.write((group_part, sequence), rng.randrange(3))


class OrderRecordingReducer(Reducer):
    """Output captures exactly what secondary sort promises: the group
    key's grouping field plus the values in arrival order."""

    def __init__(self, divisor: int):
        self.divisor = divisor

    def reduce(self, key, values, context):
        context.write(key[0] // self.divisor, list(values))


def _group_field(divisor: int, key) -> int:
    """The grouping field of a composite key."""
    return key[0] // divisor


shapes = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 10_000),
        "num_records": st.integers(0, 20),
        "num_splits": st.integers(1, 3),
        "num_reducers": st.integers(1, 4),
        "divisor": st.integers(1, 5),
        "fanout": st.integers(0, 4),
        "strategy": st.sampled_from(list(Strategy)),
        "shared_memory": st.sampled_from([1024, 1 << 22]),
    }
)


class TestGroupingComparatorEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(shapes)
    def test_secondary_sort_preserved(self, shape) -> None:
        divisor = shape["divisor"]
        # Partials of module-level code, so that the job pickles and
        # runs on a process pool too.
        job = JobConf(
            mapper=functools.partial(
                CompositeKeyMapper, seed=shape["seed"], fanout=shape["fanout"]
            ),
            reducer=functools.partial(OrderRecordingReducer, divisor),
            partitioner=GroupFieldPartitioner(divisor),
            grouping_comparator=comparator_from_key(
                functools.partial(_group_field, divisor)
            ),
            num_reducers=shape["num_reducers"],
            cost_meter=FixedCostMeter(),
        )
        anti = enable_anti_combining(
            job,
            strategy=shape["strategy"],
            shared_memory_bytes=shape["shared_memory"],
        )
        splits = split_records(
            [(i, i % 7) for i in range(shape["num_records"])],
            num_splits=shape["num_splits"],
        )
        runner = LocalJobRunner()
        base = runner.run(job, splits)
        result = runner.run(anti, splits)
        # group membership and value multiplicity must match exactly;
        # value order *within equal sort keys* is unspecified, so
        # compare each group's multiset
        base_groups = sorted(
            (key, sorted(values)) for key, values in base.output
        )
        anti_groups = sorted(
            (key, sorted(values)) for key, values in result.output
        )
        assert anti_groups == base_groups
        # and the number of reduce calls (groups) must agree
        assert len(result.output) == len(base.output)


# -- the three kinds of order agree ------------------------------------
#: Keys the natural order can compare: one kind per example.
natural_keys = st.one_of(
    st.lists(st.integers(-300, 300), max_size=30),
    st.lists(st.text("abc", max_size=3), max_size=30),
    st.lists(
        st.tuples(st.integers(0, 3), st.text("xy", max_size=2)), max_size=30
    ),
)
#: Mixed types natural order cannot compare; no two of them ``==`` with
#: different encodings (``Shared`` needs ``==`` keys grouping-equal).
mixed_keys = st.lists(
    st.one_of(st.integers(-300, 300), st.text("abc", max_size=3)),
    max_size=30,
)


def _records(keys):
    """Tag every key with its arrival position: a moved tie shows."""
    return [(key, index) for index, key in enumerate(keys)]


def _runs(keys, comparator, cuts):
    """``keys`` cut into runs, each sorted under ``comparator``."""
    records = _records(keys)
    bounds = sorted({0, len(records), *(c % (len(records) + 1) for c in cuts)})
    order = comparator.record_key(0)
    return [
        sorted(records[lo:hi], key=order) for lo, hi in zip(bounds, bounds[1:])
    ]


def _reference_groups(records, cmp):
    """``(first_key, values)`` split wherever ``cmp(key, first) != 0``."""
    groups = []
    for key, value in records:
        if groups and cmp(key, groups[-1][0]) == 0:
            groups[-1][1].append(value)
        else:
            groups.append((key, [value]))
    return groups


def _reference_sorted(records, cmp):
    """A stable sort on ``cmp`` alone."""
    key = functools.cmp_to_key(cmp)
    return sorted(records, key=lambda record: key(record[0]))


class _ModPartitioner(Partitioner):
    def get_partition(self, key, num_partitions):
        return key % num_partitions


class _SumCombiner(Combiner):
    def reduce(self, key, values, context):
        context.write(key, sum(values))


def _segment_bytes(keys, comparator, with_combiner, buffer_bytes):
    """Every final map-output segment's bytes, and the spill count, of
    one map-output buffer."""
    job = JobConf(
        mapper=Mapper,
        reducer=Reducer,
        combiner=_SumCombiner if with_combiner else None,
        partitioner=_ModPartitioner(),
        num_reducers=3,
        comparator=comparator,
        grouping_comparator=comparator,
        cost_meter=FixedCostMeter(),
        sort_buffer_bytes=buffer_bytes,
    )
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
    buffer = MapOutputBuffer(job, store, context, "map0")
    for key, value in _records(keys):
        buffer.collect(key, value)
    segments = buffer.finalize()
    return (
        {p: segment.read_bytes() for p, segment in segments.items()},
        buffer.spill_count,
    )


def _shared_pops(keys, comparator, bound_at):
    """The whole pop sequence of one ``Shared`` forced to spill: a
    ``pop_groups`` below a bound, then a full drain."""
    counters = Counters()
    shared = Shared(
        comparator,
        comparator,
        LocalStore(counters),
        counters,
        memory_limit_bytes=8,
        merge_threshold=2,
    )
    for key, value in _records(keys):
        shared.add(key, value)
    popped = []
    if keys:
        bound = comparator.sorted(keys)[bound_at % len(keys)]
        popped.extend(shared.pop_groups(bound))
    while not shared.is_empty():
        popped.append(shared.pop_min_key_values())
    return popped, shared.spill_count


_OMIT = (
    "cpu.map.seconds",
    "cpu.reduce.seconds",
    "cpu.combine.seconds",
    "cpu.partition.seconds",
    "cpu.codec.seconds",
)


def _job_legs(comparator, num_queries, seed, with_combiner):
    """Original and AdaptiveSH on the serial executor: each one's output
    and its deterministic counters."""
    job = query_suggestion_job(
        num_reducers=2,
        with_combiner=with_combiner,
        comparator=comparator,
        grouping_comparator=comparator,
        cost_meter=FixedCostMeter(),
        sort_buffer_bytes=2048,
    )
    variants = strategy_variants(
        job, include_pure=False, shared_memory_bytes=1024
    )
    splits = split_records(
        generate_query_log(num_queries, seed=seed), num_splits=2
    )
    runner = LocalJobRunner(executor=SerialExecutor())
    legs = {}
    for name, variant in variants.items():
        result = runner.run(variant, splits)
        counters = {
            k: v
            for k, v in result.counters.as_dict().items()
            if not k.startswith(_OMIT)
        }
        legs[name] = (result.output, counters)
    return legs


class TestThreeOrdersAgree:
    @settings(max_examples=80, deadline=None)
    @given(natural_keys, st.lists(st.integers(0, 40), max_size=4))
    def test_merge_and_group_natural_equals_opaque(self, keys, cuts) -> None:
        runs = _runs(keys, default_comparator, cuts)
        merged = merge_runs([list(run) for run in runs], default_comparator)
        assert merge_runs([list(run) for run in runs], OPAQUE) == merged
        assert list(group_runs(merged, OPAQUE)) == list(
            group_runs(merged, default_comparator)
        )

    @settings(max_examples=80, deadline=None)
    @given(mixed_keys, st.lists(st.integers(0, 40), max_size=4))
    def test_merge_and_group_raw_bytes_equal_reference(
        self, keys, cuts
    ) -> None:
        cmp = raw_bytes_comparator.cmp
        runs = _runs(keys, raw_bytes_comparator, cuts)
        merged = merge_runs([list(run) for run in runs], raw_bytes_comparator)
        reference = _reference_sorted(
            [record for run in runs for record in run], cmp
        )
        assert merged == reference
        assert list(group_runs(merged, raw_bytes_comparator)) == (
            _reference_groups(reference, cmp)
        )

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(0, 40), min_size=250, max_size=400),
        st.booleans(),
    )
    def test_spill_segments_natural_equals_opaque(
        self, keys, with_combiner
    ) -> None:
        # One in-memory sort, then enough spills to merge and to run
        # the Combiner at the merge.
        for buffer_bytes, spills in ((1 << 20, 0), (16 * 1024, 3)):
            natural = _segment_bytes(
                keys, default_comparator, with_combiner, buffer_bytes
            )
            assert _segment_bytes(
                keys, OPAQUE, with_combiner, buffer_bytes
            ) == natural
            assert (natural[1] >= 3) if spills else (natural[1] == 0)

    @settings(max_examples=60, deadline=None)
    @given(natural_keys, st.integers(0, 40))
    def test_shared_pops_natural_equal_opaque(self, keys, bound_at) -> None:
        natural = _shared_pops(keys, default_comparator, bound_at)
        assert _shared_pops(keys, OPAQUE, bound_at) == natural
        if len(keys) >= 8:
            assert natural[1] > 0  # the sequence crossed a spill

    @settings(max_examples=60, deadline=None)
    @given(mixed_keys, st.integers(0, 40))
    def test_shared_pops_raw_bytes_equal_reference(
        self, keys, bound_at
    ) -> None:
        popped, _ = _shared_pops(keys, raw_bytes_comparator, bound_at)
        reference = _reference_groups(
            _reference_sorted(_records(keys), raw_bytes_comparator.cmp),
            raw_bytes_comparator.cmp,
        )
        # Values of one key across a spill come back in sort-key order,
        # not arrival order: compare each group's multiset.
        assert [(key, sorted(values)) for key, values in popped] == [
            (key, sorted(values)) for key, values in reference
        ]

    @settings(max_examples=6, deadline=None)
    @given(st.integers(20, 80), st.integers(0, 1000), st.booleans())
    def test_jobs_natural_equal_opaque(
        self, num_queries, seed, with_combiner
    ) -> None:
        natural = _job_legs(default_comparator, num_queries, seed, with_combiner)
        opaque = _job_legs(OPAQUE, num_queries, seed, with_combiner)
        assert set(natural) == {"Original", "AdaptiveSH"}
        assert opaque == natural
