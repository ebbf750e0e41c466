"""Tests for the 1-Bucket-Theta band join, validated by brute force."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import Strategy
from repro.core.transform import enable_anti_combining
from repro.datagen.cloud import generate_cloud_reports
from repro.mr.api import Context, Reducer, stable_hash
from repro.mr.counters import Counters
from repro.mr.cost import FixedCostMeter
from repro.mr.engine import LocalJobRunner
from repro.mr.executor import SerialExecutor
from repro.mr.split import split_records
from repro.workloads.thetajoin import (
    S_TAG,
    T_TAG,
    BandJoinReducer,
    OneBucketThetaMapper,
    RegionPartitioner,
    band_join_job,
    band_join_predicate,
)


def _brute_force(records) -> list[tuple]:
    """All (s, t) projections satisfying the band predicate."""
    tuples = [tuple(value) for _, value in records]
    return sorted(
        (s[0], s[1], s[2], t[2])
        for s in tuples
        for t in tuples
        if band_join_predicate(s, t)
    )


def _run(job, records, num_splits=3):
    splits = split_records(records, num_splits=num_splits)
    result = LocalJobRunner().run(job, splits)
    return sorted(value for _, value in result.output), result


def _per_write_loop(mapper, key, record) -> list:
    """What the mapper wrote when it built a tagged copy per ``write``."""
    row = stable_hash(("row", key)) % mapper.grid_rows
    col = stable_hash(("col", key)) % mapper.grid_cols
    out = []
    for c in range(mapper.grid_cols):
        out.append((row * mapper.grid_cols + c, (S_TAG, record)))
    for r in range(mapper.grid_rows):
        out.append((r * mapper.grid_cols + col, (T_TAG, record)))
    return out


class TestMapper:
    @given(
        rows=st.integers(1, 6),
        cols=st.integers(1, 6),
        key=st.integers(0, 10**6),
    )
    @settings(max_examples=50, deadline=None)
    def test_same_records_as_per_write_loop(self, rows, cols, key) -> None:
        """Through a capture context (one ``extend``) and a sink context
        alike: the former loop's records, in its order, with one tagged
        copy object per tag."""
        mapper = OneBucketThetaMapper(grid_rows=rows, grid_cols=cols)
        record = (20140622, 17, -40, key)
        captured: list = []
        mapper.map(
            key,
            record,
            Context(Counters(), lambda k, v: None).with_capture(captured),
        )
        sunk: list = []
        mapper.map(
            key, record, Context(Counters(), lambda k, v: sunk.append((k, v)))
        )
        expected = _per_write_loop(mapper, key, record)
        assert captured == expected
        assert sunk == expected
        for tag in (S_TAG, T_TAG):
            copies = [value for _, value in captured if value[0] == tag]
            assert all(copy is copies[0] for copy in copies)
        assert all(value[1] is record for _, value in captured)

    def test_covers_row_and_column(self) -> None:
        mapper = OneBucketThetaMapper(grid_rows=3, grid_cols=4)
        collected = []
        ctx = Context(Counters(), lambda k, v: collected.append((k, v)))
        mapper.map(7, ("rec",), ctx)
        s_regions = {k for k, (tag, _) in collected if tag == "S"}
        t_regions = {k for k, (tag, _) in collected if tag == "T"}
        assert len(s_regions) == 4  # one full row
        assert len(t_regions) == 3  # one full column
        assert len(s_regions & t_regions) == 1  # the (row, col) cell

    def test_deterministic_assignment(self) -> None:
        mapper = OneBucketThetaMapper(2, 2)
        runs = []
        for _ in range(2):
            collected = []
            ctx = Context(Counters(), lambda k, v: collected.append((k, v)))
            mapper.map(42, ("rec",), ctx)
            runs.append(collected)
        assert runs[0] == runs[1]

    def test_invalid_grid(self) -> None:
        with pytest.raises(ValueError):
            OneBucketThetaMapper(0, 2)


class TestRegionPartitioner:
    def test_round_robin(self) -> None:
        partitioner = RegionPartitioner()
        assert partitioner.get_partition(0, 4) == 0
        assert partitioner.get_partition(5, 4) == 1


class TestJoinCorrectness:
    def test_matches_brute_force(self) -> None:
        records = generate_cloud_reports(80, num_stations=10, seed=9)
        job = band_join_job(
            grid_rows=3, grid_cols=3, num_reducers=3,
            cost_meter=FixedCostMeter(),
        )
        joined, _ = _run(job, records)
        assert joined == _brute_force(records)

    def test_every_pair_joined_exactly_once(self) -> None:
        # identical coordinates: every pair matches; |result| must be n^2
        records = [(i, (1, 10, 50, i)) for i in range(12)]
        job = band_join_job(
            grid_rows=4, grid_cols=4, num_reducers=4,
            cost_meter=FixedCostMeter(),
        )
        joined, _ = _run(job, records)
        assert len(joined) == 144

    def test_no_matches(self) -> None:
        records = [(0, (1, 10, 0)), (1, (2, 20, 50))]
        job = band_join_job(
            grid_rows=2, grid_cols=2, num_reducers=2,
            cost_meter=FixedCostMeter(),
        )
        joined, _ = _run(job, records, num_splits=1)
        # only the trivial self-matches (each record joins itself)
        assert joined == sorted(
            [(1, 10, 0, 0), (2, 20, 50, 50)]
        )

    def test_grid_shape_does_not_change_result(self) -> None:
        records = generate_cloud_reports(50, num_stations=8, seed=11)
        results = []
        for rows, cols in [(1, 1), (2, 3), (5, 5)]:
            job = band_join_job(
                grid_rows=rows, grid_cols=cols, num_reducers=3,
                cost_meter=FixedCostMeter(),
            )
            joined, _ = _run(job, records)
            results.append(joined)
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize(
        "strategy", [Strategy.EAGER, Strategy.LAZY, Strategy.ADAPTIVE]
    )
    def test_anti_combining_preserves_join(self, strategy) -> None:
        records = generate_cloud_reports(60, num_stations=8, seed=13)
        job = band_join_job(
            grid_rows=4, grid_cols=4, num_reducers=4,
            cost_meter=FixedCostMeter(),
        )
        base, _ = _run(job, records)
        anti_joined, _ = _run(
            enable_anti_combining(job, strategy=strategy), records
        )
        assert anti_joined == base

    def test_replication_factor_grows_with_grid(self) -> None:
        records = generate_cloud_reports(40, num_stations=8, seed=17)
        small = band_join_job(grid_rows=2, grid_cols=2, num_reducers=2,
                              cost_meter=FixedCostMeter())
        large = band_join_job(grid_rows=6, grid_cols=6, num_reducers=2,
                              cost_meter=FixedCostMeter())
        _, small_result = _run(small, records)
        _, large_result = _run(large, records)
        assert (
            large_result.map_output_records
            > small_result.map_output_records
        )


class _NestedLoopReducer(Reducer):
    """The band join's pairwise definition: every S x T pair of the
    region, S outer and T inner, both in arrival order."""

    def reduce(self, region, values, context):
        s_tuples: list[tuple] = []
        t_tuples: list[tuple] = []
        for tag, record in values:
            (s_tuples if tag == S_TAG else t_tuples).append(tuple(record))
        for s in s_tuples:
            for t in t_tuples:
                if band_join_predicate(s, t):
                    context.write(region, (s[0], s[1], s[2], t[2]))


def _region_output(reducer: Reducer, values: list, region: int = 5) -> list:
    out: list = []
    context = Context(Counters(), lambda k, v: out.append((k, v)))
    reducer.reduce(region, iter(values), context)
    return out


_record = st.tuples(
    st.integers(0, 2), st.sampled_from([-10, 0, 10]), st.integers(-25, 25)
)


class TestBandJoinReducer:
    """The bucketed join writes the nested loop's list, order included."""

    def test_band_edges_negative_latitudes_and_duplicates(self) -> None:
        values = [
            (T_TAG, (1, 10, -5, 0)),
            (S_TAG, (1, 10, 5, 1)),
            (T_TAG, (1, 10, 16, 2)),  # |Δ| = 11 from S lat 5
            (T_TAG, (1, 10, 15, 3)),  # |Δ| = 10
            (S_TAG, (1, 10, -15, 4)),
            (T_TAG, (1, 10, -5, 0)),  # a duplicate record
            (T_TAG, (1, 20, 5, 5)),  # another longitude
            (T_TAG, (2, 10, 5, 6)),  # another date
            (S_TAG, (1, 10, 5, 1)),  # a duplicate S record
            (T_TAG, [1, 10, -25, 7]),  # a list-shaped record
        ]
        joined = _region_output(BandJoinReducer(), values)
        assert joined == _region_output(_NestedLoopReducer(), values)
        assert [value[3] for _, value in joined] == [
            -5, 15, -5, -5, -5, -25, -5, 15, -5,
        ]

    @pytest.mark.parametrize("tag", [S_TAG, T_TAG])
    def test_a_region_with_one_side_only_joins_nothing(self, tag) -> None:
        values = [(tag, (1, 10, 5)), (tag, (1, 10, 5))]
        assert _region_output(BandJoinReducer(), values) == []
        assert _region_output(BandJoinReducer(), []) == []

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([S_TAG, T_TAG]), _record)))
    def test_matches_the_nested_loop(self, values) -> None:
        assert _region_output(BandJoinReducer(), values) == _region_output(
            _NestedLoopReducer(), values
        )

    @pytest.mark.parametrize(
        "strategy", [None, Strategy.EAGER, Strategy.LAZY, Strategy.ADAPTIVE]
    )
    def test_each_region_writes_the_nested_loop_list(self, strategy) -> None:
        records = generate_cloud_reports(90, num_stations=6, seed=21)
        splits = split_records(records, num_splits=3)
        outputs = []
        for reducer in (BandJoinReducer, _NestedLoopReducer):
            job = band_join_job(
                grid_rows=3, grid_cols=3, num_reducers=3,
                cost_meter=FixedCostMeter(),
            ).clone(reducer=reducer)
            if strategy is not None:
                job = enable_anti_combining(job, strategy=strategy)
            result = LocalJobRunner(executor=SerialExecutor()).run(job, splits)
            outputs.append(result.outputs_by_partition)
        assert outputs[0] == outputs[1]
        assert sum(map(len, outputs[0].values())) > 90
