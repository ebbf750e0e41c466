"""Tests for the kNN join (H-BNLJ), validated by brute force."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import Strategy
from repro.core.transform import enable_anti_combining
from repro.datagen.points import generate_points
from repro.mr.api import Context, stable_hash
from repro.mr.cost import FixedCostMeter
from repro.mr.counters import Counters
from repro.workloads.knnjoin import (
    KnnBlockMapper,
    brute_force_knn,
    euclidean,
    knn_join_job,
    run_knn_join,
)


class TestPrimitives:
    def test_euclidean(self) -> None:
        assert euclidean((0, 0), (3, 4)) == 5.0
        assert euclidean((1, 1), (1, 1)) == 0.0

    def test_validation(self) -> None:
        from repro.workloads.knnjoin import KnnBlockMapper, KnnCellReducer

        with pytest.raises(ValueError):
            KnnBlockMapper(0)
        with pytest.raises(ValueError):
            KnnCellReducer(0)


def _per_write_loop(mapper, point_id, record) -> list:
    """What the mapper wrote when it built a tagged copy per ``write``."""
    tag, coords = record
    coords = tuple(coords)
    n = mapper.num_blocks
    block = stable_hash(point_id) % n
    if tag == "D":
        return [(block * n + col, ("D", point_id, coords)) for col in range(n)]
    return [(row * n + block, ("Q", point_id, coords)) for row in range(n)]


class TestMapper:
    @given(
        num_blocks=st.integers(1, 6),
        point_id=st.integers(0, 10**6),
        tag=st.sampled_from(["D", "Q"]),
        coords=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=3),
    )
    @settings(max_examples=50, deadline=None)
    def test_same_records_as_per_write_loop(
        self, num_blocks, point_id, tag, coords
    ) -> None:
        """The former loop's records, in its order, through a capture
        context and a sink context; every copy is one object."""
        mapper = KnnBlockMapper(num_blocks)
        record = (tag, coords)
        captured: list = []
        mapper.map(
            point_id,
            record,
            Context(Counters(), lambda k, v: None).with_capture(captured),
        )
        sunk: list = []
        mapper.map(
            point_id,
            record,
            Context(Counters(), lambda k, v: sunk.append((k, v))),
        )
        expected = _per_write_loop(mapper, point_id, record)
        assert captured == expected
        assert sunk == expected
        assert all(value is captured[0][1] for _, value in captured)


class TestKnnJoin:
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_matches_brute_force(self, k: int) -> None:
        records = generate_points(60, 15, seed=7)
        job = knn_join_job(
            k=k, num_blocks=3, num_reducers=3, cost_meter=FixedCostMeter()
        )
        result, _, _ = run_knn_join(job, records, k=k, num_splits=3)
        assert result == brute_force_knn(records, k)

    def test_every_query_answered(self) -> None:
        records = generate_points(40, 10, seed=8)
        job = knn_join_job(
            k=2, num_blocks=4, num_reducers=4, cost_meter=FixedCostMeter()
        )
        result, _, _ = run_knn_join(job, records, k=2, num_splits=3)
        assert set(result) == {f"q{i}" for i in range(10)}
        assert all(len(neighbors) == 2 for neighbors in result.values())

    def test_fewer_data_points_than_k(self) -> None:
        records = generate_points(2, 3, seed=9)
        job = knn_join_job(
            k=5, num_blocks=2, num_reducers=2, cost_meter=FixedCostMeter()
        )
        result, _, _ = run_knn_join(job, records, k=5, num_splits=2)
        assert all(len(neighbors) == 2 for neighbors in result.values())

    @pytest.mark.parametrize(
        "strategy", [Strategy.EAGER, Strategy.LAZY, Strategy.ADAPTIVE]
    )
    def test_anti_combining_preserves_knn(self, strategy) -> None:
        records = generate_points(50, 12, seed=10)
        job = knn_join_job(
            k=3, num_blocks=4, num_reducers=4, cost_meter=FixedCostMeter()
        )
        base, base_first, _ = run_knn_join(job, records, k=3, num_splits=3)
        anti_job = enable_anti_combining(job, strategy=strategy)
        anti, anti_first, _ = run_knn_join(
            anti_job, records, k=3, num_splits=3
        )
        assert anti == base
        assert anti_first.map_output_bytes <= base_first.map_output_bytes

    def test_replication_factor(self) -> None:
        from repro.mr import counters as C

        records = generate_points(30, 10, seed=11)
        job = knn_join_job(
            k=2, num_blocks=5, num_reducers=4, cost_meter=FixedCostMeter()
        )
        _, first, _ = run_knn_join(job, records, k=2, num_splits=2)
        inputs = first.counters.get_int(C.MAP_INPUT_RECORDS)
        assert first.map_output_records == inputs * 5


class TestPointGenerator:
    def test_shape_and_determinism(self) -> None:
        a = generate_points(20, 5, seed=1)
        b = generate_points(20, 5, seed=1)
        assert a == b
        assert len(a) == 25
        tags = {tag for _, (tag, _) in a}
        assert tags == {"D", "Q"}
        for _, (_, (x, y)) in a:
            assert 0 <= x < 1 and 0 <= y < 1

    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            generate_points(0, 5)
        with pytest.raises(ValueError):
            generate_points(5, 5, num_clusters=0)
