"""Tests for the multi-way (Shares) chain join."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import Strategy
from repro.core.transform import enable_anti_combining
from repro.mr.api import Context, stable_hash
from repro.mr.counters import Counters
from repro.mr.cost import FixedCostMeter
from repro.mr.engine import LocalJobRunner
from repro.mr.split import split_records
from repro.workloads.starjoin import (
    StarJoinMapper,
    brute_force_star_join,
    star_join_job,
)


def _make_records(seed: int, r: int = 30, s: int = 40, t: int = 30):
    rng = random.Random(seed)
    records = []
    rid = 0
    for _ in range(r):
        records.append((rid, ("R", (rng.randrange(20), rng.randrange(8)))))
        rid += 1
    for _ in range(s):
        records.append((rid, ("S", (rng.randrange(8), rng.randrange(8)))))
        rid += 1
    for _ in range(t):
        records.append((rid, ("T", (rng.randrange(8), rng.randrange(20)))))
        rid += 1
    return records


def _run(job, records, num_splits=4):
    splits = split_records(records, num_splits=num_splits)
    result = LocalJobRunner().run(job, splits)
    return sorted(key for key, _ in result.output), result


def _per_write_loop(mapper, record) -> list:
    """What the mapper wrote when it built a tagged copy per ``write``."""
    tag, payload = record
    payload = tuple(payload)
    b, c = mapper.b_shares, mapper.c_shares
    if tag == "R":
        row = stable_hash(payload[1]) % b
        return [(row * c + col, ("R", payload)) for col in range(c)]
    if tag == "S":
        row = stable_hash(payload[0]) % b
        col = stable_hash(payload[1]) % c
        return [(row * c + col, ("S", payload))]
    col = stable_hash(payload[0]) % c
    return [(row * c + col, ("T", payload)) for row in range(b)]


class TestMapper:
    @given(
        b_shares=st.integers(1, 6),
        c_shares=st.integers(1, 6),
        tag=st.sampled_from(["R", "S", "T"]),
        payload=st.tuples(st.integers(0, 99), st.integers(0, 99)),
    )
    @settings(max_examples=50, deadline=None)
    def test_same_records_as_per_write_loop(
        self, b_shares, c_shares, tag, payload
    ) -> None:
        """The former loop's records, in its order, through a capture
        context and a sink context; every copy is one object."""
        mapper = StarJoinMapper(b_shares, c_shares)
        record = (tag, list(payload))
        captured: list = []
        mapper.map(
            0,
            record,
            Context(Counters(), lambda k, v: None).with_capture(captured),
        )
        sunk: list = []
        mapper.map(
            0, record, Context(Counters(), lambda k, v: sunk.append((k, v)))
        )
        expected = _per_write_loop(mapper, record)
        assert captured == expected
        assert sunk == expected
        assert all(value is captured[0][1] for _, value in captured)

    def test_replication_shape(self) -> None:
        mapper = StarJoinMapper(b_shares=3, c_shares=5)
        for tag, expected_copies in (("R", 5), ("S", 1), ("T", 3)):
            collected = []
            ctx = Context(Counters(), lambda k, v: collected.append((k, v)))
            mapper.map(0, (tag, (1, 2)), ctx)
            assert len(collected) == expected_copies
            values = {v for _, v in collected}
            assert len(values) == 1  # identical value in every copy

    def test_unknown_tag(self) -> None:
        mapper = StarJoinMapper(2, 2)
        ctx = Context(Counters(), lambda k, v: None)
        with pytest.raises(ValueError, match="unknown relation"):
            mapper.map(0, ("X", (1, 2)), ctx)

    def test_invalid_shares(self) -> None:
        with pytest.raises(ValueError):
            StarJoinMapper(0, 2)


class TestJoinCorrectness:
    @pytest.mark.parametrize("shares", [(1, 1), (2, 3), (4, 4)])
    def test_matches_brute_force(self, shares) -> None:
        records = _make_records(seed=3)
        job = star_join_job(
            b_shares=shares[0],
            c_shares=shares[1],
            num_reducers=3,
            cost_meter=FixedCostMeter(),
        )
        joined, _ = _run(job, records)
        assert joined == brute_force_star_join(records)

    def test_no_duplicates(self) -> None:
        records = _make_records(seed=4)
        job = star_join_job(
            b_shares=3, c_shares=3, num_reducers=4,
            cost_meter=FixedCostMeter(),
        )
        joined, _ = _run(job, records)
        expected = brute_force_star_join(records)
        # brute force may contain genuine duplicates (duplicate input
        # tuples); the job must match exactly, multiset-wise
        assert joined == expected

    @pytest.mark.parametrize(
        "strategy", [Strategy.EAGER, Strategy.LAZY, Strategy.ADAPTIVE]
    )
    def test_anti_combining_preserves_join(self, strategy) -> None:
        records = _make_records(seed=5)
        job = star_join_job(
            b_shares=4, c_shares=4, num_reducers=4,
            cost_meter=FixedCostMeter(),
        )
        base, base_result = _run(job, records)
        anti, anti_result = _run(
            enable_anti_combining(job, strategy=strategy), records
        )
        assert anti == base
        assert anti_result.map_output_bytes < base_result.map_output_bytes

    def test_replication_grows_with_shares(self) -> None:
        records = _make_records(seed=6)
        small = star_join_job(b_shares=2, c_shares=2, num_reducers=2,
                              cost_meter=FixedCostMeter())
        large = star_join_job(b_shares=5, c_shares=5, num_reducers=2,
                              cost_meter=FixedCostMeter())
        _, small_result = _run(small, records)
        _, large_result = _run(large, records)
        assert (
            large_result.map_output_records
            > small_result.map_output_records
        )

    def test_empty_relations(self) -> None:
        records = [(0, ("R", (1, 2)))]  # S and T empty -> no results
        job = star_join_job(num_reducers=2, cost_meter=FixedCostMeter())
        joined, _ = _run(job, records, num_splits=1)
        assert joined == []
