"""Soak test: every subsystem under stress simultaneously.

One deliberately hostile configuration — tiny sort buffer (dozens of
spills), tiny reduce buffer (staged shuffles), tiny Shared budget
(decode-time spilling), small merge factors (multi-pass merges),
compression on, combiner on, secondary-sort grouping — run over a
non-trivial workload under all three strategies.  Catches interaction
bugs that the per-module tests cannot.
"""

from __future__ import annotations

import pytest

from repro.core.config import Strategy
from repro.core.transform import enable_anti_combining
from repro.datagen.qlog import generate_query_log
from repro.mr import counters as C
from repro.mr.cost import FixedCostMeter
from repro.mr.engine import LocalJobRunner
from repro.mr.split import split_records
from repro.workloads.query_suggestion import (
    PrefixPartitioner,
    query_suggestion_job,
)


@pytest.fixture(scope="module")
def hostile_setup():
    records = generate_query_log(600, seed=77)
    splits = split_records(records, num_splits=5)
    job = query_suggestion_job(
        num_reducers=5,
        partitioner=PrefixPartitioner(3),
        with_combiner=True,
        map_output_codec="gzip",
        sort_buffer_bytes=4 * 1024,
        reduce_buffer_bytes=2 * 1024,
        merge_factor=2,
        cost_meter=FixedCostMeter(),
    )
    baseline = LocalJobRunner().run(job, splits)
    return job, splits, baseline


class TestSoak:
    def test_baseline_actually_stresses_everything(self, hostile_setup):
        job, _, baseline = hostile_setup
        counters = baseline.counters
        assert counters.get_int(C.MAP_SPILLS) > 10
        assert baseline.disk_read_bytes > baseline.map_output_bytes
        # Reduce-side merge passes: more fetched segments per reducer
        # than the merge factor.
        fetched = counters.get_int(C.REDUCE_MERGE_SEGMENTS)
        assert fetched / job.num_reducers > job.merge_factor

    @pytest.mark.parametrize(
        "strategy", [Strategy.EAGER, Strategy.LAZY, Strategy.ADAPTIVE]
    )
    def test_all_strategies_survive(self, hostile_setup, strategy):
        job, splits, baseline = hostile_setup
        anti = enable_anti_combining(
            job,
            strategy=strategy,
            use_map_combiner=True,
            shared_memory_bytes=2 * 1024,
            shared_merge_threshold=2,
        )
        result = LocalJobRunner().run(anti, splits)
        assert result.sorted_output() == baseline.sorted_output()

    def test_adaptive_with_shared_combining_and_spills(self, hostile_setup):
        job, splits, baseline = hostile_setup
        anti = enable_anti_combining(
            job,
            use_map_combiner=False,
            use_shared_combiner=True,
            shared_memory_bytes=2 * 1024,
        )
        result = LocalJobRunner().run(anti, splits)
        assert result.sorted_output() == baseline.sorted_output()
