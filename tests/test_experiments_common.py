"""Tests for the shared experiment plumbing, the claim drivers and the
ablation drivers (the ``*_full_size``, star, kNN and ablation tests at
the sizes ``repro run`` writes ``benchmarks/results/`` at)."""

from __future__ import annotations

import pytest

from repro.core.anti_mapper import AntiMapper
from repro.experiments import (
    run_ablation_record_percent,
    run_ablation_skew,
    run_hits_experiment,
    run_knn_join_experiment,
    run_multiquery_experiment,
    run_similarity_join_experiment,
    run_star_join_experiment,
)
from repro.experiments.common import MeasuredRun, measure_job, strategy_variants
from repro.mr.api import Mapper, Reducer
from repro.mr.config import JobConf
from repro.mr.cost import FixedCostMeter


def _job(**kwargs) -> JobConf:
    defaults = dict(
        mapper=Mapper,
        reducer=Reducer,
        num_reducers=2,
        cost_meter=FixedCostMeter(),
    )
    defaults.update(kwargs)
    return JobConf(**defaults)


class TestMeasureJob:
    def test_captures_metrics(self) -> None:
        run = measure_job("probe", _job(), [[(1, "a"), (2, "b")]])
        assert run.name == "probe"
        assert run.map_output_records == 2
        assert run.map_output_bytes > 0
        assert run.runtime_seconds > 0
        assert run.shared_spills == 0
        assert run.result.sorted_output()

    def test_from_result_roundtrip(self) -> None:
        run = measure_job("probe", _job(), [[(1, "a")]])
        clone = MeasuredRun.from_result("clone", run.result)
        assert clone.map_output_bytes == run.map_output_bytes
        assert clone.cpu_seconds == run.cpu_seconds


class TestStrategyVariants:
    def test_full_lineup(self) -> None:
        variants = strategy_variants(_job())
        assert list(variants) == [
            "Original",
            "EagerSH",
            "LazySH",
            "AdaptiveSH",
        ]
        assert variants["Original"].anti is None
        for name in ("EagerSH", "LazySH", "AdaptiveSH"):
            assert variants[name].anti is not None
            assert isinstance(variants[name].make_mapper(), AntiMapper)

    def test_without_pure_strategies(self) -> None:
        variants = strategy_variants(_job(), include_pure=False)
        assert list(variants) == ["Original", "AdaptiveSH"]

    def test_anti_kwargs_forwarded(self) -> None:
        variants = strategy_variants(_job(), shared_memory_bytes=2048)
        assert variants["AdaptiveSH"].anti.shared_memory_bytes == 2048


class TestClaimDrivers:
    def test_similarity_join_claim(self) -> None:
        result = run_similarity_join_experiment(
            num_records=150, num_reducers=3, num_splits=3
        )
        assert result.notes["output_factor"] > 1.0
        assert result.notes["matches_found"] > 0

    def test_similarity_join_claim_full_size(self) -> None:
        result = run_similarity_join_experiment(num_records=800)
        assert result.notes["output_factor"] > 1.2
        assert result.notes["matches_found"] > 0

    def test_multiquery_claim(self) -> None:
        result = run_multiquery_experiment(
            num_lines=200, num_reducers=3, num_splits=3
        )
        assert len(result.rows) == 3
        assert result.rows[-1]["Factor"] >= result.rows[0]["Factor"]

    def test_multiquery_claim_full_size(self) -> None:
        result = run_multiquery_experiment(num_lines=1500)
        assert result.notes["factor_grows_with_sharing"]
        assert result.rows[-1]["Factor"] > result.rows[0]["Factor"]

    def test_multiquery_validation(self) -> None:
        with pytest.raises(ValueError):
            run_multiquery_experiment(num_queries=0)

    def test_hits_claim(self) -> None:
        result = run_hits_experiment(
            num_nodes=200, iterations=2, num_reducers=3, num_splits=3
        )
        by_metric = {row["Metric"]: row for row in result.rows}
        assert by_metric["Shuffle (B)"]["Factor"] > 1.2

    def test_hits_claim_full_size(self) -> None:
        result = run_hits_experiment(num_nodes=800, iterations=3)
        by_metric = {row["Metric"]: row for row in result.rows}
        assert by_metric["Shuffle (B)"]["Factor"] > 1.5
        assert by_metric["Disk read (B)"]["Factor"] > 2

    def test_star_join_claim(self) -> None:
        result = run_star_join_experiment()
        assert result.notes["output_factor"] > 2
        assert result.notes["join_results"] > 0

    def test_knn_join_claim(self) -> None:
        result = run_knn_join_experiment()
        assert result.notes["output_factor"] > 2


class TestAblationDrivers:
    def test_ablation_skew(self) -> None:
        result = run_ablation_skew(num_records=2000)
        by_name = {row["Configuration"]: row for row in result.rows}
        lazy_heavy = by_name["Adaptive-inf (lazy-heavy)"]
        eager_only = by_name["Adaptive-0 (eager only)"]
        # lazy minimises transfer but concentrates decode work on reducers
        assert lazy_heavy["Map Output (B)"] < eager_only["Map Output (B)"]
        assert lazy_heavy["Reexecutions"] > 0
        assert eager_only["Reexecutions"] == 0
        assert by_name["Original"]["Reexecutions"] == 0
        # the re-execution load is measurably imbalanced (max/mean > 1)
        assert lazy_heavy["Reexec skew"] > 1.0

    def test_ablation_record_percent(self) -> None:
        result = run_ablation_record_percent(num_lines=1000)
        with_mechanism = result.rows[0]["Factor"]
        without_mechanism = result.rows[1]["Factor"]
        assert with_mechanism > without_mechanism
