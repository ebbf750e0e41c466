"""Shape tests for the per-figure experiment drivers.

The tier-1 tests run drivers at a few hundred records — enough to
assert the paper's qualitative findings (who wins, in which direction).
The ``slow`` tests run each driver at its defaults, the configuration
``repro run`` writes ``benchmarks/results/`` at, and assert the shape
EXPERIMENTS.md reports for it.
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    run_fig9,
    run_fig10,
    run_fig11,
    run_fig12,
    run_pagerank_experiment,
    run_sec71,
    run_table1,
    run_table2,
    run_wordcount_experiment,
)


@pytest.fixture(scope="module")
def fig9():
    return run_fig9(num_queries=400, num_reducers=4, num_splits=3)


class TestFig9:
    def test_original_identical_across_partitioners(self, fig9) -> None:
        originals = fig9.column("Original")
        assert len(set(originals)) == 1

    def test_every_strategy_beats_original(self, fig9) -> None:
        for row in fig9.rows:
            for strategy in ("EagerSH", "LazySH", "AdaptiveSH"):
                assert row[strategy] < row["Original"]

    def test_adaptive_at_least_matches_eager(self, fig9) -> None:
        for row in fig9.rows:
            assert row["AdaptiveSH"] <= row["EagerSH"]

    def test_prefix1_maximises_sharing(self, fig9) -> None:
        by_partitioner = {row["Partitioner"]: row for row in fig9.rows}
        assert (
            by_partitioner["Prefix-1"]["AdaptiveSH"]
            < by_partitioner["Hash"]["AdaptiveSH"]
        )

    @pytest.mark.slow
    def test_full_size_shape(self) -> None:
        result = run_fig9(num_queries=6000, num_reducers=8)
        for row in result.rows:
            assert row["AdaptiveSH"] < row["Original"]
        assert result.notes["best_reduction_factor"] > 10


class TestFig10:
    @pytest.mark.slow
    def test_full_size_shape(self) -> None:
        result = run_fig10(num_queries=6000, num_reducers=8)
        for row in result.rows:
            assert row["AdaptiveSH"] < row["Original"]
        # the map-phase Combiner alone is weak on this log (~12%)
        assert result.notes["combiner_only_reduction"] < 0.35


class TestTable1:
    def test_codec_landscape(self) -> None:
        result = run_table1(num_queries=400, num_reducers=4, num_splits=3)
        by_name = {row["Configuration"]: row for row in result.rows}
        # snappy trades ratio for speed
        assert (
            by_name["Snappy"]["Map Output (B)"]
            > by_name["Gzip"]["Map Output (B)"]
        )
        # bzip2 compresses best among the pure codecs
        assert (
            by_name["Bzip2"]["Map Output (B)"]
            <= by_name["Gzip"]["Map Output (B)"]
        )
        # anti + gzip beats every pure codec on size and disk
        anti = by_name["AdaptiveSH+gzip"]
        for name in ("Deflate", "Gzip", "Bzip2", "Snappy"):
            assert anti["Map Output (B)"] < by_name[name]["Map Output (B)"]
            assert anti["Disk Read (B)"] < by_name[name]["Disk Read (B)"]

    @pytest.mark.slow
    def test_full_size_shape(self) -> None:
        result = run_table1(num_queries=6000, num_reducers=8)
        by_name = {row["Configuration"]: row for row in result.rows}
        anti = by_name["AdaptiveSH+gzip"]
        for codec in ("Deflate", "Gzip", "Bzip2", "Snappy"):
            assert anti["Map Output (B)"] < by_name[codec]["Map Output (B)"]
            assert anti["Disk Read (B)"] < by_name[codec]["Disk Read (B)"]
            assert anti["Disk Write (B)"] < by_name[codec]["Disk Write (B)"]


class TestTable2:
    def test_breakdown_directions(self) -> None:
        result = run_table2(
            num_queries=500,
            num_reducers=4,
            num_splits=3,
            shared_memory_bytes=8 * 1024,
        )
        by_name = {row["Algorithm"]: row for row in result.rows}
        # anti reduces local disk traffic
        assert (
            by_name["AdaptiveSH"]["Disk Read (B)"]
            < by_name["Original"]["Disk Read (B)"]
        )
        # Shared spills without the Combiner, (almost) never with it
        assert by_name["AdaptiveSH"]["Shared Spills"] > 0
        assert (
            by_name["AdaptiveSH-CB"]["Shared Spills"]
            < by_name["AdaptiveSH"]["Shared Spills"]
        )

    @pytest.mark.slow
    def test_full_size_shape(self) -> None:
        result = run_table2(num_queries=6000, num_reducers=8)
        by_name = {row["Algorithm"]: row for row in result.rows}
        original, adaptive = by_name["Original"], by_name["AdaptiveSH"]
        assert adaptive["Disk Read (B)"] < original["Disk Read (B)"]
        assert adaptive["CPU (s)"] < original["CPU (s)"]
        combined = by_name["AdaptiveSH-CB"]
        assert combined["Shared Spills"] < adaptive["Shared Spills"]


class TestFig11:
    @pytest.mark.slow
    def test_full_size_shape(self) -> None:
        result = run_fig11(
            num_queries=1200,
            num_reducers=4,
            work_levels=(0, 2, 4, 8, 12, 16),
        )
        high = result.rows[-1]
        # with expensive maps, bounding re-execution (T=0) must beat
        # unbounded LazySH (T=inf), and the finite threshold converges
        # to Adaptive-0
        assert high["Adaptive-0"] < high["Adaptive-inf"]
        assert high["Adaptive-alpha"] < high["Adaptive-inf"]


class TestSec71:
    def test_overheads_small_and_plain_only(self) -> None:
        result = run_sec71(num_lines=300, num_reducers=3, num_splits=3)
        assert result.notes["all_records_degenerate_to_plain"]
        disk_row = result.row_by("Metric", "Total disk read+write (B)")
        assert disk_row["Overhead %"] < 10
        cpu_row = result.row_by("Metric", "Total CPU, busy Map (s)")
        assert cpu_row["Overhead %"] < 50

    @pytest.mark.slow
    def test_full_size_shape(self) -> None:
        result = run_sec71(num_lines=4000, num_reducers=8)
        assert result.notes["all_records_degenerate_to_plain"]
        disk = result.row_by("Metric", "Total disk read+write (B)")
        assert disk["Overhead %"] < 10
        cpu = result.row_by("Metric", "Total CPU, busy Map (s)")
        assert cpu["Overhead %"] < 50


class TestWordCount:
    def test_factors_direction(self) -> None:
        result = run_wordcount_experiment(
            num_lines=300, num_reducers=4, num_splits=3
        )
        records = result.row_by("Metric", "Map output records")
        assert records["Factor"] > 3
        disk = result.row_by("Metric", "Disk read (B)")
        assert disk["Factor"] > 1.5

    @pytest.mark.slow
    def test_full_size_shape(self) -> None:
        result = run_wordcount_experiment(num_lines=1500, num_reducers=8)
        assert result.row_by("Metric", "Map output records")["Factor"] > 4
        assert result.row_by("Metric", "Disk read (B)")["Factor"] > 2
        assert result.row_by("Metric", "CPU (s)")["Factor"] > 1


class TestPageRank:
    def test_factors_direction(self) -> None:
        result = run_pagerank_experiment(
            num_nodes=300, iterations=2, num_reducers=4, num_splits=4
        )
        shuffle = result.row_by("Metric", "Shuffle (B)")
        assert shuffle["Factor"] > 1.3
        disk = result.row_by("Metric", "Disk read (B)")
        assert disk["Factor"] > 1.5

    @pytest.mark.slow
    def test_full_size_shape(self) -> None:
        result = run_pagerank_experiment(
            num_nodes=1500, iterations=5, num_reducers=8
        )
        assert result.row_by("Metric", "Shuffle (B)")["Factor"] > 1.5
        assert result.row_by("Metric", "Disk read (B)")["Factor"] > 2
        assert result.row_by("Metric", "Runtime (s)")["Factor"] > 1


class TestFig12:
    def test_join_shape(self) -> None:
        result = run_fig12(
            num_records=250,
            grid_rows=6,
            grid_cols=6,
            num_reducers=4,
            num_splits=3,
        )
        by_name = {row["Configuration"]: row for row in result.rows}
        assert (
            by_name["AdaptiveSH"]["Map Output (B)"]
            < by_name["EagerSH"]["Map Output (B)"]
            < by_name["Original"]["Map Output (B)"]
        )
        # AdaptiveSH picks LazySH for (almost) all records
        assert result.notes["adaptive_lazy_fraction"] > 0.9
        assert result.notes["replication_factor"] > 5

    @pytest.mark.slow
    def test_full_size_shape(self) -> None:
        # 24x24 regions over 8 reducers models the memory-aware chunking:
        # replication 48x, approaching the paper's 67x.
        result = run_fig12(
            num_records=1200,
            grid_rows=24,
            grid_cols=24,
            num_reducers=8,
        )
        by_name = {row["Configuration"]: row for row in result.rows}
        original, adaptive = by_name["Original"], by_name["AdaptiveSH"]
        output = "Map Output (B)"
        assert adaptive[output] < original[output] / 5
        # AdaptiveSH without compression already beats Original with it
        assert adaptive[output] < by_name["Original-CP"][output]
        assert result.notes["adaptive_lazy_fraction"] > 0.9
        assert adaptive["Runtime (s)"] < original["Runtime (s)"]
