"""Ablation benchmarks for the design choices DESIGN.md calls out.

Not paper artefacts — these isolate one design decision each: LazySH
decode skew (Section 6.2) and the record-metadata spill mechanism
behind the WordCount disk factors (Section 7.7.1).
"""

from repro.experiments import run_ablation_record_percent, run_ablation_skew


def test_ablation_skew(report_runner) -> None:
    result = report_runner(run_ablation_skew, num_records=2000)
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


def test_ablation_record_percent(report_runner) -> None:
    result = report_runner(run_ablation_record_percent, num_lines=1000)
    with_mechanism = result.rows[0]["Factor"]
    without_mechanism = result.rows[1]["Factor"]
    assert with_mechanism > without_mechanism
