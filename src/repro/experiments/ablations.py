"""Ablation studies for the design choices DESIGN.md calls out.

These go beyond the paper's published tables: each isolates one design
decision and quantifies what it buys.

* **LazySH skew** — Section 6.2 notes that LazySH can concentrate
  decode CPU on some reducers: total cost drops, imbalance rises.
* **record-metadata spilling** — the Hadoop 1.x io.sort.record.percent
  mechanism is what turns record-count reduction into disk-I/O
  reduction (Section 7.7.1); switch it off and watch the factor fall.
"""

from __future__ import annotations

from repro.analysis.report import ExperimentResult, reduction_factor
from repro.core.transform import enable_anti_combining
from repro.datagen.qlog import generate_query_log
from repro.datagen.randomtext import generate_random_text
from repro.experiments.common import measure_job
from repro.mr.split import split_records
from repro.workloads.query_suggestion import (
    PrefixPartitioner,
    query_suggestion_job,
)
from repro.workloads.wordcount import wordcount_job


def _reexecution_skew(result) -> float:
    """Max/mean LazySH re-executions across reduce tasks.

    1.0 means perfectly balanced decode work; 0 means no re-execution
    happened at all (Original and pure-EagerSH runs).  Deterministic,
    unlike wall-clock per-task CPU.
    """
    counts = [task.reexecutions for task in result.reduce_task_costs]
    total = sum(counts)
    if not counts or total == 0:
        return 0.0
    return max(counts) / (total / len(counts))


def run_ablation_skew(
    num_records: int = 2000,
    num_reducers: int = 8,
    num_splits: int = 6,
    seed: int = 42,
) -> ExperimentResult:
    """LazySH decode skew on Query-Suggestion/Prefix-1 (Section 6.2).

    Anti-Combining lowers *total* cost but re-execution work can land
    unevenly on reducers: under the Prefix-1 partitioner every lazy
    record of a query goes to the reduce task owning its first letter,
    so popular letters concentrate Map re-executions.  T = 0 (pure
    EagerSH) trades some of the savings back for balance — exactly the
    knob the paper describes.  (The theta-join would show *no* skew
    here: 1-Bucket-Theta load-balances almost perfectly, which is why
    the paper reports its runtime tracking output size.)
    """
    records = generate_query_log(num_records, seed=seed)
    splits = split_records(records, num_splits=num_splits)
    job = query_suggestion_job(
        num_reducers=num_reducers, partitioner=PrefixPartitioner(1)
    )
    runs = [
        measure_job("Original", job, splits),
        measure_job(
            "Adaptive-inf (lazy-heavy)", enable_anti_combining(job), splits
        ),
        measure_job(
            "Adaptive-0 (eager only)",
            enable_anti_combining(job, threshold_t=0.0),
            splits,
        ),
    ]
    reference = runs[0].result.sorted_output()
    for run in runs:
        assert run.result.sorted_output() == reference, run.name
    rows = [
        {
            "Configuration": run.name,
            "Map Output (B)": run.map_output_bytes,
            "Total CPU (s)": round(run.cpu_seconds, 3),
            "Reexecutions": sum(
                task.reexecutions for task in run.result.reduce_task_costs
            ),
            "Reexec skew": round(_reexecution_skew(run.result), 3),
        }
        for run in runs
    ]
    return ExperimentResult(
        artifact="Ablation (paper Sec. 6.2)",
        title=(
            "LazySH decode skew vs transfer savings "
            "(Query-Suggestion, Prefix-1)"
        ),
        headers=[
            "Configuration",
            "Map Output (B)",
            "Total CPU (s)",
            "Reexecutions",
            "Reexec skew",
        ],
        rows=rows,
        notes={"num_records": num_records},
    )


def run_ablation_record_percent(
    num_lines: int = 1000,
    words_per_line: int = 60,
    num_reducers: int = 8,
    num_splits: int = 8,
    seed: int = 42,
    sort_buffer_bytes: int = 64 * 1024,
) -> ExperimentResult:
    """With vs without the per-record metadata spill ceiling.

    Hadoop 1.x spills when the 5% metadata region fills; disabling it
    (``sort_record_percent = 1``) makes spills byte-driven, and
    Anti-Combining's disk-I/O factor on WordCount collapses towards its
    byte factor — evidence for the mechanism claimed in Section 7.7.1's
    reproduction.
    """
    records = generate_random_text(
        num_lines,
        words_per_line=words_per_line,
        vocabulary_size=150,
        seed=seed,
    )
    splits = split_records(records, num_splits=num_splits)
    rows = []
    factors = {}
    for label, record_percent in (
        ("io.sort.record.percent = 0.05", 0.05),
        ("record metadata unlimited", 1.0),
    ):
        job = wordcount_job(
            num_reducers=num_reducers,
            sort_buffer_bytes=sort_buffer_bytes,
            sort_record_percent=record_percent,
        )
        base = measure_job(f"Original ({label})", job, splits)
        anti = measure_job(
            f"AdaptiveSH ({label})",
            enable_anti_combining(job, use_map_combiner=True),
            splits,
        )
        assert anti.result.sorted_output() == base.result.sorted_output()
        factor = round(
            reduction_factor(base.disk_read_bytes, anti.disk_read_bytes), 2
        )
        factors[label] = factor
        rows.append(
            {
                "Setting": label,
                "Original Disk (B)": base.disk_read_bytes,
                "AdaptiveSH Disk (B)": anti.disk_read_bytes,
                "Factor": factor,
            }
        )
    return ExperimentResult(
        artifact="Ablation (substrate)",
        title="Disk-I/O factor with and without record-metadata spilling",
        headers=[
            "Setting",
            "Original Disk (B)",
            "AdaptiveSH Disk (B)",
            "Factor",
        ],
        rows=rows,
        notes={"num_lines": num_lines, **factors},
    )
