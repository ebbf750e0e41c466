"""Figure 12: 1-Bucket-Theta band join — map output size and runtime.

Configurations: Original, EagerSH, AdaptiveSH, each with and without
gzip map-output compression (the ``-CP`` bars).  LazySH is omitted
like in the paper, because AdaptiveSH ends up choosing LazySH for
(essentially) every record — the driver asserts that.  Findings:

* replication makes Original's map output huge (the paper saw 67x
  replication and a 9.5x AdaptiveSH reduction);
* AdaptiveSH uncompressed already beats Original *with* compression;
* runtime tracks map output size because 1-Bucket-Theta load-balances
  almost perfectly.
"""

from __future__ import annotations

from repro.analysis.report import ExperimentResult, reduction_factor
from repro.core.config import Strategy
from repro.core.transform import enable_anti_combining
from repro.datagen.cloud import generate_cloud_reports
from repro.experiments.common import measure_job
from repro.mr import counters as C
from repro.mr.runtime_model import ClusterModel
from repro.mr.split import split_records
from repro.workloads.thetajoin import band_join_job


def run_fig12(
    num_records: int = 1200,
    grid_rows: int = 24,
    grid_cols: int = 24,
    num_reducers: int = 8,
    num_splits: int = 8,
    seed: int = 42,
    cluster: ClusterModel | None = None,
) -> ExperimentResult:
    """Reproduce Figure 12.

    The grid is finer than the reducer count, modelling the
    memory-aware chunking that drives the paper's 67x replication:
    24x24 regions over 8 reducers replicate each record 48x.
    The default cluster model is network-constrained (a shared
    100 Mbit-class fabric) because the join is shuffle-bound — the
    regime the paper's Section 7 intro describes for "larger data
    centers with more machines and multi-hop communication", where
    runtime tracks map output size.
    """
    if cluster is None:
        cluster = ClusterModel(nic_bandwidth=12.5e6, disk_bandwidth=50e6)
    records = generate_cloud_reports(num_records, seed=seed)
    splits = split_records(records, num_splits=num_splits)

    def job(codec: str | None = None):
        return band_join_job(
            grid_rows=grid_rows,
            grid_cols=grid_cols,
            num_reducers=num_reducers,
            map_output_codec=codec,
        )

    configurations = {
        "Original": job(),
        "EagerSH": enable_anti_combining(job(), strategy=Strategy.EAGER),
        "AdaptiveSH": enable_anti_combining(job()),
        "Original-CP": job("gzip"),
        "EagerSH-CP": enable_anti_combining(
            job("gzip"), strategy=Strategy.EAGER
        ),
        "AdaptiveSH-CP": enable_anti_combining(job("gzip")),
    }

    rows = []
    reference = None
    adaptive_lazy_fraction = 0.0
    replication = 0.0
    for name, conf in configurations.items():
        run = measure_job(name, conf, splits, cluster=cluster)
        if reference is None:
            reference = run.result.sorted_output()
        else:
            assert run.result.sorted_output() == reference, name
        rows.append(
            {
                "Configuration": name,
                "Map Output (B)": run.map_output_bytes,
                "Runtime (s)": round(run.runtime_seconds, 4),
            }
        )
        if name == "Original":
            inputs = run.result.counters.get_int(C.MAP_INPUT_RECORDS)
            replication = (
                run.map_output_records / inputs if inputs else 0.0
            )
        if name == "AdaptiveSH":
            counters = run.result.counters
            lazy = counters.get_int(C.ANTI_LAZY_RECORDS)
            total = lazy + counters.get_int(
                C.ANTI_EAGER_RECORDS
            ) + counters.get_int(C.ANTI_PLAIN_RECORDS)
            adaptive_lazy_fraction = lazy / total if total else 0.0

    by_name = {row["Configuration"]: row for row in rows}
    return ExperimentResult(
        artifact="Figure 12",
        title="Theta-join: total map output size and runtime",
        headers=["Configuration", "Map Output (B)", "Runtime (s)"],
        rows=rows,
        notes={
            "num_records": num_records,
            "grid": f"{grid_rows}x{grid_cols}",
            "replication_factor": round(replication, 1),
            "paper_replication_factor": 67,
            "adaptive_output_factor": round(
                reduction_factor(
                    by_name["Original"]["Map Output (B)"],
                    by_name["AdaptiveSH"]["Map Output (B)"],
                ),
                2,
            ),
            "paper_adaptive_output_factor": 9.5,
            "adaptive_lazy_fraction": round(adaptive_lazy_fraction, 3),
        },
    )
