"""Experiment drivers: one per table/figure of the paper's Section 7.

Each driver is a pure function from scale parameters to an
:class:`~repro.analysis.report.ExperimentResult`; the benchmark harness
in ``benchmarks/`` runs them and prints their tables, and
``EXPERIMENTS.md`` records measured-vs-paper outcomes.

:data:`EXPERIMENTS` is the one registry of runnable experiments and
:func:`resolve_params` the one rule for their parameters: ``repro run``,
``repro loadgen``, ``repro list`` and the job service all use both.
"""

import inspect
from typing import Any, Callable, Mapping

from repro.analysis.report import ExperimentResult
from repro.experiments.ablations import (
    run_ablation_record_percent,
    run_ablation_skew,
)
from repro.experiments.claims import (
    run_hits_experiment,
    run_knn_join_experiment,
    run_multiquery_experiment,
    run_similarity_join_experiment,
    run_star_join_experiment,
)
from repro.experiments.common import MeasuredRun, measure_job, strategy_variants
from repro.experiments.fig09_map_output import run_fig9
from repro.experiments.fig10_compression import run_fig10
from repro.experiments.fig11_cpu_threshold import run_fig11
from repro.experiments.fig12_thetajoin import run_fig12
from repro.experiments.sec71_overhead import run_sec71
from repro.experiments.sec771_wordcount import run_wordcount_experiment
from repro.experiments.sec772_pagerank import run_pagerank_experiment
from repro.experiments.table1_codecs import run_table1
from repro.experiments.table2_breakdown import run_table2

__all__ = [
    "EXPERIMENTS",
    "MeasuredRun",
    "measure_job",
    "run_ablation_record_percent",
    "run_ablation_skew",
    "run_fig9",
    "run_fig10",
    "run_hits_experiment",
    "run_knn_join_experiment",
    "run_multiquery_experiment",
    "run_similarity_join_experiment",
    "run_star_join_experiment",
    "run_fig11",
    "run_fig12",
    "run_pagerank_experiment",
    "run_sec71",
    "run_table1",
    "run_table2",
    "run_wordcount_experiment",
    "resolve_params",
    "strategy_variants",
    "tunable_params",
]

#: Experiment registry: name -> (driver, paper artefact).
EXPERIMENTS: dict[str, tuple[Callable[..., ExperimentResult], str]] = {
    "fig9": (run_fig9, "Figure 9 — map output size, Query-Suggestion"),
    "fig10": (run_fig10, "Figure 10 — with Combiner + compression"),
    "table1": (run_table1, "Table 1 — codec cost breakdown"),
    "table2": (run_table2, "Table 2 — Query-Suggestion cost breakdown"),
    "fig11": (run_fig11, "Figure 11 — CPU vs extra Map work"),
    "sec71": (run_sec71, "Section 7.1 — overhead on Sort"),
    "wordcount": (run_wordcount_experiment, "Section 7.7.1 — WordCount"),
    "pagerank": (run_pagerank_experiment, "Section 7.7.2 — PageRank"),
    "fig12": (run_fig12, "Figure 12 — theta-join"),
    "ablation-skew": (run_ablation_skew, "Ablation — LazySH decode skew"),
    "ablation-record-percent": (
        run_ablation_record_percent,
        "Ablation — record-metadata spill mechanism",
    ),
    "claim-similarity-join": (
        run_similarity_join_experiment,
        "Claim — set-similarity join (paper Sec. 1)",
    ),
    "claim-multiquery": (
        run_multiquery_experiment,
        "Claim — multi-query scan sharing (paper Sec. 1/8)",
    ),
    "claim-hits": (
        run_hits_experiment,
        "Claim — HITS graph algorithm (paper Sec. 1)",
    ),
    "claim-star-join": (
        run_star_join_experiment,
        "Claim — multi-way chain join (paper Sec. 1)",
    ),
    "claim-knn-join": (
        run_knn_join_experiment,
        "Claim — kNN join, H-BNLJ (paper Sec. 1)",
    ),
}


def tunable_params(driver: Callable[..., Any]) -> dict[str, Any]:
    """The driver's keyword parameters and their defaults."""
    return {
        name: parameter.default
        for name, parameter in inspect.signature(driver).parameters.items()
        if parameter.default is not inspect.Parameter.empty
        and isinstance(parameter.default, (int, float, str, bool))
    }


def resolve_params(
    driver: Callable[..., Any], raw: Mapping[str, Any]
) -> dict[str, Any]:
    """Check and convert parameter overrides for ``driver``.

    Keys may be spelt ``--num-queries``, ``num-queries`` or
    ``num_queries``; an unknown key fails with the tunable list.  A
    string value converts to the type of the parameter's default; a
    native value must already have that type (bools strictly, ints
    widen to a float default).  Raises :class:`ValueError`.
    """
    tunable = tunable_params(driver)
    params: dict[str, Any] = {}
    for raw_key, value in raw.items():
        key = str(raw_key).removeprefix("--").replace("-", "_")
        if key not in tunable:
            known = ", ".join(
                f"--{name.replace('_', '-')}" for name in sorted(tunable)
            )
            raise ValueError(
                f"unknown parameter {raw_key!r} for this experiment; "
                f"tunable parameters: {known}"
            )
        try:
            params[key] = _convert(value, tunable[key])
        except ValueError as exc:
            raise ValueError(f"bad value for {raw_key!r}: {exc}") from exc
    return params


def _convert(value: Any, default: Any) -> Any:
    """``value`` as the type of ``default``; raises ValueError."""
    kind = type(default)
    if isinstance(value, str):
        if kind is not bool:
            return kind(value)
        if value.lower() in ("1", "true", "yes", "on"):
            return True
        if value.lower() in ("0", "false", "no", "off"):
            return False
    elif kind is float and type(value) is int:
        return float(value)
    elif type(value) is kind:
        return value
    raise ValueError(f"expected {kind.__name__}, got {value!r}")
