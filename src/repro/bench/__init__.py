"""Performance benchmark harness for the data-plane hot paths.

``repro bench`` runs the microbenchmark suites defined in
:mod:`repro.bench.suites` — run-oriented serde encode, executor
out-of-band transport, anti-layer sizing, and shared-memory
shuffle-plane transport and scaling — and compares against the
committed ``BENCH_hotpaths.json`` baseline at the repository root.
``--check`` fails both on wall-time regressions vs the committed file
and on a ``scaling.curve.workersN`` speedup below 1.0 where the host
has N cores (:func:`~repro.bench.harness.scaling_regressions`).  See
``benchmarks/perf/`` for the standalone runner that (re)generates the
committed file.
"""

from repro.bench.harness import (
    BenchResult,
    bench_pair,
    compare_to_committed,
    format_table,
    load_committed,
    results_to_json,
    scaling_regressions,
)
from repro.bench.suites import run_suites

__all__ = [
    "BenchResult",
    "bench_pair",
    "compare_to_committed",
    "format_table",
    "load_committed",
    "results_to_json",
    "run_suites",
    "scaling_regressions",
]
