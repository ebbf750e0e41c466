"""Benchmark harness plumbing.

Each benchmark runs one experiment driver exactly once (the drivers
are full multi-job experiments, not micro-benchmarks), prints the
reproduced table to the terminal (bypassing pytest's capture), and
persists it under ``benchmarks/results/`` so EXPERIMENTS.md can be
cross-checked against the latest run.

``REPRO_JOBS=4 pytest benchmarks/`` runs every experiment's map and
reduce tasks on four worker processes (each job reads ``REPRO_JOBS``);
counters, and therefore the persisted reports, are byte-identical to a
serial run.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture
def report_runner(benchmark, capfd):
    """Run an experiment under pytest-benchmark and report its table."""

    def run(fn, **kwargs):
        result = benchmark.pedantic(
            lambda: fn(**kwargs), rounds=1, iterations=1
        )
        report = result.report()
        with capfd.disabled():
            print(f"\n{report}\n")
        RESULTS_DIR.mkdir(exist_ok=True)
        out_path = RESULTS_DIR / f"{fn.__name__}.txt"
        out_path.write_text(report + "\n")
        return result

    return run
