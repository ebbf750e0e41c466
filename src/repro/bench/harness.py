"""Timing machinery for the perf microbenchmarks.

Methodology: every benchmark is a *pair* of callables — a baseline
(the code path the current one replaced or is weighed against) and
the current path — run over identical deterministically-seeded
inputs.  The two legs are timed **interleaved** (baseline, current,
baseline, current, …) so slow drift in machine load hits both legs
equally, with one untimed warmup round, and the reported number is the
median of the repeats.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: Default name of the committed baseline file at the repository root.
BENCH_FILE = "BENCH_hotpaths.json"

#: A run is flagged as a regression when its time exceeds the committed
#: time by more than this factor (CI perf-smoke gate).
REGRESSION_FACTOR = 2.0


@dataclass
class BenchResult:
    """One benchmark's timings, in seconds (median of repeats)."""

    name: str
    baseline_s: float
    current_s: float
    repeats: int
    #: Records processed per leg invocation, when the benchmark is a
    #: record path — lets the report derive records/s throughput.
    records: int | None = None

    @property
    def speedup(self) -> float:
        return self.baseline_s / self.current_s if self.current_s else 0.0

    @property
    def records_per_s(self) -> float | None:
        """Current-leg throughput, or ``None`` for non-record benchmarks."""
        if self.records is None or not self.current_s:
            return None
        return self.records / self.current_s


def bench_pair(
    name: str,
    baseline_fn: Callable[[], object],
    current_fn: Callable[[], object],
    repeats: int = 5,
    records: int | None = None,
) -> BenchResult:
    """Time the two legs interleaved; return median-of-``repeats``."""
    baseline_fn()
    current_fn()
    baseline_times: list[float] = []
    current_times: list[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        baseline_fn()
        baseline_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        current_fn()
        current_times.append(time.perf_counter() - start)
    return BenchResult(
        name=name,
        baseline_s=statistics.median(baseline_times),
        current_s=statistics.median(current_times),
        repeats=repeats,
        records=records,
    )


def provenance() -> dict:
    """Machine/interpreter provenance recorded with every bench run."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def results_to_json(results: list[BenchResult], quick: bool) -> dict:
    """The JSON document shape committed as ``BENCH_hotpaths.json``."""
    benchmarks: dict = {}
    for r in results:
        entry = {
            "baseline_s": round(r.baseline_s, 6),
            "current_s": round(r.current_s, 6),
            "speedup": round(r.speedup, 3),
            "repeats": r.repeats,
        }
        if r.records is not None:
            entry["records"] = r.records
            throughput = r.records_per_s
            if throughput is not None:
                entry["records_per_s"] = round(throughput, 1)
        benchmarks[r.name] = entry
    return {
        "schema": 2,
        "quick": quick,
        "provenance": provenance(),
        "benchmarks": benchmarks,
    }


def ledger_entries(results: list[BenchResult]) -> list[dict]:
    """Flight-recorder ledger rows for one bench sweep.

    Counter names are namespaced per suite (``bench.<name>.*``) so a
    whole sweep folds into one run-level ``counters.json`` without
    collisions and ``repro runs diff`` can compare two bench runs
    counter by counter, exactly like job runs.
    """
    entries: list[dict] = []
    for r in results:
        counters = {
            f"bench.{r.name}.baseline.seconds": r.baseline_s,
            f"bench.{r.name}.current.seconds": r.current_s,
            f"bench.{r.name}.speedup": r.speedup,
        }
        if r.records is not None:
            counters[f"bench.{r.name}.records"] = float(r.records)
            throughput = r.records_per_s
            if throughput is not None:
                counters[f"bench.{r.name}.records.per.second"] = (
                    throughput
                )
        entries.append(
            {
                "kind": "bench",
                "name": r.name,
                "counters": counters,
                "derived": {},
                "repeats": r.repeats,
            }
        )
    return entries


def load_committed(path: str | Path = BENCH_FILE) -> dict | None:
    """Load the committed baseline document, or ``None`` if absent."""
    path = Path(path)
    if not path.exists():
        return None
    return json.loads(path.read_text())


def compare_to_committed(
    results: list[BenchResult],
    committed: dict | None,
    factor: float = REGRESSION_FACTOR,
) -> list[str]:
    """Names of benchmarks slower than ``factor`` × the committed time.

    Compares each result's ``current_s`` against the committed run's
    ``current_s`` (the regression gate tracks the current leg against
    itself, not against the baseline leg).  Benchmarks absent from the
    committed file are skipped.
    """
    if committed is None:
        return []
    recorded = committed.get("benchmarks", {})
    regressions = []
    for result in results:
        entry = recorded.get(result.name)
        if not entry:
            continue
        if result.current_s > factor * entry["current_s"]:
            regressions.append(result.name)
    return regressions


def scaling_regressions(results: list[BenchResult]) -> list[str]:
    """Names of scaling benchmarks whose speedup fell below 1.0.

    ``scaling.curve.workersN`` is the multicore curve (1 vs N workers)
    and is only gated when the host actually has N cores; smaller
    machines record it for information but cannot physically show a
    positive curve.
    """
    failures: list[str] = []
    cpus = os.cpu_count() or 1
    for result in results:
        name = result.name
        if name.startswith("scaling.curve.workers"):
            try:
                width = int(name.rsplit("workers", 1)[1])
            except ValueError:
                continue
            if cpus >= width and result.speedup < 1.0:
                failures.append(name)
    return failures


def format_table(
    results: list[BenchResult], committed: dict | None = None
) -> str:
    """Human-readable comparison table (vs committed when available)."""
    recorded = (committed or {}).get("benchmarks", {})
    header = (
        f"{'benchmark':<22} {'baseline':>10} {'current':>10} "
        f"{'speedup':>8} {'committed':>10} {'vs committed':>13}"
    )
    lines = [header, "-" * len(header)]
    for r in results:
        entry = recorded.get(r.name)
        if entry:
            ratio = r.current_s / entry["current_s"]
            committed_col = f"{entry['current_s'] * 1000:9.1f}ms"
            vs_col = f"{ratio:12.2f}x"
        else:
            committed_col = f"{'—':>10}"
            vs_col = f"{'—':>13}"
        lines.append(
            f"{r.name:<22} {r.baseline_s * 1000:9.1f}ms "
            f"{r.current_s * 1000:9.1f}ms {r.speedup:7.2f}x "
            f"{committed_col} {vs_col}"
        )
    return "\n".join(lines)
