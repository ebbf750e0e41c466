"""Per-phase profiling report over a recorded run (``repro trace``).

Consumes the jobs :func:`repro.obs.export.load_jsonl` rebuilds from a
flight-recorder bundle and renders, per job:

* a **phase breakdown** — every span name aggregated into calls, total
  seconds, mean/max, and share of the job's total span time.  This is
  the measured counterpart of the paper's Table 2 cost breakdown: the
  ``map.phase.*`` / ``reduce.phase.*`` rows split a strategy's runtime
  into the phases the paper attributes costs to, and the ``shared.*``
  rows expose the Anti-Combining-specific work (decode, Shared spills,
  run merges) that plain MapReduce does not have;
* an **attempt summary** from the event log — attempts started /
  failed / timed out / killed (speculative losers) per task kind and
  the CPU seconds burned by failed attempts (wasted work made visible).
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.analysis.report import format_table
from repro.obs.export import JobTrace

#: The :meth:`EventLog.attempt_counts` columns the table shows.
_ATTEMPT_COLUMNS = ["started", "failed", "timed_out", "killed", "wasted_cpu_s"]
_ATTEMPT_HEADERS = ["kind", *_ATTEMPT_COLUMNS]


def phase_rows(job: JobTrace) -> list[dict[str, Any]]:
    """Aggregate the job's spans by name: calls, totals, share."""
    stats: dict[str, dict[str, Any]] = {}
    order: list[str] = []
    for span in job.spans:
        entry = stats.get(span.name)
        if entry is None:
            entry = stats[span.name] = {
                "phase": span.name,
                "category": span.category,
                "calls": 0,
                "total_s": 0.0,
                "max_s": 0.0,
            }
            order.append(span.name)
        entry["calls"] += 1
        entry["total_s"] += span.duration
        entry["max_s"] = max(entry["max_s"], span.duration)
    rows = [stats[name] for name in order]
    grand_total = sum(row["total_s"] for row in rows)
    for row in rows:
        row["mean_s"] = row["total_s"] / row["calls"]
        row["share_%"] = (
            100.0 * row["total_s"] / grand_total if grand_total > 0 else 0.0
        )
    rows.sort(key=lambda row: row["total_s"], reverse=True)
    return rows


def attempt_rows(job: JobTrace) -> list[dict[str, Any]]:
    """Started/failed/timed-out/killed attempt counts and wasted CPU,
    per task kind."""
    return [
        {"kind": kind, **{column: row[column] for column in _ATTEMPT_COLUMNS}}
        for kind, row in sorted(job.events.attempt_counts().items())
    ]


def render_job(job: JobTrace) -> str:
    """One job's phase breakdown + attempt summary as text."""
    lines = [f"== job: {job.job_name} =="]
    phases = phase_rows(job)
    if phases:
        headers = [
            "phase",
            "category",
            "calls",
            "total_s",
            "mean_s",
            "max_s",
            "share_%",
        ]
        lines.append(
            format_table(
                headers,
                [[row[header] for header in headers] for row in phases],
            )
        )
    else:
        lines.append("(no spans recorded)")
    attempts = attempt_rows(job)
    if attempts:
        lines.append("")
        lines.append(
            format_table(
                _ATTEMPT_HEADERS,
                [[row[h] for h in _ATTEMPT_HEADERS] for row in attempts],
            )
        )
    return "\n".join(lines)


def render_trace_report(jobs: Sequence[JobTrace] | Iterable[JobTrace]) -> str:
    """The full ``repro trace`` report over every job in the file."""
    jobs = list(jobs)
    if not jobs:
        return "(empty trace: no jobs recorded)"
    return "\n\n".join(render_job(job) for job in jobs)
