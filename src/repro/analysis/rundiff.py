"""Run-ledger reporting and diffing: ``repro runs ls/show/diff``.

Regression triage over recorded runs: ``diff`` lines up two runs'
deterministic counter receipts, their per-entry ``mr.derived.*``
gauges, and the per-phase span breakdown (the same loaded jobs ``repro
trace`` renders) and reports what moved.
"""

from __future__ import annotations

import time
from typing import Any

from repro.analysis.report import format_table
from repro.analysis.tracereport import phase_rows
from repro.obs.export import load_jsonl
from repro.obs.run_store import RunRecord


def _stamp(unix: float) -> str:
    if not unix:
        return "-"
    return time.strftime("%Y-%m-%d %H:%M:%S", time.gmtime(unix)) + "Z"


def runs_table(records: list[RunRecord]) -> str:
    """The ``repro runs ls`` listing, newest last."""
    if not records:
        return "(empty ledger: no recorded runs)"
    rows = [
        [
            record.run_id,
            record.kind,
            record.name,
            record.status_name,
            len(record.entries),
            _stamp(record.started),
        ]
        for record in records
    ]
    return format_table(
        ["run", "kind", "name", "status", "entries", "started (UTC)"],
        rows,
    )


def render_run(record: RunRecord) -> str:
    """The ``repro runs show <id>`` report."""
    lines = [
        f"run {record.run_id}",
        f"  kind:    {record.kind}",
        f"  name:    {record.name}",
        f"  status:  {record.status_name}",
        f"  started: {_stamp(record.started)}",
        f"  path:    {record.path}",
    ]
    if "error" in record.status:
        lines.append(f"  error:   {record.status['error']}")
    if record.entries:
        rows = []
        for entry in record.entries:
            derived = entry.get("derived", {})
            replication = derived.get("mr.derived.replication.rate")
            rows.append(
                [
                    entry.get("name", ""),
                    entry.get("kind", ""),
                    len(entry.get("counters", {})),
                    f"{replication:.3f}"
                    if replication is not None
                    else "-",
                ]
            )
        lines.append("")
        lines.append(
            format_table(
                ["entry", "kind", "counters", "replication"], rows
            )
        )
    if record.counters:
        lines.append("")
        lines.append(
            format_table(
                ["counter", "value"],
                [
                    [name, record.counters[name]]
                    for name in sorted(record.counters)
                ],
            )
        )
    elif record.status_name == "running":
        lines.append("  (no counter receipt yet: run still in flight)")
    return "\n".join(lines)


def _diff_rows(
    a: dict[str, float], b: dict[str, float]
) -> tuple[list[list[Any]], int]:
    """Rows [name, a, b, delta, ratio] for differing keys; and the
    count of keys whose values matched exactly."""
    rows: list[list[Any]] = []
    same = 0
    for name in sorted(set(a) | set(b)):
        left = a.get(name)
        right = b.get(name)
        if left == right:
            same += 1
            continue
        if left is None or right is None:
            ratio = "-"
        elif left:
            ratio = f"{right / left:.3f}x"
        else:
            ratio = "-"
        delta = (
            right - left
            if left is not None and right is not None
            else "-"
        )
        rows.append(
            [
                name,
                "-" if left is None else left,
                "-" if right is None else right,
                delta,
                ratio,
            ]
        )
    return rows, same


def _derived_by_entry(record: RunRecord) -> dict[str, float]:
    """Flatten per-entry derived gauges to ``entry/gauge`` keys."""
    flat: dict[str, float] = {}
    for entry in record.entries:
        name = entry.get("name", "")
        for gauge, value in entry.get("derived", {}).items():
            flat[f"{name}/{gauge}"] = value
    return flat


def _phase_totals(record: RunRecord) -> dict[str, float]:
    """Total seconds per span name across all jobs of one run."""
    totals: dict[str, float] = {}
    for job in load_jsonl(record):
        for row in phase_rows(job):
            phase = row["phase"]
            totals[phase] = totals.get(phase, 0.0) + row["total_s"]
    return totals


def render_diff(a: RunRecord, b: RunRecord) -> str:
    """The ``repro runs diff <a> <b>`` report."""
    lines = [
        f"a: {a.run_id}  ({a.kind}:{a.name}, {a.status_name})",
        f"b: {b.run_id}  ({b.kind}:{b.name}, {b.status_name})",
    ]

    counter_rows, same = _diff_rows(a.counters or {}, b.counters or {})
    if counter_rows:
        lines.append("")
        lines.append(f"counters ({same} identical, not shown):")
        lines.append(
            format_table(
                ["counter", "a", "b", "delta", "b/a"], counter_rows
            )
        )
    else:
        lines.append("")
        lines.append(f"counters: identical ({same} compared)")

    derived_rows, _ = _diff_rows(
        _derived_by_entry(a), _derived_by_entry(b)
    )
    if derived_rows:
        lines.append("")
        lines.append("derived gauges (per entry):")
        lines.append(
            format_table(
                ["entry/gauge", "a", "b", "delta", "b/a"], derived_rows
            )
        )

    phases_a = _phase_totals(a)
    phases_b = _phase_totals(b)
    if phases_a or phases_b:
        phase_diff, _ = _diff_rows(phases_a, phases_b)
        if phase_diff:
            lines.append("")
            lines.append("per-phase span seconds:")
            lines.append(
                format_table(
                    ["phase", "a_s", "b_s", "delta", "b/a"], phase_diff
                )
            )
    return "\n".join(lines)
