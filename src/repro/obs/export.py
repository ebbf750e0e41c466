"""Trace views of a recorded run: its jobs loaded back from the
bundle, and the Chrome-trace-format JSON built from them.

Chrome trace format (the "JSON Array / traceEvents" flavour) loads in
``chrome://tracing`` and in Perfetto's legacy-trace importer.  The
mapping:

* each **job** becomes one *process* (``pid``), named after the job;
* each **task** (``map3``, ``reduce0``) becomes one *thread* (``tid``)
  inside its job, so the scheduler's per-attempt slices — folded in
  from the :class:`~repro.mr.events.EventLog` — and the intra-task
  phase spans recorded by the task body stack on one track and nest
  visually;
* scheduler-level spans (waves, shuffle planning) live on ``tid 0``.

A bundle's ``spans.jsonl`` and ``events.jsonl`` hold one
self-describing JSON object per line (``{"type": "job" | "span" |
"event", "job": name, "run": entry index, ...}``), written by the
:class:`~repro.obs.flightrecorder.FlightRecorder`; :func:`load_jsonl`
is their only reader.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.mr.events import (
    FAIL,
    FINISH,
    KILLED,
    TIMEOUT,
    EventLog,
    TaskEvent,
)
from repro.obs.run_store import EVENTS_FILE, SPANS_FILE, RunRecord
from repro.obs.trace import SpanRecord

#: Events ship times in microseconds.
_US = 1_000_000.0

#: tid reserved for scheduler-scope spans (waves etc.).
SCHEDULER_TID = 0

#: Slice-name suffix of an attempt that did not finish, by how it ended.
_END_SUFFIX = {
    FAIL: " [FAILED]",
    TIMEOUT: " [TIMEOUT]",
    KILLED: " [KILLED]",
}


@dataclass
class JobTrace:
    """The complete trace of one finished job."""

    job_name: str
    #: Every span on the job timeline (seconds since job start).
    spans: list[SpanRecord] = field(default_factory=list)
    #: The scheduler's per-attempt event log.
    events: EventLog = field(default_factory=EventLog)


def _task_of(span: SpanRecord) -> str | None:
    task = span.attrs.get("task")
    return task if isinstance(task, str) else None


def _tid_table(job: JobTrace) -> dict[str, int]:
    """Stable task → tid assignment: map tasks first, then reduces."""
    tasks: list[str] = []
    seen: set[str] = set()
    for event in job.events:
        task = event.task_id
        if task not in seen:
            seen.add(task)
            tasks.append(task)
    for span in job.spans:
        task = _task_of(span)
        if task is not None and task not in seen:
            seen.add(task)
            tasks.append(task)
    return {task: index + 1 for index, task in enumerate(tasks)}


def _event_slices(
    job: JobTrace, pid: int, tids: dict[str, int]
) -> Iterable[dict[str, Any]]:
    """Per-attempt slices: a START paired with whichever of
    ``ATTEMPT_ENDS`` closed it, so the wall time a timed-out attempt
    or a speculative loser held a slot stays on the track."""
    for start, end in job.events.attempt_pairs():
        if end is None:
            continue
        args: dict[str, Any] = {
            "attempt": end.attempt,
            "cpu_seconds": end.cpu_seconds,
        }
        if end.event == FAIL:
            args["error"] = end.error
        elif end.event == FINISH:
            args["output_bytes"] = end.output_bytes
        suffix = _END_SUFFIX.get(end.event, "")
        yield {
            "name": f"{end.task_id} attempt {end.attempt}{suffix}",
            "cat": f"scheduler,{end.kind}",
            "ph": "X",
            "ts": start.t_seconds * _US,
            "dur": max(end.t_seconds - start.t_seconds, 0.0) * _US,
            "pid": pid,
            "tid": tids.get(end.task_id, SCHEDULER_TID),
            "args": args,
        }


def _span_slices(
    job: JobTrace, pid: int, tids: dict[str, int]
) -> Iterable[dict[str, Any]]:
    for span in job.spans:
        task = _task_of(span)
        yield {
            "name": span.name,
            "cat": span.category or "span",
            "ph": "X",
            "ts": span.start * _US,
            "dur": max(span.duration, 0.0) * _US,
            "pid": pid,
            "tid": tids.get(task, SCHEDULER_TID) if task else SCHEDULER_TID,
            "args": dict(span.attrs),
        }


def chrome_trace(jobs: Sequence[JobTrace]) -> dict[str, Any]:
    """The whole collection as one Chrome-trace JSON document."""
    trace_events: list[dict[str, Any]] = []
    for pid, job in enumerate(jobs, start=1):
        tids = _tid_table(job)
        trace_events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": job.job_name},
            }
        )
        trace_events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": SCHEDULER_TID,
                "args": {"name": "scheduler"},
            }
        )
        for task, tid in tids.items():
            trace_events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": task},
                }
            )
        trace_events.extend(_event_slices(job, pid, tids))
        trace_events.extend(_span_slices(job, pid, tids))
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str | Path, jobs: Sequence[JobTrace]) -> Path:
    """Write the Chrome-trace JSON; returns the path written."""
    path = Path(path)
    path.write_text(json.dumps(chrome_trace(jobs), indent=1))
    return path


# -- loading a recorded run ------------------------------------------------


def load_jsonl(record: RunRecord) -> list[JobTrace]:
    """A recorded run's jobs, rebuilt from its ``spans.jsonl`` and
    ``events.jsonl`` in entry order.

    Every row carries the entry's ``run`` index next to its job name:
    one experiment driver often runs the *same-named* job several times
    (e.g. Figure 9's per-partitioner variants), and the index keeps
    those runs apart.
    """
    jobs: dict[tuple[Any, str], JobTrace] = {}
    for row in record.rows(SPANS_FILE) + record.rows(EVENTS_FILE):
        kind = row.get("type")
        key = (row.get("run", 0), row.get("job", ""))
        job = jobs.get(key)
        if job is None:
            job = jobs[key] = JobTrace(job_name=key[1])
        if kind == "span":
            job.spans.append(
                SpanRecord(
                    name=row["name"],
                    start=float(row["start"]),
                    duration=float(row["duration"]),
                    category=row.get("category", ""),
                    attrs=dict(row.get("attrs", {})),
                )
            )
        elif kind == "event":
            job.events.append(TaskEvent.from_dict(row))
    return list(jobs.values())
