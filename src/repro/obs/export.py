"""Trace export: Chrome-trace-format JSON and a flat JSONL.

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

The JSONL flavour is one self-describing JSON object per line
(``{"type": "span" | "event" | "job", ...}``) and is what the
``repro trace`` CLI subcommand consumes.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.mr.events import (
    ATTEMPT_ENDS,
    FAIL,
    FINISH,
    KILLED,
    START,
    TIMEOUT,
)
from repro.obs.trace import JobTrace, SpanRecord

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


def _task_of(span: SpanRecord) -> str | None:
    task = span.attrs.get("task")
    return task if isinstance(task, str) else None


def _tid_table(job: JobTrace) -> dict[str, int]:
    """Stable task → tid assignment: map tasks first, then reduces."""
    tasks: list[str] = []
    seen: set[str] = set()
    for event in job.events:
        task = event.get("task_id")
        if isinstance(task, str) and task not in seen:
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
    starts: dict[tuple[str, int], float] = {}
    for event in job.events:
        task = event.get("task_id", "")
        attempt = int(event.get("attempt", 1))
        kind = event.get("event")
        t = float(event.get("t_seconds", 0.0))
        if kind == START:
            starts[(task, attempt)] = t
        elif kind in ATTEMPT_ENDS:
            begin = starts.pop((task, attempt), None)
            if begin is None:
                continue
            args: dict[str, Any] = {
                "attempt": attempt,
                "cpu_seconds": event.get("cpu_seconds", 0.0),
            }
            if kind == FAIL:
                args["error"] = event.get("error", "")
            elif kind == FINISH:
                args["output_bytes"] = event.get("output_bytes", 0)
            yield {
                "name": f"{task} attempt {attempt}{_END_SUFFIX.get(kind, '')}",
                "cat": f"scheduler,{event.get('kind', '')}",
                "ph": "X",
                "ts": begin * _US,
                "dur": max(t - begin, 0.0) * _US,
                "pid": pid,
                "tid": tids.get(task, SCHEDULER_TID),
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


# -- flat JSONL ------------------------------------------------------------


def write_jsonl(path: str | Path, jobs: Sequence[JobTrace]) -> Path:
    """Write one JSON object per line: job headers, spans, events.

    Every row carries the job's ``run`` index next to its name: one
    experiment driver often runs the *same-named* job several times
    (e.g. Figure 9's per-partitioner variants), and the index keeps
    those runs apart on reload.
    """
    path = Path(path)
    with path.open("w") as handle:
        for index, job in enumerate(jobs):
            header = {"type": "job", "job": job.job_name, "run": index}
            handle.write(json.dumps(header) + "\n")
            for span in job.spans:
                row = {"type": "span", "job": job.job_name, "run": index}
                row.update(span.as_dict())
                handle.write(json.dumps(row) + "\n")
            for event in job.events:
                row = {"type": "event", "job": job.job_name, "run": index}
                row.update(event)
                handle.write(json.dumps(row) + "\n")
    return path


def load_jsonl(path: str | Path) -> list[JobTrace]:
    """Load a JSONL trace back into :class:`JobTrace` objects."""
    jobs: dict[tuple[Any, str], JobTrace] = {}
    order: list[tuple[Any, str]] = []

    def job_for(run: Any, name: str) -> JobTrace:
        key = (run, name)
        if key not in jobs:
            jobs[key] = JobTrace(job_name=name)
            order.append(key)
        return jobs[key]

    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        row = json.loads(line)
        kind = row.get("type")
        name = row.get("job", "")
        run = row.get("run", 0)
        if kind == "job":
            job_for(run, name)
        elif kind == "span":
            job_for(run, name).spans.append(
                SpanRecord(
                    name=row["name"],
                    start=float(row["start"]),
                    duration=float(row["duration"]),
                    category=row.get("category", ""),
                    attrs=dict(row.get("attrs", {})),
                )
            )
        elif kind == "event":
            event = {
                key: value
                for key, value in row.items()
                if key not in ("type", "job", "run")
            }
            job_for(run, name).events.append(event)
    return [jobs[key] for key in order]
