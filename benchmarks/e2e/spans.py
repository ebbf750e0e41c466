"""The benchmark's own span recorder.

One span per call the benchmark makes into a layer's public functions:
name, start, end, the span that caused it (``parent``), and one
``trace`` id per workload iteration.  Spans stay in memory while the
workload runs and are written as JSON lines when it ends.  A layer's
*self time* is its span's duration minus the part of that interval its
child spans cover — that is what the per-layer ``*_s`` metrics report.

The recorder is single-threaded by design except for the service
workload's two client threads, which each keep their own parent stack
(a thread never parents another thread's span).
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator


@dataclass
class Span:
    span_id: int
    name: str
    trace: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict[str, Any]:
        return {
            "id": self.span_id,
            "name": self.name,
            "trace": self.trace,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }


class SpanRecorder:
    """Collects spans against one monotonic clock (seconds since creation)."""

    def __init__(self) -> None:
        self._epoch = time.perf_counter()
        self._spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self.trace = ""

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        stack = self._stack()
        with self._lock:
            span = Span(
                span_id=len(self._spans),
                name=name,
                trace=self.trace,
                parent=stack[-1] if stack else None,
                start=0.0,
                attrs=attrs,
            )
            self._spans.append(span)
        stack.append(span.span_id)
        span.start = time.perf_counter() - self._epoch
        try:
            yield span
        finally:
            span.end = time.perf_counter() - self._epoch
            stack.pop()

    @property
    def spans(self) -> list[Span]:
        return self._spans

    def self_times(self) -> dict[int, float]:
        """Self time per span id: duration minus the children's durations.

        Children of one parent never overlap (each thread's spans nest
        on its own stack), so subtracting the sum is exact.
        """
        own = {span.span_id: span.duration for span in self._spans}
        for span in self._spans:
            if span.parent is not None:
                own[span.parent] -= span.duration
        return own

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span in self._spans:
                handle.write(json.dumps(span.as_dict()) + "\n")


class NullRecorder:
    """Stands in for :class:`SpanRecorder` on untraced runs: records nothing."""

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        yield None


def check_spans(rows: list[dict]) -> list[str]:
    """Structural problems in a spans file (the self-test's span checks).

    Every span's parent must exist, belong to the same trace, and
    contain the child's interval; the self times of one trace must not
    exceed the wall time of its root spans.
    """
    problems: list[str] = []
    by_id = {row["id"]: row for row in rows}
    own = {row["id"]: row["end"] - row["start"] for row in rows}
    for row in rows:
        if row["end"] < row["start"]:
            problems.append(f"span {row['id']} ends before it starts")
        parent_id = row["parent"]
        if parent_id is None:
            continue
        parent = by_id.get(parent_id)
        if parent is None:
            problems.append(f"span {row['id']} has unknown parent {parent_id}")
            continue
        if parent["trace"] != row["trace"]:
            problems.append(f"span {row['id']} crosses traces")
        if row["start"] < parent["start"] or row["end"] > parent["end"]:
            problems.append(f"span {row['id']} escapes its parent {parent_id}")
        own[parent_id] -= row["end"] - row["start"]
    traces: dict[str, list[dict]] = {}
    for row in rows:
        traces.setdefault(row["trace"], []).append(row)
    for trace, members in traces.items():
        roots = sum(
            row["end"] - row["start"] for row in members if row["parent"] is None
        )
        total_self = sum(own[row["id"]] for row in members)
        if total_self > roots * (1 + 1e-9) + 1e-9:
            problems.append(
                f"trace {trace}: self times {total_self:.6f}s exceed "
                f"root wall {roots:.6f}s"
            )
    return problems
