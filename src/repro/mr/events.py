"""Structured per-task event log of one job execution.

The scheduler emits one ``start`` event per task attempt when it is
submitted to the executor and one ``finish`` (or ``fail``) event when
the attempt's result is collected.  Events carry the attempt number,
wall-clock offsets relative to job start, and — on success — the
attempt's measured CPU seconds and output/shuffle bytes, so the
:class:`~repro.mr.runtime_model.ClusterModel` and the ``analysis``
layer can consume *real* per-attempt timings instead of (or next to)
the analytic per-task cost model.

Wall-clock offsets are measured in the scheduling process: under the
serial executor they bracket the task body exactly; under the process
executor they include submission/pickling latency, which is precisely
the overhead a real JobTracker would observe.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Iterable, Iterator

#: Task kinds.
MAP = "map"
REDUCE = "reduce"

#: Event types.
START = "start"
FINISH = "finish"
FAIL = "fail"
#: The attempt exceeded ``JobConf.task_timeout_seconds`` and was
#: cancelled or abandoned by the scheduler; it is retried like a
#: failure.
TIMEOUT = "timeout"
#: The attempt lost a speculative race (another attempt of the same
#: task finished first) and was killed; its counters are discarded.
KILLED = "killed"

#: Event types that end an attempt (exactly one per START).
ATTEMPT_ENDS = (FINISH, FAIL, TIMEOUT, KILLED)

#: ``TaskEvent.error`` prefix marking an infrastructure failure (a
#: crashed worker process took the attempt down, not the task's code).
WORKER_CRASH_PREFIX = "WorkerCrashError"


@dataclass(frozen=True)
class TaskEvent:
    """One scheduling event of one task attempt."""

    task_id: str
    kind: str  # MAP | REDUCE
    event: str  # START | FINISH | FAIL | TIMEOUT | KILLED
    attempt: int
    #: Seconds since the job started (scheduler wall clock).
    t_seconds: float
    #: Measured CPU seconds of the attempt (FINISH events only).
    cpu_seconds: float = 0.0
    #: Map output bytes (map FINISH) / shuffle bytes fetched (reduce FINISH).
    output_bytes: int = 0
    #: Error description (FAIL events only).
    error: str = ""
    #: True on the START of a speculative backup attempt.
    speculative: bool = False

    @property
    def is_worker_crash(self) -> bool:
        """Whether this FAIL was an infrastructure (worker) death."""
        return self.event == FAIL and self.error.startswith(
            WORKER_CRASH_PREFIX
        )

    @classmethod
    def from_dict(cls, row: dict[str, Any]) -> "TaskEvent":
        """The inverse of ``asdict``; keys that are not fields (a
        ledger row's ``type``/``job``/``run``) are ignored."""
        known = cls.__dataclass_fields__
        return cls(**{k: v for k, v in row.items() if k in known})


class EventLog:
    """An append-only, queryable sequence of :class:`TaskEvent`."""

    def __init__(self, events: Iterable[TaskEvent] = ()) -> None:
        self._events: list[TaskEvent] = list(events)

    def append(self, event: TaskEvent) -> None:
        self._events.append(event)

    def __iter__(self) -> Iterator[TaskEvent]:
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def for_task(self, task_id: str) -> list[TaskEvent]:
        """All events of one task, in emission order."""
        return [e for e in self._events if e.task_id == task_id]

    def attempts(self, task_id: str) -> int:
        """Number of attempts started for ``task_id``."""
        return sum(
            1
            for e in self._events
            if e.task_id == task_id and e.event == START
        )

    def failures(self, kind: str | None = None) -> list[TaskEvent]:
        """All FAIL events (optionally restricted to one task kind)."""
        return [
            e
            for e in self._events
            if e.event == FAIL and (kind is None or e.kind == kind)
        ]

    def timeouts(self, kind: str | None = None) -> list[TaskEvent]:
        """All TIMEOUT events (optionally restricted to one task kind)."""
        return [
            e
            for e in self._events
            if e.event == TIMEOUT and (kind is None or e.kind == kind)
        ]

    def kills(self, kind: str | None = None) -> list[TaskEvent]:
        """All KILLED events — speculative losers."""
        return [
            e
            for e in self._events
            if e.event == KILLED and (kind is None or e.kind == kind)
        ]

    def worker_crashes(self, kind: str | None = None) -> list[TaskEvent]:
        """FAIL events caused by worker deaths (infrastructure)."""
        return [
            e
            for e in self.failures(kind)
            if e.is_worker_crash
        ]

    def speculative_starts(self, kind: str | None = None) -> list[TaskEvent]:
        """START events of speculative backup attempts."""
        return [
            e
            for e in self._events
            if e.event == START
            and e.speculative
            and (kind is None or e.kind == kind)
        ]

    def attempt_pairs(
        self,
    ) -> Iterator[tuple[TaskEvent, TaskEvent | None]]:
        """Each START with the event that closed it, or ``None`` yet.

        The one START→end pairing every view of the log is built on
        (durations, Chrome-trace slices, the attempt counts).  An
        attempt is ``(task_id, attempt)``; whichever of
        ``ATTEMPT_ENDS`` carries the same pair closes it.  Closed
        attempts come in the order their end events were logged, then
        the attempts still open (a run that died mid-wave) in START
        order.  An end event whose START the log never saw pairs with
        nothing and is not yielded.
        """
        open_starts: dict[tuple[str, int], TaskEvent] = {}
        for event in self._events:
            key = (event.task_id, event.attempt)
            if event.event == START:
                open_starts[key] = event
            elif event.event in ATTEMPT_ENDS:
                start = open_starts.pop(key, None)
                if start is not None:
                    yield start, event
        for start in open_starts.values():
            yield start, None

    def wall_durations(self, kind: str) -> dict[str, float]:
        """Measured wall seconds of each *successful* attempt, by task.

        The duration of a task is ``finish.t - start.t`` of its
        finishing attempt; failed attempts are excluded (they did not
        contribute a result).
        """
        return {
            start.task_id: end.t_seconds - start.t_seconds
            for start, end in self.attempt_pairs()
            if end is not None and end.event == FINISH and end.kind == kind
        }

    def attempt_wall_durations(self, kind: str) -> list[float]:
        """Measured wall seconds of *every* attempt, failed ones too.

        Each attempt's duration is its START→end interval, where the
        end is whichever of FINISH/FAIL/TIMEOUT/KILLED closed the
        attempt; the list is in attempt-completion order.  Unlike
        :meth:`wall_durations` this includes unsuccessful attempts —
        the slot time retries, hangs and speculative losers occupied —
        so runtime estimates can charge them.
        """
        return [
            end.t_seconds - start.t_seconds
            for start, end in self.attempt_pairs()
            if end is not None and end.kind == kind
        ]

    def attempt_counts(self) -> dict[str, dict[str, float]]:
        """How many attempts started and how each one ended, per kind.

        The one count behind both the ``mr.<kind>.attempts*`` metrics
        and the attempt table of ``repro trace``.  ``wasted_cpu_s`` is
        the CPU seconds FAILed attempts burned before dying.
        """
        counts: dict[str, dict[str, float]] = {}
        for start, end in self.attempt_pairs():
            row = counts.get(start.kind)
            if row is None:
                row = counts[start.kind] = {
                    "started": 0,
                    "speculative": 0,
                    "failed": 0,
                    "worker_crash": 0,
                    "timed_out": 0,
                    "killed": 0,
                    "wasted_cpu_s": 0.0,
                }
            row["started"] += 1
            row["speculative"] += start.speculative
            if end is None:
                continue
            if end.event == FAIL:
                row["failed"] += 1
                row["worker_crash"] += end.is_worker_crash
                row["wasted_cpu_s"] += end.cpu_seconds
            elif end.event == TIMEOUT:
                row["timed_out"] += 1
            elif end.event == KILLED:
                row["killed"] += 1
        return counts

    def shuffle_bytes_by_task(self) -> dict[str, int]:
        """Shuffle bytes fetched per reduce task (from FINISH events)."""
        return {
            e.task_id: e.output_bytes
            for e in self._events
            if e.kind == REDUCE and e.event == FINISH
        }

    def as_dicts(self) -> list[dict]:
        """Plain-dict snapshot (for reports and JSON dumps)."""
        return [asdict(e) for e in self._events]
