"""Any attempt history: every view of an ``EventLog`` agrees.

Hypothesis generates *valid attempt lifecycles* — retries after task
failures and timeouts, speculative backups racing their originals,
worker crashes taking every in-flight attempt down, runs cut short
with attempts still open — and the property holds the views the repo
builds from one log against each other:

* ``EventLog.attempt_pairs`` pairs every START exactly once;
* the Chrome trace has one slice per closed attempt;
* the ``repro trace`` attempt table equals the log's own failure,
  timeout and kill lists;
* ``wall_durations`` / ``attempt_wall_durations`` equal the stand-alone
  implementations they replaced (kept below as the reference);
* ``EventLog`` → ledger rows → ``EventLog`` is the identity.
"""

from __future__ import annotations

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.tracereport import attempt_rows
from repro.mr import events as E
from repro.mr.events import EventLog, TaskEvent
from repro.obs.export import JobTrace, chrome_trace

# -- reference implementations (the pairings before `attempt_pairs`) --------


def reference_wall_durations(log: EventLog, kind: str) -> dict[str, float]:
    starts: dict[tuple[str, int], float] = {}
    durations: dict[str, float] = {}
    for event in log:
        if event.kind != kind:
            continue
        if event.event == E.START:
            starts[(event.task_id, event.attempt)] = event.t_seconds
        elif event.event == E.FINISH:
            begin = starts.get((event.task_id, event.attempt))
            if begin is not None:
                durations[event.task_id] = event.t_seconds - begin
    return durations


def reference_attempt_wall_durations(log: EventLog, kind: str) -> list[float]:
    starts: dict[tuple[str, int], float] = {}
    durations: list[float] = []
    for event in log:
        if event.kind != kind:
            continue
        if event.event == E.START:
            starts[(event.task_id, event.attempt)] = event.t_seconds
        elif event.event in E.ATTEMPT_ENDS:
            begin = starts.pop((event.task_id, event.attempt), None)
            if begin is not None:
                durations.append(event.t_seconds - begin)
    return durations


# -- the generator ----------------------------------------------------------


class _Task:
    def __init__(self, task_id: str, kind: str) -> None:
        self.task_id = task_id
        self.kind = kind
        self.next_attempt = 1
        #: Open attempts as ``(number, speculative)``.
        self.open: list[tuple[int, bool]] = []
        self.speculated = False
        self.done = False


@st.composite
def attempt_histories(draw) -> EventLog:
    """One job's event log: a map wave, then a reduce wave, each a
    random interleaving of valid per-task lifecycles."""
    log = EventLog()
    now = 0.0
    seconds = st.floats(0.0, 5.0, allow_nan=False)

    def emit(task: _Task, what: str, number: int, **fields) -> None:
        nonlocal now
        now += draw(seconds)
        log.append(
            TaskEvent(task.task_id, task.kind, what, number, now, **fields)
        )

    def start(task: _Task, speculative: bool) -> None:
        number = task.next_attempt
        task.next_attempt += 1
        task.open.append((number, speculative))
        emit(task, E.START, number, speculative=speculative)

    def fail(task: _Task, number: int, error: str) -> None:
        task.open = [a for a in task.open if a[0] != number]
        emit(
            task, E.FAIL, number, error=error, cpu_seconds=draw(seconds)
        )

    for kind in (E.MAP, E.REDUCE):
        tasks = [
            _Task(f"{kind}{index}", kind)
            for index in range(draw(st.integers(0, 3)))
        ]
        for _ in range(draw(st.integers(0, 14))):
            moves = []
            for task in tasks:
                if task.done:
                    continue
                if not task.open:
                    moves.append(("start", task))
                else:
                    moves.append(("end", task))
                    if not task.speculated:
                        moves.append(("backup", task))
            if any(task.open for task in tasks):
                moves.append(("crash", None))
            if not moves:
                break
            move, task = draw(st.sampled_from(moves))
            if move == "start":
                start(task, speculative=False)
            elif move == "backup":
                task.speculated = True
                start(task, speculative=True)
            elif move == "crash":
                # A worker death fails everything in flight.
                for victim in tasks:
                    for number, _ in list(victim.open):
                        fail(victim, number, "WorkerCrashError('gone')")
            else:
                number, _ = draw(st.sampled_from(task.open))
                how = draw(
                    st.sampled_from([E.FINISH, E.FAIL, E.TIMEOUT])
                )
                if how == E.FAIL:
                    fail(task, number, "RuntimeError('boom')")
                    continue
                task.open = [a for a in task.open if a[0] != number]
                if how == E.TIMEOUT:
                    emit(task, E.TIMEOUT, number)
                    continue
                emit(
                    task,
                    E.FINISH,
                    number,
                    cpu_seconds=draw(seconds),
                    output_bytes=draw(st.integers(0, 1 << 20)),
                )
                task.done = True
                # The winner's siblings lose the race.
                for loser, _ in task.open:
                    emit(task, E.KILLED, loser)
                task.open = []
        # Whatever is still open stays open: a run that died here.
    return log


# -- the property -----------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(attempt_histories())
def test_every_view_of_an_event_log_agrees(log: EventLog) -> None:
    events = list(log)
    starts = [e for e in events if e.event == E.START]
    ends = [e for e in events if e.event in E.ATTEMPT_ENDS]

    # 1. Every START is paired exactly once, with its own end or None.
    pairs = list(log.attempt_pairs())
    assert sorted(id(start) for start, _ in pairs) == sorted(
        id(start) for start in starts
    )
    closed = [(start, end) for start, end in pairs if end is not None]
    assert [id(end) for _, end in closed] == [id(end) for end in ends]
    for start, end in closed:
        assert (start.task_id, start.attempt) == (end.task_id, end.attempt)
        assert events.index(start) < events.index(end)
    for start, end in pairs:
        if end is None:
            assert not any(
                (e.task_id, e.attempt) == (start.task_id, start.attempt)
                for e in ends
            )

    # 2. One Chrome slice per closed attempt.
    trace = JobTrace("generated", [], log)
    slices = [
        e for e in chrome_trace([trace])["traceEvents"] if e["ph"] == "X"
    ]
    assert len(slices) == len(closed)

    # 3. The attempt table and the log's own lists are one count.
    table = {row["kind"]: row for row in attempt_rows(trace)}
    counts = log.attempt_counts()
    wasted = 0.0
    for kind in (E.MAP, E.REDUCE):
        # The two columns the table does not show.
        columns = counts.get(kind, {"speculative": 0, "worker_crash": 0})
        assert columns["speculative"] == len(log.speculative_starts(kind))
        assert columns["worker_crash"] == len(log.worker_crashes(kind))
        row = table.get(
            kind,
            dict.fromkeys(
                ("started", "failed", "timed_out", "killed", "wasted_cpu_s"),
                0,
            ),
        )
        assert row["started"] == sum(e.kind == kind for e in starts)
        assert row["failed"] == len(log.failures(kind))
        assert row["timed_out"] == len(log.timeouts(kind))
        assert row["killed"] == len(log.kills(kind))
        wasted += row["wasted_cpu_s"]
    assert math.isclose(
        wasted, math.fsum(e.cpu_seconds for e in log.failures())
    )

    # 4. The durations equal the implementations they replaced.
    for kind in (E.MAP, E.REDUCE):
        mine = log.wall_durations(kind)
        reference = reference_wall_durations(log, kind)
        assert mine == reference
        assert list(mine) == list(reference)  # same observation order
        assert log.attempt_wall_durations(
            kind
        ) == reference_attempt_wall_durations(log, kind)

    # 5. EventLog -> ledger rows -> EventLog is the identity.
    rows = [
        json.loads(
            json.dumps({"type": "event", "job": "j", "run": 0, **row})
        )
        for row in log.as_dicts()
    ]
    assert [TaskEvent.from_dict(row) for row in rows] == events
