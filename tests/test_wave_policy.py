"""The wave policy: attempt state folded from the EventLog, decisions as
pure functions of it, and the wave loop that only applies them.

Three layers of evidence:

* each decision (``due_launches``, ``overdue_attempts``,
  ``backups_due``, ``terminal_task``, ``idle_delay``) on hand-built
  logs, with no executor at all;
* Hypothesis over prefixes of the generated attempt lifecycles of
  ``tests/test_property_attempts.py``: the fold agrees with the log and
  the decisions never break the retry rules on any of them;
* the real loop in a closed loop on the fake clock, with generated
  per-attempt fail/crash scripts, completion delays and retry knobs.

Plus the terminal drain's deadline: an attempt still running when the
wave fails is waited on only until its task timeout, then abandoned and
logged TIMEOUT — on a real pool and on the fake clock.
"""

from __future__ import annotations

import functools
import time

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.mr import events as E
from repro.mr.engine import LocalJobRunner
from repro.mr.events import EventLog, TaskEvent
from repro.mr.executor import ParallelExecutor, SerialExecutor
from repro.mr.scheduler import (
    _POLL_TICK,
    InjectedTaskFailure,
    RetryPolicy,
    ScriptedFaults,
    WaveView,
    backups_due,
    due_launches,
    idle_delay,
    overdue_attempts,
    terminal_task,
)
from tests.test_fault_tolerance import (
    FakeClock,
    TardyExecutor,
    _wordcount,
    assert_event_log_complete,
)
from tests.test_property_attempts import attempt_histories

IDS = ["map0", "map1", "map2", "map3"]


def _log(*rows) -> EventLog:
    """An EventLog from ``(event, task index, attempt, t, **fields)``."""
    log = EventLog()
    for event, index, attempt, t, *fields in rows:
        extra = fields[0] if fields else {}
        log.append(TaskEvent(IDS[index], E.MAP, event, attempt, t, **extra))
    return log


def _view(*rows) -> WaveView:
    return WaveView(IDS, _log(*rows))


# -- (a) each decision on hand-built logs ----------------------------------


class TestFold:
    def test_the_view_counts_what_the_log_says(self) -> None:
        view = _view(
            (E.START, 0, 1, 0.0),
            (E.FAIL, 0, 1, 1.0),
            (E.START, 0, 2, 2.0),
            (E.START, 0, 3, 3.0, {"speculative": True}),
            (E.START, 1, 1, 0.0),
            (E.TIMEOUT, 1, 1, 4.0),
            (E.START, 2, 1, 0.0),
            (E.FINISH, 2, 1, 1.5),
        )
        first, second, third, fourth = view.tasks
        assert (first.started, first.charged, first.live) == (3, 1, 2)
        assert first.speculated and not first.finished
        assert first.charged_at == 1.0
        assert (second.charged, second.live, second.charged_at) == (1, 0, 4.0)
        assert third.finished and third.charged == 0
        assert fourth.started == 0
        assert view.open == {(0, 2): 2.0, (0, 3): 3.0}
        assert view.finished == 1 and view.durations == [1.5]

    def test_a_killed_attempt_is_never_charged(self) -> None:
        view = _view(
            (E.START, 0, 1, 0.0),
            (E.START, 0, 2, 1.0, {"speculative": True}),
            (E.FINISH, 0, 2, 2.0),
            (E.KILLED, 0, 1, 2.0),
        )
        task = view.tasks[0]
        assert (task.charged, task.live, task.finished) == (0, 0, True)
        assert view.durations == [1.0]

    def test_other_waves_events_are_ignored(self) -> None:
        log = _log((E.START, 0, 1, 0.0))
        log.append(TaskEvent("reduce0", E.REDUCE, E.START, 1, 0.5))
        view = WaveView(["reduce0"], log)
        assert view.open == {(0, 1): 0.5}


class TestDueLaunches:
    def test_first_attempts_launch_at_once_in_task_order(self) -> None:
        assert due_launches(_view(), 0.0, RetryPolicy()) == [0, 1, 2, 3]

    def test_finished_running_and_exhausted_tasks_wait(self) -> None:
        view = _view(
            (E.START, 0, 1, 0.0),
            (E.FINISH, 0, 1, 1.0),
            (E.START, 1, 1, 0.0),
            (E.START, 2, 1, 0.0),
            (E.FAIL, 2, 1, 1.0),
        )
        policy = RetryPolicy(max_attempts=1)
        assert due_launches(view, 5.0, policy) == [3]
        # map3 never started: first attempts queue ahead of retries.
        assert due_launches(view, 5.0, RetryPolicy(max_attempts=2)) == [3, 2]

    def test_a_retry_waits_out_its_backoff(self) -> None:
        view = _view(
            (E.START, 0, 1, 0.0),
            (E.FAIL, 0, 1, 1.0),
            (E.START, 0, 2, 2.0),
            (E.FAIL, 0, 2, 3.0),
        )
        policy = RetryPolicy(max_attempts=3, retry_backoff_seconds=1.0)
        # Two charges: base × 2 after the last charge at t=3.
        assert 0 not in due_launches(view, 4.999, policy)
        assert due_launches(view, 5.0, policy)[-1] == 0

    def test_retries_launch_in_the_order_they_were_charged(self) -> None:
        view = _view(
            (E.START, 0, 1, 0.0),
            (E.START, 1, 1, 0.0),
            (E.START, 2, 1, 0.0),
            (E.START, 3, 1, 0.0),
            (E.FAIL, 3, 1, 1.0),
            (E.FAIL, 1, 1, 1.0),
        )
        assert due_launches(view, 1.0, RetryPolicy(max_attempts=2)) == [3, 1]


class TestOverdueAttempts:
    def test_no_timeout_never_abandons(self) -> None:
        view = _view((E.START, 0, 1, 0.0))
        assert overdue_attempts(view, 1e9, RetryPolicy()) == []

    def test_strictly_past_the_timeout_in_start_order(self) -> None:
        view = _view(
            (E.START, 2, 1, 0.0),
            (E.START, 0, 1, 0.5),
            (E.START, 1, 1, 1.0),
        )
        policy = RetryPolicy(task_timeout_seconds=1.0)
        assert overdue_attempts(view, 1.5, policy) == [(2, 1)]
        assert overdue_attempts(view, 1.75, policy) == [(2, 1), (0, 1)]


class TestBackupsDue:
    POLICY = RetryPolicy(
        max_attempts=2,
        speculative_execution=True,
        speculative_quantile=0.5,
        speculative_slack=2.0,
    )

    def _half_done(self, *more) -> WaveView:
        return _view(
            (E.START, 0, 1, 0.0),
            (E.START, 1, 1, 0.0),
            (E.START, 2, 1, 0.0),
            (E.START, 3, 1, 0.0),
            (E.FINISH, 0, 1, 1.0),
            (E.FINISH, 1, 1, 3.0),
            *more,
        )

    def test_stragglers_past_slack_times_median(self) -> None:
        view = self._half_done()  # median 2.0: threshold 4.0
        assert backups_due(view, 4.0, self.POLICY) == []
        assert backups_due(view, 4.5, self.POLICY) == [2, 3]

    def test_off_or_below_quantile_or_done_means_none(self) -> None:
        view = self._half_done()
        off = RetryPolicy(max_attempts=2, speculative_slack=2.0)
        assert backups_due(view, 99.0, off) == []
        quorum = RetryPolicy(
            speculative_execution=True, speculative_quantile=0.9
        )
        assert backups_due(view, 99.0, quorum) == []
        done = self._half_done((E.FINISH, 2, 1, 5.0), (E.FINISH, 3, 1, 5.0))
        assert backups_due(done, 99.0, self.POLICY) == []

    def test_one_backup_per_task(self) -> None:
        view = self._half_done((E.START, 2, 2, 4.5, {"speculative": True}))
        assert backups_due(view, 99.0, self.POLICY) == [3]
        # Two open attempts of one unspeculated task: still one backup.
        doubled = self._half_done((E.START, 3, 2, 0.5))
        assert backups_due(doubled, 99.0, self.POLICY) == [2, 3]


class TestTerminalTask:
    def test_spent_with_nothing_in_flight(self) -> None:
        policy = RetryPolicy(max_attempts=1)
        view = _view((E.START, 0, 1, 0.0), (E.FAIL, 0, 1, 1.0))
        assert terminal_task(view, policy) == 0
        assert terminal_task(view, RetryPolicy(max_attempts=2)) is None

    def test_a_live_sibling_or_a_finish_defers_the_verdict(self) -> None:
        policy = RetryPolicy(max_attempts=1)
        racing = _view(
            (E.START, 0, 1, 0.0),
            (E.START, 0, 2, 1.0, {"speculative": True}),
            (E.FAIL, 0, 1, 2.0),
        )
        assert terminal_task(racing, policy) is None
        won = _view(
            (E.START, 0, 1, 0.0),
            (E.START, 0, 2, 1.0, {"speculative": True}),
            (E.FAIL, 0, 1, 2.0),
            (E.FINISH, 0, 2, 3.0),
        )
        assert terminal_task(won, policy) is None

    def test_the_first_task_spent_is_the_verdict(self) -> None:
        view = _view(
            (E.START, 2, 1, 0.0),
            (E.START, 1, 1, 0.0),
            (E.FAIL, 2, 1, 1.0),
            (E.FAIL, 1, 1, 1.0),
        )
        assert terminal_task(view, RetryPolicy(max_attempts=1)) == 2


class TestIdleDelay:
    def test_a_poll_tick_while_attempts_are_in_flight(self) -> None:
        view = _view((E.START, 0, 1, 0.0))
        assert idle_delay(view, 0.0, RetryPolicy()) == _POLL_TICK

    def test_until_the_earliest_retry(self) -> None:
        view = _view(
            (E.START, 0, 1, 0.0),
            (E.FINISH, 0, 1, 0.0),
            (E.START, 1, 1, 0.0),
            (E.FAIL, 1, 1, 1.0),
            (E.START, 2, 1, 0.0),
            (E.FINISH, 2, 1, 0.0),
            (E.START, 3, 1, 0.0),
            (E.FAIL, 3, 1, 2.0),
        )
        policy = RetryPolicy(max_attempts=2, retry_backoff_seconds=3.0)
        assert idle_delay(view, 1.5, policy) == pytest.approx(2.5)
        assert idle_delay(view, 9.0, policy) == 0.0


# -- (b) generated lifecycles: the fold and the decisions' rules -----------


def _reference(log: EventLog, task_id: str) -> dict:
    """One task's state counted straight off the log."""
    mine = [e for e in log if e.task_id == task_id]
    charges = [
        (position, e.t_seconds)
        for position, e in enumerate(log)
        if e.task_id == task_id and e.event in (E.FAIL, E.TIMEOUT)
    ]
    starts = sum(e.event == E.START for e in mine)
    return {
        "started": starts,
        "charged": len(charges),
        "live": starts - sum(e.event in E.ATTEMPT_ENDS for e in mine),
        "speculated": any(e.speculative for e in mine),
        "finished": any(e.event == E.FINISH for e in mine),
        "charge_position": charges[-1][0] if charges else -1,
        "last_charge": charges[-1][1] if charges else 0.0,
    }


policies = st.builds(
    RetryPolicy,
    max_attempts=st.integers(1, 4),
    task_timeout_seconds=st.none() | st.floats(0.5, 10.0),
    retry_backoff_seconds=st.sampled_from([0.0, 0.5, 2.0]),
    speculative_execution=st.booleans(),
    speculative_quantile=st.sampled_from([0.0, 0.5, 1.0]),
    speculative_slack=st.sampled_from([0.5, 1.0, 2.0]),
)


@settings(max_examples=300, deadline=None)
@given(attempt_histories(), st.data())
def test_decisions_on_any_lifecycle_prefix(history, data) -> None:
    events = list(history)
    prefix = EventLog(events[: data.draw(st.integers(0, len(events)))])
    policy = data.draw(policies)
    for kind in (E.MAP, E.REDUCE):
        named = {e.task_id for e in prefix if e.kind == kind}
        count = 1 + max((int(t[len(kind):]) for t in named), default=-1)
        ids = [f"{kind}{index}" for index in range(count)]
        view = WaveView(ids, prefix)
        last = max((e.t_seconds for e in prefix), default=0.0)
        now = data.draw(st.floats(0.0, last + 5.0))
        refs = [_reference(prefix, task_id) for task_id in ids]

        # The fold is the log, counted.
        for task, ref in zip(view.tasks, refs):
            assert task.started == ref["started"]
            assert task.charged == ref["charged"]
            assert task.live == ref["live"]
            assert task.speculated == ref["speculated"]
            assert task.finished == ref["finished"]
        assert sorted(view.durations) == sorted(
            prefix.wall_durations(kind).values()
        )

        # Never launch a finished (or running) task, nor retry early.
        for index in due_launches(view, now, policy):
            ref = refs[index]
            assert not ref["finished"] and ref["live"] == 0
            assert ref["charged"] < policy.max_attempts
            due_at = ref["last_charge"] + policy.backoff_delay(ref["charged"])
            assert now >= due_at

        # At most one backup per task, never for one already backed up.
        backups = backups_due(view, now, policy)
        assert len(set(backups)) == len(backups)
        assert not any(refs[index]["speculated"] for index in backups)
        assert all(refs[index]["live"] for index in backups)

        # Terminal iff spent, idle and unfinished — and the first such.
        spent = [
            index
            for index, ref in enumerate(refs)
            if ref["charged"] >= policy.max_attempts
            and ref["live"] == 0
            and not ref["finished"]
        ]
        verdict = terminal_task(view, policy)
        if spent:
            assert verdict == min(
                spent, key=lambda i: refs[i]["charge_position"]
            )
        else:
            assert verdict is None

        # Overdue attempts are open ones past the timeout.
        for index, number in overdue_attempts(view, now, policy):
            assert now - view.open[(index, number)] > (
                policy.task_timeout_seconds
            )
        assert idle_delay(view, now, policy) >= 0.0


# -- (c) the real loop, closed on the fake clock ---------------------------


@functools.lru_cache(maxsize=None)
def _clean():
    job, splits = _wordcount()
    return LocalJobRunner(executor=SerialExecutor()).run(job, splits)


TASKS = ["map0", "map1", "map2", "map3", "reduce0", "reduce1", "reduce2"]
fault_script = st.lists(st.sampled_from([None, "fail", "crash"]), max_size=4)
delay_script = st.lists(st.sampled_from([0.0, 0.003, 0.02, 0.2]), max_size=4)


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    scripts=st.dictionaries(st.sampled_from(TASKS), fault_script, max_size=3),
    delays=st.dictionaries(st.sampled_from(TASKS), delay_script, max_size=5),
    max_attempts=st.integers(1, 4),
    timeout=st.none() | st.sampled_from([0.01, 0.1]),
    backoff=st.sampled_from([0.0, 0.005]),
    speculative=st.booleans(),
)
def test_the_loop_on_generated_schedules(
    scripts, delays, max_attempts, timeout, backoff, speculative
) -> None:
    job, splits = _wordcount(
        max_task_attempts=max_attempts,
        task_timeout_seconds=timeout,
        retry_backoff_seconds=backoff,
        speculative_execution=speculative,
        speculative_quantile=0.5,
        speculative_slack=2.0,
    )
    clock = FakeClock()
    runner = LocalJobRunner(
        executor=TardyExecutor(clock, delays),
        fault_policy=ScriptedFaults(faults=scripts),
        clock=clock,
        sleep=clock.sleep,
    )
    try:
        result = runner.run(job, splits)
    except Exception as exc:  # noqa: BLE001 — the post-mortem is the test
        log, failed = exc.events, True
    else:
        log, failed = result.events, False
    event("job failed" if failed else "job succeeded")
    for name, happened in (
        ("timeout", log.timeouts()),
        ("backup", log.speculative_starts()),
        ("worker crash", log.worker_crashes()),
    ):
        event(f"{name}: {'yes' if happened else 'no'}")

    # Every START has exactly one end, and no attempt ends twice.
    assert_event_log_complete(log)
    ends: dict[tuple[str, int], list[str]] = {}
    for row in log:
        if row.event in E.ATTEMPT_ENDS:
            ends.setdefault((row.task_id, row.attempt), []).append(row.event)
    assert all(len(outcomes) == 1 for outcomes in ends.values())

    # Charges per task stay within the budget.  A speculative backup
    # runs beside the attempt it backs up, so a task that had one may be
    # charged for both: one charge over ``max_attempts`` at most.
    for task_id in {row.task_id for row in log}:
        mine = log.for_task(task_id)
        charged = sum(e.event in (E.FAIL, E.TIMEOUT) for e in mine)
        backups = sum(e.event == E.START and e.speculative for e in mine)
        assert backups <= 1
        assert charged <= max_attempts + backups
        originals = sum(
            e.event == E.START and not e.speculative for e in mine
        )
        assert originals <= max_attempts

    if not failed:
        finishes = [e.task_id for e in log if e.event == E.FINISH]
        assert sorted(finishes) == sorted(set(finishes)) == sorted(TASKS)
        clean = _clean()
        assert result.sorted_output() == clean.sorted_output()
        assert result.counters.as_dict() == clean.counters.as_dict()


# -- the terminal drain honours the task timeout -----------------------------


def _drain_job():
    """map0 fails for good while map1 is still running: the wave's
    terminal verdict must not wait on map1 past its 0.5 s timeout."""
    return _wordcount(task_timeout_seconds=0.5)


def _ends(log, task_id: str) -> list[tuple[str, float]]:
    return [
        (e.event, e.t_seconds)
        for e in log.for_task(task_id)
        if e.event in E.ATTEMPT_ENDS
    ]


class TestDrainHonoursTheTimeout:
    def test_fake_clock_drain_abandons_at_the_deadline(self) -> None:
        job, splits = _drain_job()
        clock = FakeClock()
        executor = TardyExecutor(clock, {"map1": [4.0]})
        runner = LocalJobRunner(
            executor=executor,
            fault_policy=ScriptedFaults(faults={"map0": ["fail"]}),
            clock=clock,
            sleep=clock.sleep,
        )
        with pytest.raises(InjectedTaskFailure) as info:
            runner.run(job, splits)
        log = info.value.events
        assert_event_log_complete(log)
        [(event, t)] = _ends(log, "map1")
        assert event == E.TIMEOUT
        assert 0.5 < t <= 0.5 + 2 * _POLL_TICK
        assert clock.now < 1.0
        assert len(executor.abandoned) == 1

    def test_without_a_timeout_the_drain_still_lands_everything(self) -> None:
        job, splits = _wordcount()
        clock = FakeClock()
        runner = LocalJobRunner(
            executor=TardyExecutor(clock, {"map1": [4.0]}),
            fault_policy=ScriptedFaults(faults={"map0": ["fail"]}),
            clock=clock,
            sleep=clock.sleep,
        )
        with pytest.raises(InjectedTaskFailure) as info:
            runner.run(job, splits)
        assert [event for event, _ in _ends(info.value.events, "map1")] == [
            E.FINISH
        ]

    def test_pool_drain_does_not_wait_for_a_hung_attempt(self) -> None:
        job, splits = _drain_job()
        policy = ScriptedFaults(
            faults={"map0": ["fail"], "map1": [("hang", 4.0)]}
        )
        with ParallelExecutor(max_workers=2) as pool:
            runner = LocalJobRunner(executor=pool, fault_policy=policy)
            began = time.monotonic()
            with pytest.raises(InjectedTaskFailure) as info:
                runner.run(job, splits)
            took = time.monotonic() - began
        log = info.value.events
        assert_event_log_complete(log)
        assert [event for event, _ in _ends(log, "map1")] == [E.TIMEOUT]
        assert took < 3.0
