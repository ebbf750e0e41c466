"""Fault-tolerance suite: crashes, timeouts, backoff, speculation.

Acceptance contract (ISSUE: fault-tolerance hardening): a scripted
worker crash (``os._exit`` in the worker) and a scripted hang both
complete the job with output and analytic counters **bit-identical** to
a fault-free serial run, with the recovery visible in the event log
(``EventLog.attempt_counts()``).

Two styles of test live here:

* *Integration* tests drive real executors (including a real process
  pool whose worker genuinely dies) and assert the recovery outcome
  without pinning wall-clock timing.
* *Deterministic* tests inject a fake clock/sleep pair plus a
  :class:`TardyExecutor` that reveals results on a scripted schedule,
  so timeout, backoff and speculation decisions are reproducible to
  the tick.
"""

from __future__ import annotations

from collections import Counter as TallyCounter
from typing import Any, Callable

import pytest

from repro.mr import events as E
from repro.mr.cost import FixedCostMeter
from repro.mr.engine import LocalJobRunner
from repro.mr.executor import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    TaskFuture,
    WorkerCrashError,
)
from repro.mr.scheduler import (
    RetryPolicy,
    ScriptedFaults,
    TaskFailedError,
    TaskTimeoutError,
)
from repro.mr.split import split_records
from repro.workloads.wordcount import wordcount_job

NUM_SPLITS = 4


def _wordcount(**knobs):
    lines = [
        (i, f"the quick brown fox {i % 7} jumps over the lazy dog {i % 3}")
        for i in range(60)
    ]
    job = wordcount_job(
        num_reducers=3, cost_meter=FixedCostMeter(), **knobs
    )
    return job, split_records(lines, num_splits=NUM_SPLITS)


@pytest.fixture(scope="module")
def clean():
    """The fault-free serial reference run every test compares against."""
    job, splits = _wordcount()
    return LocalJobRunner(executor=SerialExecutor()).run(job, splits)


def assert_event_log_complete(events) -> None:
    """Every START has exactly one end (FINISH/FAIL/TIMEOUT/KILLED)."""
    open_attempts: set[tuple[str, int]] = set()
    for event in events:
        key = (event.task_id, event.attempt)
        if event.event == E.START:
            assert key not in open_attempts, f"duplicate START: {event}"
            open_attempts.add(key)
        elif event.event in E.ATTEMPT_ENDS:
            assert key in open_attempts, f"end without START: {event}"
            open_attempts.remove(key)
    assert not open_attempts, (
        f"attempts with no end event: {sorted(open_attempts)}"
    )


def assert_recovered(result, clean) -> None:
    """The recovered run is indistinguishable in its data products."""
    assert result.sorted_output() == clean.sorted_output()
    assert result.counters.as_dict() == clean.counters.as_dict()
    assert_event_log_complete(result.events)
    # Exactly one successful (folded) attempt per task.
    finishes = TallyCounter(
        e.task_id for e in result.events if e.event == E.FINISH
    )
    assert set(finishes.values()) == {1}


# -- deterministic time: fake clock + scripted-delay executor ---------------


class FakeClock:
    """A monotonic clock that only advances when someone sleeps."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += max(0.0, seconds)


class _TardyFuture(TaskFuture):
    def __init__(
        self,
        value: Any,
        error: BaseException | None,
        ready_at: float,
        clock: Callable[[], float],
    ):
        self._value = value
        self._error = error
        self._ready_at = ready_at
        self._clock = clock

    def done(self) -> bool:
        return self._clock() >= self._ready_at

    def result(self) -> Any:
        if self._error is not None:
            raise self._error
        return self._value

    def cancel(self) -> bool:
        return False  # "already running": forces the abandon path


class TardyExecutor(Executor):
    """Runs attempts inline but reveals results on a scripted schedule.

    ``delays`` maps a task id to per-attempt completion delays (fake
    seconds after submission); unscripted attempts complete instantly.
    With the scheduler polling ``done()`` against the same fake clock,
    timeout and speculation decisions become fully deterministic.
    """

    name = "tardy"

    def __init__(
        self,
        clock: Callable[[], float],
        delays: dict[str, list[float]] | None = None,
    ):
        self._clock = clock
        self._delays = {k: list(v) for k, v in (delays or {}).items()}
        self._submissions: dict[str, int] = {}
        self.abandoned: list[TaskFuture] = []

    def submit(self, fn: Callable[..., Any], /, *args: Any) -> TaskFuture:
        raw = args[1]  # map: task_id str; reduce: partition int
        task_id = raw if isinstance(raw, str) else f"reduce{raw}"
        nth = self._submissions.get(task_id, 0)
        self._submissions[task_id] = nth + 1
        script = self._delays.get(task_id, [])
        delay = script[nth] if nth < len(script) else 0.0
        try:
            value, error = fn(*args), None
        except Exception as exc:  # noqa: BLE001 — futures carry errors
            value, error = None, exc
        return _TardyFuture(value, error, self._clock() + delay, self._clock)

    def abandon(self, future: TaskFuture) -> None:
        self.abandoned.append(future)


def _fake_time_runner(**runner_knobs) -> tuple[LocalJobRunner, FakeClock]:
    clock = FakeClock()
    executor = runner_knobs.pop("executor", None)
    if executor is None:
        executor = TardyExecutor(clock, runner_knobs.pop("delays", None))
    runner = LocalJobRunner(
        executor=executor, clock=clock, sleep=clock.sleep, **runner_knobs
    )
    return runner, clock


# -- worker-crash recovery --------------------------------------------------


class TestWorkerCrashRecovery:
    def test_pool_worker_crash_recovers(self, clean) -> None:
        """Acceptance: os._exit in a real pool worker; job still right."""
        job, splits = _wordcount(max_task_attempts=3)
        policy = ScriptedFaults(faults={"map0": ["crash"]})
        with ParallelExecutor(max_workers=2) as pool:
            result = LocalJobRunner(
                executor=pool, fault_policy=policy
            ).run(job, splits)

        assert_recovered(result, clean)
        assert policy.injected == [("map0", 1, "crash")]
        # The infrastructure failure is classified as such...
        crashes = result.events.worker_crashes(E.MAP)
        assert crashes, "worker death must surface as a worker-crash FAIL"
        assert any(e.task_id == "map0" for e in crashes)
        # ... charged as a retry ...
        assert result.events.attempts("map0") >= 2
        # ... and counted as both.
        counts = result.events.attempt_counts()["map"]
        assert counts["worker_crash"] == len(crashes)
        assert counts["failed"] >= len(crashes)

    def test_pool_reduce_crash_recovers(self, clean) -> None:
        job, splits = _wordcount(max_task_attempts=3)
        with ParallelExecutor(max_workers=2) as pool:
            result = LocalJobRunner(
                executor=pool,
                fault_policy=ScriptedFaults(faults={"reduce1": ["crash"]}),
            ).run(job, splits)
        assert_recovered(result, clean)
        assert result.events.worker_crashes(E.REDUCE)
        assert result.events.attempts("reduce1") >= 2

    def test_serial_crash_simulation_recovers(self, clean) -> None:
        """The serial executor's simulated crash takes the same path."""
        job, splits = _wordcount(max_task_attempts=2)
        result = LocalJobRunner(
            executor=SerialExecutor(),
            fault_policy=ScriptedFaults(faults={"map0": ["crash"]}),
        ).run(job, splits)
        assert_recovered(result, clean)
        # Serial: no siblings in flight, so exactly one crash casualty.
        [crash] = result.events.worker_crashes()
        assert (crash.task_id, crash.attempt) == ("map0", 1)
        assert result.events.attempts("map0") == 2
        assert result.events.attempt_counts()["map"]["worker_crash"] == 1

    def test_crash_exhaustion_fails_the_job(self) -> None:
        job, splits = _wordcount(max_task_attempts=2)
        runner = LocalJobRunner(
            executor=SerialExecutor(),
            fault_policy=ScriptedFaults(faults={"map0": ["crash", "crash"]}),
        )
        with pytest.raises(TaskFailedError, match="map0.*2 attempt") as info:
            runner.run(job, splits)
        assert isinstance(info.value.cause, WorkerCrashError)
        # The post-mortem event log rides on the exception, complete.
        assert_event_log_complete(info.value.events)
        assert len(info.value.events.worker_crashes()) == 2

    def test_default_executor_crash_smoke(self, clean) -> None:
        """Runs under whatever REPRO_JOBS selects (the CI fault-smoke
        job exercises this under both serial and process backends)."""
        job, splits = _wordcount(max_task_attempts=3)
        result = LocalJobRunner(
            fault_policy=ScriptedFaults(faults={"map0": ["crash"]}),
        ).run(job, splits)
        assert_recovered(result, clean)
        assert result.events.worker_crashes()


# -- task timeouts ----------------------------------------------------------


class TestTaskTimeouts:
    def test_timed_out_attempt_is_abandoned_and_retried(self, clean) -> None:
        job, splits = _wordcount(
            task_timeout_seconds=1.0, max_task_attempts=2
        )
        runner, _ = _fake_time_runner(delays={"map0": [10.0]})
        result = runner.run(job, splits)

        assert_recovered(result, clean)
        [timeout] = result.events.timeouts(E.MAP)
        assert (timeout.task_id, timeout.attempt) == ("map0", 1)
        # The uncancellable attempt was abandoned, never folded.
        assert len(runner._executor.abandoned) == 1
        assert result.events.attempts("map0") == 2
        assert result.events.attempt_counts()["map"]["timed_out"] == 1

    def test_timeout_exhaustion_raises_with_cause(self) -> None:
        job, splits = _wordcount(
            task_timeout_seconds=1.0, max_task_attempts=2
        )
        runner, _ = _fake_time_runner(delays={"map0": [10.0, 10.0]})
        with pytest.raises(TaskFailedError) as info:
            runner.run(job, splits)
        assert isinstance(info.value.cause, TaskTimeoutError)
        assert info.value.cause.task_id == "map0"
        assert_event_log_complete(info.value.events)
        assert len(info.value.events.timeouts()) == 2

    def test_fail_fast_timeout_propagates_unwrapped(self) -> None:
        job, splits = _wordcount(task_timeout_seconds=0.5)
        runner, _ = _fake_time_runner(delays={"map1": [10.0]})
        with pytest.raises(TaskTimeoutError, match="map1.*0.5s"):
            runner.run(job, splits)

    def test_real_pool_hang_recovers(self, clean) -> None:
        """Acceptance: a scripted hang outlives the timeout on a real
        pool; the zombie attempt is abandoned and the retry wins."""
        job, splits = _wordcount(
            task_timeout_seconds=0.75, max_task_attempts=2
        )
        with ParallelExecutor(max_workers=2) as pool:
            result = LocalJobRunner(
                executor=pool,
                fault_policy=ScriptedFaults(faults={"map1": [("hang", 5.0)]}),
            ).run(job, splits)
            assert_recovered(result, clean)
            [timeout] = result.events.timeouts()
            assert (timeout.task_id, timeout.attempt) == ("map1", 1)
            assert result.events.attempts("map1") == 2
        # Leaving the `with` block must not hang on the zombie worker:
        # close() hard-stops when abandoned futures are still pending.

    def test_serial_hang_is_harmless_without_a_worker(self, clean) -> None:
        """Serially a hang is just a sleep inside the attempt: the
        future completes at submit time, so no timeout can trip."""
        job, splits = _wordcount(
            task_timeout_seconds=0.75, max_task_attempts=2
        )
        result = LocalJobRunner(
            executor=SerialExecutor(),
            fault_policy=ScriptedFaults(faults={"map1": [("hang", 0.05)]}),
        ).run(job, splits)
        assert_recovered(result, clean)
        assert not result.events.timeouts()
        assert result.events.attempts("map1") == 1

    def test_default_executor_hang_smoke(self, clean) -> None:
        """CI fault-smoke leg: under REPRO_JOBS=2 the hang trips the
        timeout and is retried; serially it just runs slow.  Either
        way the data products match the clean run."""
        job, splits = _wordcount(
            task_timeout_seconds=0.75, max_task_attempts=2
        )
        result = LocalJobRunner(
            fault_policy=ScriptedFaults(faults={"map2": [("hang", 1.5)]}),
        ).run(job, splits)
        assert_recovered(result, clean)
        if result.events.timeouts():  # process backend
            assert result.events.attempts("map2") == 2


# -- retry backoff ----------------------------------------------------------


class TestRetryBackoff:
    def test_backoff_delay_is_exponential(self) -> None:
        policy = RetryPolicy(max_attempts=4, retry_backoff_seconds=1.5)
        assert [policy.backoff_delay(n) for n in (1, 2, 3)] == [
            1.5,
            3.0,
            6.0,
        ]
        assert policy.backoff_delay(0) == 0.0
        assert RetryPolicy(max_attempts=4).backoff_delay(2) == 0.0

    def test_retry_schedule_is_deterministic(self, clean) -> None:
        """With an injected clock the retry STARTs land exactly on the
        exponential schedule: t=0, +1s, +2s (cumulative 0, 1, 3)."""
        job, splits = _wordcount(
            retry_backoff_seconds=1.0, max_task_attempts=4
        )
        runner, clock = _fake_time_runner(
            executor=SerialExecutor(),
            fault_policy=ScriptedFaults({"map0": 2}),
        )
        result = runner.run(job, splits)

        assert_recovered(result, clean)
        starts = [
            e.t_seconds
            for e in result.events.for_task("map0")
            if e.event == E.START
        ]
        assert starts == [0.0, 1.0, 3.0]
        # Everything else launched in the first wave, before any sleep.
        assert all(
            e.t_seconds == 0.0
            for e in result.events.for_task("map1")
            if e.event == E.START
        )

    def test_zero_backoff_keeps_retries_immediate(self, clean) -> None:
        job, splits = _wordcount(max_task_attempts=2)
        runner, clock = _fake_time_runner(
            executor=SerialExecutor(),
            fault_policy=ScriptedFaults({"map0": 1}),
        )
        result = runner.run(job, splits)
        assert_recovered(result, clean)
        assert clock.now == 0.0  # never slept


# -- speculative execution --------------------------------------------------


def _speculative_wordcount():
    return _wordcount(
        speculative_execution=True,
        speculative_quantile=0.5,
        speculative_slack=2.0,
        max_task_attempts=2,
    )


class TestSpeculativeExecution:
    def test_backup_wins_and_straggler_is_killed(self, clean) -> None:
        job, splits = _speculative_wordcount()
        runner, _ = _fake_time_runner(delays={"map3": [10.0]})
        result = runner.run(job, splits)

        assert_recovered(result, clean)
        [backup] = result.events.speculative_starts(E.MAP)
        assert (backup.task_id, backup.attempt) == ("map3", 2)
        [kill] = result.events.kills(E.MAP)
        assert (kill.task_id, kill.attempt) == ("map3", 1)
        [finish] = [
            e
            for e in result.events.for_task("map3")
            if e.event == E.FINISH
        ]
        assert finish.attempt == 2
        counts = result.events.attempt_counts()["map"]
        assert counts["speculative"] == 1
        assert counts["killed"] == 1
        assert counts["failed"] == 0

    def test_losing_attempt_result_is_discarded(self, clean) -> None:
        """Both attempts complete in the same poll sweep: the original
        wins (submission order) and the backup's finished result — and
        its counters — are discarded wholesale.  Bit-identical output
        proves exactly one attempt was folded."""
        job, splits = _speculative_wordcount()
        # Original reveals at t=0.004; the backup launches at t=0.002
        # (first poll tick) and reveals 0.002 later — the same instant.
        runner, _ = _fake_time_runner(delays={"map3": [0.004, 0.002]})
        result = runner.run(job, splits)

        assert_recovered(result, clean)
        [kill] = result.events.kills(E.MAP)
        assert (kill.task_id, kill.attempt) == ("map3", 2)
        [finish] = [
            e
            for e in result.events.for_task("map3")
            if e.event == E.FINISH
        ]
        assert finish.attempt == 1

    def test_no_speculation_before_quantile(self) -> None:
        """With half the wave still running the scheduler has no
        baseline quorum, so no backups launch."""
        job, splits = _wordcount(
            speculative_execution=True,
            speculative_quantile=0.9,  # needs 4/4 done: never reached
            speculative_slack=2.0,
            max_task_attempts=2,
        )
        runner, _ = _fake_time_runner(delays={"map3": [0.01]})
        result = runner.run(job, splits)
        assert not result.events.speculative_starts()
        assert not result.events.kills()

    def test_at_most_one_backup_per_task(self) -> None:
        job, splits = _speculative_wordcount()
        # Both the original and the backup straggle for a while.
        runner, _ = _fake_time_runner(delays={"map3": [0.05, 0.04]})
        result = runner.run(job, splits)
        assert len(result.events.speculative_starts()) == 1
        assert result.events.attempts("map3") == 2


# -- drain on terminal failure ----------------------------------------------


class TestDrainOnTerminalFailure:
    def test_pool_siblings_are_drained_into_the_event_log(self) -> None:
        from repro.mr.scheduler import InjectedTaskFailure

        job, splits = _wordcount()
        with ParallelExecutor(max_workers=2) as pool:
            runner = LocalJobRunner(
                executor=pool, fault_policy=ScriptedFaults({"map1": 99})
            )
            with pytest.raises(InjectedTaskFailure) as info:
                runner.run(job, splits)
        events = info.value.events
        assert_event_log_complete(events)
        assert any(
            e.event == E.FAIL and e.task_id == "map1" for e in events
        )

    def test_serial_siblings_keep_their_finish_events(self) -> None:
        job, splits = _wordcount(max_task_attempts=2)
        runner = LocalJobRunner(
            executor=SerialExecutor(),
            fault_policy=ScriptedFaults({"map1": 99}),
        )
        with pytest.raises(TaskFailedError) as info:
            runner.run(job, splits)
        events = info.value.events
        assert_event_log_complete(events)
        finished = {
            e.task_id for e in events if e.event == E.FINISH
        }
        assert finished == {"map0", "map2", "map3"}
        assert len(events.failures()) == 2  # both charged attempts
