"""Scheduler-level tests: executor parity, retries, and the event log.

The determinism contract pinned here is the headline of the execution
layer: **byte and record counters of a job are identical regardless of
the executor and of injected faults**.  With a fixed cost meter even
the CPU counters are deterministic, so the tests compare the *entire*
counter dictionary across backends, plus the canonical sorted output.
"""

from __future__ import annotations

import pytest

from repro.core.config import Strategy
from repro.core.transform import enable_anti_combining
from repro.datagen import generate_cloud_reports, generate_query_log
from repro.mr import events as E
from repro.mr.cost import FixedCostMeter
from repro.mr.engine import LocalJobRunner
from repro.mr.executor import ParallelExecutor, UnpicklableJobError
from repro.mr.scheduler import (
    InjectedTaskFailure,
    NoFaults,
    ScriptedFaults,
    TaskFailedError,
)
from repro.mr.split import split_records
from repro.workloads.query_suggestion import query_suggestion_job
from repro.workloads.sort import sort_job
from repro.workloads.thetajoin import band_join_job
from repro.workloads.wordcount import wordcount_job

NUM_SPLITS = 4


@pytest.fixture(scope="module")
def pool():
    """One four-worker process pool shared by the module's tests."""
    with ParallelExecutor(max_workers=4) as executor:
        yield executor


def _wordcount():
    lines = [
        (i, f"the quick brown fox {i % 7} jumps over the lazy dog {i % 3}")
        for i in range(60)
    ]
    job = wordcount_job(num_reducers=4, cost_meter=FixedCostMeter())
    return job, split_records(lines, num_splits=NUM_SPLITS)

def _thetajoin():
    records = generate_cloud_reports(80, num_stations=10, seed=9)
    job = band_join_job(
        grid_rows=4, grid_cols=4, num_reducers=4, cost_meter=FixedCostMeter()
    )
    return job, split_records(records, num_splits=NUM_SPLITS)

def _sort():
    records = [(i, (i * 37) % 101) for i in range(120)]
    job = sort_job(num_reducers=4, cost_meter=FixedCostMeter())
    return job, split_records(records, num_splits=NUM_SPLITS)

def _anti_query_suggestion():
    queries = generate_query_log(num_queries=150, seed=7)
    job = query_suggestion_job(
        k=3, num_reducers=4, cost_meter=FixedCostMeter()
    )
    anti = enable_anti_combining(job, strategy=Strategy.ADAPTIVE)
    return anti, split_records(queries, num_splits=NUM_SPLITS)


WORKLOADS = {
    "wordcount": _wordcount,
    "thetajoin": _thetajoin,
    "sort": _sort,
    "anti-query-suggestion": _anti_query_suggestion,
}


class TestExecutorParity:
    """Serial and process execution must be byte-for-byte identical."""

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_full_parity(self, workload, pool) -> None:
        job, splits = WORKLOADS[workload]()
        serial = LocalJobRunner().run(job, splits)
        parallel = LocalJobRunner(executor=pool).run(job, splits)

        assert parallel.sorted_output() == serial.sorted_output()
        # The acceptance quantities, by name:
        assert parallel.map_output_bytes == serial.map_output_bytes
        assert parallel.shuffle_bytes == serial.shuffle_bytes
        assert parallel.disk_read_bytes == serial.disk_read_bytes
        assert parallel.disk_write_bytes == serial.disk_write_bytes
        # ... and in fact the whole counter bag (FixedCostMeter makes
        # even the cpu.* counters deterministic):
        assert parallel.counters.as_dict() == serial.counters.as_dict()
        # Per-task snapshots agree too.
        assert [c.disk_bytes for c in parallel.map_task_costs] == [
            c.disk_bytes for c in serial.map_task_costs
        ]
        assert (
            parallel.shuffle_bytes_per_reducer
            == serial.shuffle_bytes_per_reducer
        )

    def test_unpicklable_job_fails_fast_on_process(self, pool) -> None:
        from repro.mr.api import Reducer
        from repro.mr.config import JobConf
        from repro.workloads.wordcount import WordCountMapper

        job = JobConf(
            mapper=lambda: WordCountMapper(), reducer=Reducer, num_reducers=2
        )
        with pytest.raises(UnpicklableJobError):
            LocalJobRunner(executor=pool).run(job, [[(0, "a b")]])


class TestFaultInjection:
    """Killed attempts are retried; results stay byte-identical."""

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_killed_map_attempt_is_retried(self, backend, pool) -> None:
        job, splits = _wordcount()
        clean = LocalJobRunner().run(job, splits)

        policy = ScriptedFaults({"map0": 1})
        runner = LocalJobRunner(
            executor=pool if backend == "process" else None,
            fault_policy=policy,
        )
        result = runner.run(job.clone(max_task_attempts=3), splits)

        assert policy.injected == [("map0", 1, "fail")]
        assert result.sorted_output() == clean.sorted_output()
        assert result.counters.as_dict() == clean.counters.as_dict()
        assert result.events.attempts("map0") == 2
        [failure] = result.events.failures(E.MAP)
        assert failure.task_id == "map0"
        assert "InjectedTaskFailure" in failure.error

    def test_killed_reduce_attempt_is_retried(self) -> None:
        job, splits = _wordcount()
        clean = LocalJobRunner().run(job, splits)
        runner = LocalJobRunner(fault_policy=ScriptedFaults({"reduce1": 1}))
        result = runner.run(job.clone(max_task_attempts=2), splits)
        assert result.counters.as_dict() == clean.counters.as_dict()
        assert result.events.attempts("reduce1") == 2
        assert result.events.attempts("reduce0") == 1

    def test_exhausted_attempts_raise_task_failed(self) -> None:
        job, splits = _wordcount()
        runner = LocalJobRunner(fault_policy=ScriptedFaults({"map1": 99}))
        with pytest.raises(TaskFailedError, match="map1.*2 attempt"):
            runner.run(job.clone(max_task_attempts=2), splits)

    def test_fail_fast_propagates_original_exception(self) -> None:
        # max_task_attempts == 1 (the default) keeps the historical
        # behaviour: the task's own exception comes through unchanged.
        job, splits = _wordcount()
        runner = LocalJobRunner(fault_policy=ScriptedFaults({"map0": 1}))
        with pytest.raises(InjectedTaskFailure):
            runner.run(job, splits)

    def test_no_faults_policy_injects_nothing(self) -> None:
        job, splits = _wordcount()
        result = LocalJobRunner(fault_policy=NoFaults()).run(
            job.clone(max_task_attempts=3), splits
        )
        assert not result.events.failures()


class TestEventLog:
    def test_structure_of_a_clean_run(self) -> None:
        job, splits = _wordcount()
        result = LocalJobRunner().run(job, splits)
        events = result.events

        # One start + one finish per task, no failures.
        assert len(events) == 2 * (len(splits) + job.num_reducers)
        assert not events.failures()
        for index in range(len(splits)):
            assert events.attempts(f"map{index}") == 1
        kinds = {(e.kind, e.event) for e in events}
        assert kinds == {
            (E.MAP, E.START),
            (E.MAP, E.FINISH),
            (E.REDUCE, E.START),
            (E.REDUCE, E.FINISH),
        }

    def test_timestamps_and_durations(self) -> None:
        job, splits = _wordcount()
        events = LocalJobRunner().run(job, splits).events
        timestamps = [e.t_seconds for e in events]
        assert all(t >= 0 for t in timestamps)
        durations = events.wall_durations(E.MAP)
        assert set(durations) == {f"map{i}" for i in range(len(splits))}
        assert all(d >= 0 for d in durations.values())

    def test_shuffle_bytes_by_task_matches_counters(self) -> None:
        job, splits = _wordcount()
        result = LocalJobRunner().run(job, splits)
        by_task = result.events.shuffle_bytes_by_task()
        assert sum(by_task.values()) == result.shuffle_bytes
        assert by_task == {
            f"reduce{p}": bytes_
            for p, bytes_ in enumerate(result.shuffle_bytes_per_reducer)
        }

    def test_as_dicts_round_trip(self) -> None:
        job, splits = _wordcount()
        events = LocalJobRunner().run(job, splits).events
        dicts = events.as_dicts()
        assert len(dicts) == len(events)
        assert dicts[0]["task_id"] == "map0"
        assert dicts[0]["event"] == E.START

    def test_fail_then_finish_durations(self) -> None:
        """A retried task's wall duration is its *finishing* attempt's
        interval; the failed attempt still shows up in the per-attempt
        durations (it occupied a slot)."""
        from repro.mr.events import EventLog, TaskEvent

        def ev(event, attempt, t, **kw):
            return TaskEvent(
                task_id="map0",
                kind=E.MAP,
                event=event,
                attempt=attempt,
                t_seconds=t,
                **kw,
            )

        log = EventLog(
            [
                ev(E.START, 1, 0.0),
                ev(E.FAIL, 1, 1.0, error="InjectedTaskFailure: boom"),
                ev(E.START, 2, 2.0),
                ev(E.FINISH, 2, 5.0),
            ]
        )
        assert log.wall_durations(E.MAP) == {"map0": 3.0}
        assert log.attempt_wall_durations(E.MAP) == [1.0, 3.0]
        assert log.attempts("map0") == 2
        assert len(log.failures(E.MAP)) == 1

    def test_timeout_and_killed_attempts_close_their_intervals(self) -> None:
        """TIMEOUT and KILLED end attempts just like FAIL does, so the
        slot time of hangs and speculative losers is accounted."""
        from repro.mr.events import EventLog, TaskEvent

        def ev(event, attempt, t, **kw):
            return TaskEvent(
                task_id="map0",
                kind=E.MAP,
                event=event,
                attempt=attempt,
                t_seconds=t,
                **kw,
            )

        log = EventLog(
            [
                ev(E.START, 1, 0.0),
                ev(E.TIMEOUT, 1, 2.0),
                ev(E.START, 2, 2.0),
                ev(E.START, 3, 3.0, speculative=True),
                ev(E.FINISH, 2, 4.0),
                ev(E.KILLED, 3, 4.0),
            ]
        )
        assert log.wall_durations(E.MAP) == {"map0": 2.0}
        assert sorted(log.attempt_wall_durations(E.MAP)) == [1.0, 2.0, 2.0]
        assert [e.attempt for e in log.timeouts(E.MAP)] == [1]
        assert [e.attempt for e in log.kills(E.MAP)] == [3]
        assert [e.attempt for e in log.speculative_starts(E.MAP)] == [3]

    def test_worker_crash_classification(self) -> None:
        from repro.mr.events import EventLog, TaskEvent

        crash = TaskEvent(
            task_id="map0",
            kind=E.MAP,
            event=E.FAIL,
            attempt=1,
            t_seconds=1.0,
            error=f"{E.WORKER_CRASH_PREFIX}: worker process died",
        )
        plain = TaskEvent(
            task_id="map1",
            kind=E.MAP,
            event=E.FAIL,
            attempt=1,
            t_seconds=1.0,
            error="ValueError: boom",
        )
        assert crash.is_worker_crash and not plain.is_worker_crash
        log = EventLog([crash, plain])
        assert log.worker_crashes() == [crash]
        assert log.failures() == [crash, plain]

    def test_terminal_failure_attaches_complete_event_log(self) -> None:
        """Post-mortem: the raised exception carries the event log,
        with the surviving siblings' FINISH events drained into it."""
        job, splits = _wordcount()
        runner = LocalJobRunner(fault_policy=ScriptedFaults({"map1": 99}))
        with pytest.raises(TaskFailedError) as info:
            runner.run(job.clone(max_task_attempts=2), splits)
        events = info.value.events
        finished = {e.task_id for e in events if e.event == E.FINISH}
        assert finished == {"map0", "map2", "map3"}
        # Every START is closed by exactly one end event.
        starts = {
            (e.task_id, e.attempt) for e in events if e.event == E.START
        }
        ends = [
            (e.task_id, e.attempt)
            for e in events
            if e.event in E.ATTEMPT_ENDS
        ]
        assert sorted(ends) == sorted(starts)

    def test_measured_runtime_from_events(self) -> None:
        job, splits = _wordcount()
        result = LocalJobRunner().run(job, splits)
        estimate = result.measured_runtime()
        assert estimate.total_seconds >= 0
        # Retried runs schedule failed attempts too: the wasted slot
        # time of the killed attempt is part of the measured runtime.
        retried = LocalJobRunner(
            fault_policy=ScriptedFaults({"map0": 1})
        ).run(job.clone(max_task_attempts=2), splits)
        assert retried.measured_runtime().total_seconds >= 0
        assert len(retried.events.attempt_wall_durations(E.MAP)) == (
            len(result.events.attempt_wall_durations(E.MAP)) + 1
        )
