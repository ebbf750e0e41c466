"""Unit tests for the executor layer (:mod:`repro.mr.executor`)."""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
import time

import pytest

from repro.datagen.qlog import generate_query_log
from repro.mr.cost import FixedCostMeter
from repro.mr.engine import LocalJobRunner
from repro.mr.executor import (
    EXECUTOR_NAMES,
    JOBS_ENV_VAR,
    ExecutorError,
    ParallelExecutor,
    SerialExecutor,
    UnpicklableJobError,
    WorkerCrashError,
    check_picklable,
    clear_default_executor,
    configure_from_env,
    create_executor,
    default_executor_spec,
    set_default_executor,
    set_default_jobs,
)
from repro.mr.scheduler import ScriptedFaults, TaskFailedError
from repro.mr.split import split_records
from repro.workloads.query_suggestion import query_suggestion_job


@pytest.fixture(autouse=True)
def _clean_override(monkeypatch):
    """Every test starts with no process-wide override and no env."""
    monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
    clear_default_executor()
    yield
    clear_default_executor()


def _square(x: int) -> int:
    return x * x


def _boom() -> None:
    raise ValueError("boom")


class TestCreateExecutor:
    def test_names_registry(self) -> None:
        assert set(EXECUTOR_NAMES) == {"serial", "process"}

    def test_serial_by_name(self) -> None:
        executor = create_executor("serial")
        assert isinstance(executor, SerialExecutor)
        assert executor.name == "serial"
        assert not executor.requires_pickling
        assert executor.max_workers == 1

    def test_process_by_name(self) -> None:
        with create_executor("process", max_workers=2) as executor:
            assert isinstance(executor, ParallelExecutor)
            assert executor.name == "process"
            assert executor.requires_pickling
            assert executor.max_workers == 2

    def test_unknown_name_raises(self) -> None:
        with pytest.raises(ExecutorError, match="unknown executor"):
            create_executor("threads")

    def test_bad_worker_count_raises(self) -> None:
        with pytest.raises(ExecutorError, match="max_workers"):
            ParallelExecutor(max_workers=0)


class TestSerialExecutor:
    def test_runs_inline(self) -> None:
        ran = []
        executor = SerialExecutor()
        future = executor.submit(ran.append, 1)
        assert ran == [1]  # eager: already ran at submit time
        assert future.result() is None

    def test_result_value(self) -> None:
        assert SerialExecutor().submit(_square, 7).result() == 49

    def test_exception_captured_into_future(self) -> None:
        future = SerialExecutor().submit(_boom)
        with pytest.raises(ValueError, match="boom"):
            future.result()


class TestParallelExecutor:
    def test_round_trips_across_processes(self) -> None:
        with ParallelExecutor(max_workers=2) as executor:
            futures = [executor.submit(_square, n) for n in range(5)]
            assert [f.result() for f in futures] == [0, 1, 4, 9, 16]

    def test_exception_crosses_process_boundary(self) -> None:
        with ParallelExecutor(max_workers=1) as executor:
            future = executor.submit(_boom)
            with pytest.raises(ValueError, match="boom"):
                future.result()

    def test_submit_after_close_raises(self) -> None:
        executor = ParallelExecutor(max_workers=1)
        executor.close()
        executor.close()  # idempotent
        with pytest.raises(ExecutorError, match="closed"):
            executor.submit(_square, 1)


class TestCheckPicklable:
    def test_picklable_job_passes(self) -> None:
        from repro.workloads.wordcount import wordcount_job

        check_picklable(wordcount_job())

    def test_lambda_factory_fails_with_guidance(self) -> None:
        from repro.mr.api import Reducer
        from repro.mr.config import JobConf
        from repro.workloads.wordcount import WordCountMapper

        job = JobConf(
            mapper=lambda: WordCountMapper(), reducer=Reducer, num_reducers=2
        )
        with pytest.raises(UnpicklableJobError, match="functools.partial"):
            check_picklable(job)


class TestDefaultOverride:
    def test_unset_by_default(self) -> None:
        assert default_executor_spec() is None

    def test_set_default_executor(self) -> None:
        set_default_executor("process", 4)
        assert default_executor_spec() == ("process", 4)
        clear_default_executor()
        assert default_executor_spec() is None

    def test_set_default_executor_rejects_unknown(self) -> None:
        with pytest.raises(ExecutorError, match="unknown executor"):
            set_default_executor("threads")

    def test_set_default_jobs(self) -> None:
        set_default_jobs(3)
        assert default_executor_spec() == ("process", 3)
        set_default_jobs(1)
        assert default_executor_spec() == ("serial", None)

    def test_env_fallback(self, monkeypatch) -> None:
        monkeypatch.setenv(JOBS_ENV_VAR, "5")
        assert default_executor_spec() == ("process", 5)
        monkeypatch.setenv(JOBS_ENV_VAR, "1")
        assert default_executor_spec() == ("serial", None)
    def test_malformed_env_raises_in_both_entry_points(
        self, monkeypatch
    ) -> None:
        # A malformed REPRO_JOBS must fail loudly everywhere: silently
        # falling back to serial would fake a parallel run.  Both entry
        # points — the lazy spec lookup and the eager configuration —
        # agree on raising.
        monkeypatch.setenv(JOBS_ENV_VAR, "not-a-number")
        with pytest.raises(ExecutorError, match="must be an integer"):
            default_executor_spec()
        with pytest.raises(ExecutorError, match="must be an integer"):
            configure_from_env()

    def test_explicit_override_beats_env(self, monkeypatch) -> None:
        monkeypatch.setenv(JOBS_ENV_VAR, "8")
        set_default_jobs(1)
        assert default_executor_spec() == ("serial", None)

    def test_configure_from_env(self, monkeypatch) -> None:
        assert not configure_from_env({})
        assert configure_from_env({JOBS_ENV_VAR: "2"})
        assert default_executor_spec() == ("process", 2)
        with pytest.raises(ExecutorError, match="integer"):
            configure_from_env({JOBS_ENV_VAR: "many"})


class TestJobConfKnobs:
    def test_defaults(self) -> None:
        from repro.workloads.wordcount import wordcount_job

        job = wordcount_job()
        assert job.executor == "serial"
        assert job.max_workers is None
        assert job.max_task_attempts == 1

    def test_validation(self) -> None:
        from repro.workloads.wordcount import wordcount_job

        with pytest.raises(ValueError, match="executor"):
            wordcount_job(executor="threads")
        with pytest.raises(ValueError, match="max_workers"):
            wordcount_job(executor="process", max_workers=0)
        with pytest.raises(ValueError, match="max_task_attempts"):
            wordcount_job(max_task_attempts=0)


# -- pool lifecycle ---------------------------------------------------------
#
# Map output crosses the pool inside the pickle-5 envelope of the task
# results, so what a pool run must release on every exit path is its
# worker processes.  Each test compares the job's outcome with a serial
# run and checks that no worker outlives ``close()``.


def _job_and_splits(**knobs):
    records = generate_query_log(150, seed=7)
    job = query_suggestion_job(
        num_reducers=2,
        sort_buffer_bytes=4096,
        cost_meter=FixedCostMeter(),
        **knobs,
    )
    return job, split_records(records, num_splits=4)


def _outcome(executor, job, splits, faults=None):
    """``(summary, result)`` of one run: the summary is the sorted
    output and counters, or what the run raised; ``result`` is the
    ``JobResult`` (``None`` when the run raised)."""
    policy = None if faults is None else ScriptedFaults(faults=faults)
    runner = LocalJobRunner(executor=executor, fault_policy=policy)
    try:
        result = runner.run(job, splits)
    except TaskFailedError as exc:
        summary = ("failed", exc.task_id, exc.attempts, repr(exc.cause))
        return summary, None
    except Exception as exc:
        return ("raised", repr(exc)), None
    summary = ("ok", result.sorted_output(), result.counters.as_dict())
    return summary, result


def _pool_outcome(job, splits, faults=None, workers=2):
    """Run on a job-owned pool; assert every worker died with it."""
    before = set(multiprocessing.active_children())
    with ParallelExecutor(max_workers=workers) as pool:
        summary, result = _outcome(pool, job, splits, faults)
    assert set(multiprocessing.active_children()) <= before
    return summary, result


class TestPoolLifecycle:
    def test_success_matches_serial(self) -> None:
        job, splits = _job_and_splits()
        pooled, _ = _pool_outcome(job, splits)
        assert pooled[0] == "ok"
        assert pooled == _outcome(SerialExecutor(), job, splits)[0]

    def test_task_failure_matches_serial(self) -> None:
        job, splits = _job_and_splits(max_task_attempts=1)
        faults = {"reduce0": ["fail"]}
        pooled, _ = _pool_outcome(job, splits, faults)
        assert pooled[0] == "raised"
        assert pooled == _outcome(SerialExecutor(), job, splits, faults)[0]

    def test_exhausted_retries_match_serial(self) -> None:
        job, splits = _job_and_splits(max_task_attempts=2)
        faults = {"reduce1": ["fail", "fail"]}
        pooled, _ = _pool_outcome(job, splits, faults)
        assert pooled[:3] == ("failed", "reduce1", 2)
        assert pooled == _outcome(SerialExecutor(), job, splits, faults)[0]

    def test_worker_crash_rebuild_matches_serial(self) -> None:
        job, splits = _job_and_splits(max_task_attempts=2)
        pooled, result = _pool_outcome(job, splits, {"map0": ["crash"]})
        assert result is not None and result.events.worker_crashes()
        assert pooled == _outcome(SerialExecutor(), job, splits)[0]

    def test_reduce_timeout_matches_serial(self) -> None:
        job, splits = _job_and_splits(
            max_task_attempts=2, task_timeout_seconds=0.3
        )
        pooled, result = _pool_outcome(
            job, splits, {"reduce0": [("hang", 1.5)]}
        )
        assert result is not None and result.events.timeouts()
        assert pooled == _outcome(SerialExecutor(), job, splits)[0]

    def test_hung_map_attempt_outlives_its_job(self) -> None:
        """A map attempt abandoned by the task timeout keeps running on
        a caller-owned pool after its job has returned.  Its result is
        never folded — neither into its own job nor into the next job
        on the same pool — and ``close()`` stops the hung worker
        promptly instead of waiting the hang out."""
        job, splits = _job_and_splits(
            max_task_attempts=3, task_timeout_seconds=0.3
        )
        serial, _ = _outcome(SerialExecutor(), job, splits)
        before = set(multiprocessing.active_children())
        pool = ParallelExecutor(3)
        try:
            first, result = _outcome(
                pool, job, splits, {"map0": [("hang", 60.0)]}
            )
            assert result is not None
            assert "map0" in {e.task_id for e in result.events.timeouts()}
            finishes = [
                e.attempt
                for e in result.events.for_task("map0")
                if e.event == "finish"
            ]
            assert len(finishes) == 1 and finishes[0] > 1
            second, _ = _outcome(pool, job, splits)
        finally:
            started = time.monotonic()
            pool.close()
            closed_in = time.monotonic() - started
        assert closed_in < 5.0
        assert set(multiprocessing.active_children()) <= before
        assert first == serial
        assert second == serial


def _running(pid: int) -> bool:
    """Whether ``pid`` names a live process (a zombie is dead)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.skipif(
    not os.path.exists("/proc/self/stat"), reason="needs Linux /proc"
)
def test_workers_exit_when_their_parent_is_killed() -> None:
    """SIGKILL leaves no pool worker behind, even one forked by a
    thread that has since exited (where PR_SET_PDEATHSIG would have
    fired too early)."""
    code = (
        "import multiprocessing, os, threading, time\n"
        "from repro.mr.executor import ParallelExecutor\n"
        "pool = ParallelExecutor(2)\n"
        "forker = threading.Thread(target=lambda: pool.submit(int).result())\n"
        "forker.start(); forker.join()\n"
        "print(*(p.pid for p in multiprocessing.active_children()), flush=True)\n"
        "time.sleep(60)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", code],
        stdout=subprocess.PIPE,
        text=True,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        env=env,
    )
    try:
        workers = [int(pid) for pid in proc.stdout.readline().split()]
        assert len(workers) == 2
        assert all(map(_running, workers))  # the forking thread is gone
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    deadline = time.monotonic() + 2.0
    while any(map(_running, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(_running, workers))


def test_no_resource_tracker_warnings() -> None:
    """A pool run under ``-W error::ResourceWarning`` exits cleanly,
    with no ResourceWarning and no resource-tracker chatter on stderr."""
    code = (
        "from repro.datagen.qlog import generate_query_log\n"
        "from repro.mr.split import split_records\n"
        "from repro.mr.engine import LocalJobRunner\n"
        "from repro.mr.executor import ParallelExecutor\n"
        "from repro.workloads.query_suggestion import query_suggestion_job\n"
        "records = generate_query_log(120, seed=3)\n"
        "splits = split_records(records, num_splits=4)\n"
        "job = query_suggestion_job(num_reducers=2)\n"
        "with ParallelExecutor(max_workers=2) as pool:\n"
        "    LocalJobRunner(executor=pool).run(job, splits)\n"
        "print('done')\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-W", "error::ResourceWarning", "-c", code],
        capture_output=True,
        text=True,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "done" in proc.stdout
    assert "resource_tracker" not in proc.stderr, proc.stderr
    assert "ResourceWarning" not in proc.stderr, proc.stderr


# -- fused dispatch ---------------------------------------------------------


_MARKER_VALUE = 17


def _fused_square(value: int) -> int:
    return value * value


def _fused_maybe_fail(value: int) -> int:
    if value == _MARKER_VALUE:
        raise ValueError("scripted task failure")
    return value + 1


def _crash_unless_marker(marker: str, sibling: str, value: int) -> int:
    """Crash the hosting worker once per marker file, then run clean.

    A dying worker breaks the pool, which kills the other workers
    wherever they are — so before dying, wait (bounded) for the
    ``sibling`` marker: both crashes then happen for certain, whichever
    worker the pool notices first.
    """
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        deadline = time.monotonic() + 10.0
        while not os.path.exists(sibling) and time.monotonic() < deadline:
            time.sleep(0.005)
        os._exit(13)
    return value * 10


class TestFusedDispatch:
    def test_results_in_submission_order(self) -> None:
        with ParallelExecutor(max_workers=2) as pool:
            futures = pool.submit_many(
                _fused_square, [(i,) for i in range(7)]
            )
            assert [f.result() for f in futures] == [
                i * i for i in range(7)
            ]

    def test_task_failure_stays_in_its_slice(self) -> None:
        with ParallelExecutor(max_workers=1) as pool:
            # One worker → one fused chunk: the failure must not
            # poison its chunk-mates.
            futures = pool.submit_many(
                _fused_maybe_fail, [(1,), (_MARKER_VALUE,), (3,)]
            )
            assert futures[0].result() == 2
            with pytest.raises(ValueError):
                futures[1].result()
            assert futures[2].result() == 4

    def test_slice_cancel_always_fails(self) -> None:
        with ParallelExecutor(max_workers=1) as pool:
            futures = pool.submit_many(_fused_square, [(1,), (2,)])
            assert futures[0].cancel() is False
            [f.result() for f in futures]

    def test_chunk_crash_surfaces_worker_crash_and_rebuilds(
        self, tmp_path
    ) -> None:
        with ParallelExecutor(max_workers=2) as pool:
            markers = [str(tmp_path / "a"), str(tmp_path / "b")]
            # Two chunks of two; each chunk's first task kills its
            # worker, losing the chunk-mate with it.
            argsets = [
                (markers[0], markers[1], 0),
                (markers[0], markers[1], 1),
                (markers[1], markers[0], 2),
                (markers[1], markers[0], 3),
            ]
            futures = pool.submit_many(_crash_unless_marker, argsets)
            crashed = 0
            for future in futures:
                try:
                    future.result()
                except WorkerCrashError:
                    crashed += 1
            assert crashed == len(futures)
            assert pool.rebuild()
            retry = pool.submit_many(_crash_unless_marker, argsets)
            assert [f.result() for f in retry] == [0, 10, 20, 30]

    def test_serial_submit_many_matches_submit(self) -> None:
        pool = SerialExecutor()
        futures = pool.submit_many(_fused_square, [(2,), (3,)])
        assert [f.result() for f in futures] == [4, 9]
