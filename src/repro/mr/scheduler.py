"""The job scheduler: map wave → shuffle → reduce wave, with retries.

This is the layer between the :class:`~repro.mr.engine.LocalJobRunner`
facade and the :mod:`~repro.mr.executor` backends.  It builds the
task graph of one job (one map task per split, one reduce task per
partition, a shuffle barrier in between), submits task attempts
through the executor, retries failed attempts up to
``JobConf.max_task_attempts`` under a pluggable :class:`FaultPolicy`,
and assembles the :class:`~repro.mr.engine.JobResult` — including the
structured :class:`~repro.mr.events.EventLog` of every attempt.

Determinism contract: byte and record counters of the assembled result
are *identical* across executors and fault schedules.  Results are
collected and folded in task-index order regardless of completion
order, failed attempts' counters are discarded wholesale, and the
shuffle plan is a pure function of the map results.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.mr import counters as C
from repro.mr import events as E
from repro.mr import shm
from repro.mr.config import JobConf
from repro.mr.counters import Counters
from repro.mr.events import EventLog, TaskEvent
from repro.mr.executor import (
    Executor,
    SerialExecutor,
    TaskFuture,
    WorkerCrashError,
    check_picklable,
)
from repro.mr.maptask import MapTask, MapTaskResult
from repro.mr.reducetask import ReduceTask, ReduceTaskResult
from repro.mr.runtime_model import TaskCost
from repro.mr.segment import SegmentPayload
from repro.mr.split import SizedSplit
from repro.obs.metrics import MetricsRegistry, record_job_metrics
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    SpanRecord,
    Tracer,
    activated,
)

Record = tuple[Any, Any]


#: Seconds between polls of in-flight futures when nothing is ready.
_POLL_TICK = 0.002


class InjectedTaskFailure(RuntimeError):
    """A task attempt killed by the fault policy (simulated crash)."""


class TaskAttemptFailure(RuntimeError):
    """Internal envelope for a failed attempt's measurements.

    Wraps the attempt's real exception together with the CPU seconds
    the attempt burned before dying and any phase spans it recorded —
    so retries show their wasted work in the event log and the trace.
    Constructed with exactly its ``args`` so it pickles across the
    process executor's boundary; the scheduler unwraps it and never
    lets it escape to callers.
    """

    def __init__(
        self,
        cause: BaseException,
        cpu_seconds: float = 0.0,
        spans: list[SpanRecord] | None = None,
    ):
        super().__init__(cause, cpu_seconds, spans)
        self.cause = cause
        self.cpu_seconds = cpu_seconds
        self.spans = spans if spans is not None else []


def _unwrap_failure(
    exc: BaseException,
) -> tuple[BaseException, float, list[SpanRecord]]:
    """The real exception, wasted CPU seconds and spans of a failure."""
    if isinstance(exc, TaskAttemptFailure):
        return exc.cause, exc.cpu_seconds, exc.spans
    return exc, 0.0, []


class TaskFailedError(RuntimeError):
    """A task exhausted its attempts; the job fails."""

    def __init__(self, task_id: str, attempts: int, cause: BaseException):
        super().__init__(
            f"task {task_id} failed after {attempts} attempt(s): {cause!r}"
        )
        self.task_id = task_id
        self.attempts = attempts
        self.cause = cause


class TaskTimeoutError(RuntimeError):
    """A task attempt exceeded ``JobConf.task_timeout_seconds``."""

    def __init__(self, task_id: str, attempt: int, timeout_seconds: float):
        super().__init__(
            f"task {task_id} attempt {attempt} exceeded the "
            f"{timeout_seconds}s task timeout"
        )
        self.task_id = task_id
        self.attempt = attempt
        self.timeout_seconds = timeout_seconds


# -- fault injection --------------------------------------------------------

#: Fault kinds a :class:`FaultPolicy` can inject into an attempt.
FAULT_FAIL = "fail"  # raise InjectedTaskFailure (a task failure)
FAULT_CRASH = "crash"  # kill the worker process via os._exit
FAULT_HANG = "hang"  # sleep long enough to trip the task timeout
FAULT_SLOW = "slow"  # sleep briefly, then run (a straggler)
FAULT_KINDS = (FAULT_FAIL, FAULT_CRASH, FAULT_HANG, FAULT_SLOW)

#: Default sleep, per fault kind, when a script gives a bare kind name.
FAULT_DELAY_DEFAULTS = {
    FAULT_FAIL: 0.0,
    FAULT_CRASH: 0.0,
    FAULT_HANG: 30.0,
    FAULT_SLOW: 0.25,
}

#: A scripted fault: ``(kind, seconds)``.  A plain tuple so it crosses
#: the process-executor boundary as cheaply as the rest of the attempt
#: arguments.
FaultSpec = tuple


class FaultPolicy:
    """Decides which task attempts to sabotage (before they run).

    The base policy injects no faults.  The policy is consulted in the
    scheduling process; the sabotage itself happens inside the worker
    (the attempt raises, dies, or sleeps), so the full cross-executor
    failure path — pickled exceptions, broken pools, abandoned futures
    — is exercised for real.

    Policies may override either :meth:`should_fail` (legacy: plain
    task failures only) or :meth:`fault_for` (full fault-kind control).
    """

    def should_fail(self, kind: str, task_id: str, attempt: int) -> bool:
        return False

    def fault_for(
        self, kind: str, task_id: str, attempt: int
    ) -> FaultSpec | None:
        """The fault to inject into this attempt, or ``None`` to run it
        clean.  The default consults :meth:`should_fail`."""
        if self.should_fail(kind, task_id, attempt):
            return (FAULT_FAIL, 0.0)
        return None


class NoFaults(FaultPolicy):
    """The default: every attempt runs."""


class ScriptedFaults(FaultPolicy):
    """Deterministic fault injection for tests.

    ``fail_first`` maps a task id to the number of its leading attempts
    to kill: ``{"map0": 1}`` kills ``map0``'s first attempt only, so
    attempt 2 succeeds.

    ``faults`` scripts arbitrary fault kinds per attempt: it maps a
    task id to a sequence whose n-th entry is the fault for attempt n —
    a kind name (``"crash"``, ``"hang"``, ``"slow"``, ``"fail"``), a
    ``(kind, seconds)`` tuple for the sleeping kinds, or ``None`` for a
    clean attempt.  Attempts beyond the sequence run clean, so
    ``{"map0": ["crash"]}`` crashes the worker running ``map0``'s first
    attempt and lets attempt 2 succeed.

    Every injected fault is recorded in :attr:`injected` as
    ``(task_id, attempt, kind)``, in injection order.
    """

    def __init__(
        self,
        fail_first: Mapping[str, int] | None = None,
        faults: Mapping[str, Sequence[Any]] | None = None,
    ):
        self._fail_first = dict(fail_first or {})
        self._faults: dict[str, list[FaultSpec | None]] = {}
        for task_id, script in (faults or {}).items():
            entries: list[FaultSpec | None] = []
            for raw in script:
                if raw is None:
                    entries.append(None)
                    continue
                if isinstance(raw, str):
                    fault_kind, seconds = raw, FAULT_DELAY_DEFAULTS.get(raw)
                else:
                    fault_kind, seconds = raw[0], float(raw[1])
                if fault_kind not in FAULT_KINDS:
                    known = ", ".join(FAULT_KINDS)
                    raise ValueError(
                        f"unknown fault kind {fault_kind!r}; known: {known}"
                    )
                entries.append((fault_kind, seconds))
            self._faults[task_id] = entries
        self.injected: list[tuple[str, int, str]] = []

    def fault_for(
        self, kind: str, task_id: str, attempt: int
    ) -> FaultSpec | None:
        spec: FaultSpec | None = None
        script = self._faults.get(task_id)
        if script is not None:
            if attempt <= len(script):
                spec = script[attempt - 1]
        elif attempt <= self._fail_first.get(task_id, 0):
            spec = (FAULT_FAIL, 0.0)
        if spec is not None:
            self.injected.append((task_id, attempt, spec[0]))
        return spec


# -- task attempt bodies (module-level: they must pickle) ------------------
#
# When tracing is requested the body activates a task-local tracer (in
# the worker process, when attempts run on a pool) so the task phases
# and the Shared structure can record spans; the finished spans travel
# back attached to the picklable result — like the segment payloads —
# and the scheduler re-bases them onto the job timeline.  On failure
# the partial counters and spans ride back inside TaskAttemptFailure.
#
# On the process pool, attempt arguments and results cross the boundary
# as pickle-protocol-5 envelopes with segment payload bytes carried as
# out-of-band buffers (see executor.dumps_oob): map results returning
# here and the shuffle plan's payload lists submitted to reduce
# attempts are never re-embedded in a nested pickle stream.


def _execute_fault(fault: FaultSpec | None, task_id: str) -> None:
    """Carry out an injected fault inside the attempt body.

    * ``fail`` raises :class:`InjectedTaskFailure` — an ordinary task
      failure.
    * ``crash`` kills the hosting worker process with ``os._exit`` (no
      cleanup, no exception — exactly like a segfault or the OOM
      killer), which breaks the whole pool.  Under the serial executor
      there is no worker to kill, so the crash surfaces as the
      :class:`~repro.mr.executor.WorkerCrashError` the broken pool
      would have produced — the scheduler's recovery path is identical
      either way.
    * ``hang`` / ``slow`` sleep for the scripted seconds and then run
      the attempt normally: a hang is meant to outlive the task
      timeout, a slow attempt to trail its wave and trigger
      speculation.
    """
    if fault is None:
        return
    fault_kind, seconds = fault
    if fault_kind == FAULT_CRASH:
        import multiprocessing

        if multiprocessing.parent_process() is not None:
            os._exit(13)
        raise WorkerCrashError(
            f"injected worker crash running {task_id} (serial executor)"
        )
    if fault_kind in (FAULT_HANG, FAULT_SLOW):
        time.sleep(seconds)
        return
    raise InjectedTaskFailure(f"injected fault: {task_id}")


def _run_map_attempt(
    job: JobConf,
    task_id: str,
    split: list[Record],
    fault: FaultSpec | None,
    trace: bool = False,
    shm_prefix: str | None = None,
) -> MapTaskResult:
    _execute_fault(fault, task_id)
    counters = Counters()
    tracer = Tracer() if trace else NULL_TRACER
    try:
        with activated(tracer):
            result = MapTask(job, task_id).run(split, counters=counters)
    except Exception as exc:
        raise TaskAttemptFailure(
            exc, counters.total_cpu_seconds(), tracer.records()
        ) from exc
    result.spans = tracer.records()
    if shm_prefix is not None:
        # Shared-memory shuffle plane: publish the finished segments
        # into one block and return descriptors instead of bytes.  The
        # publish is transport-only (it copies the already-charged
        # payload bytes), so counters are untouched; a failed publish
        # keeps the inline payloads — the automatic pickle-5 fallback.
        published = shm.publish_segments(shm_prefix, result.segments)
        if published is not None:
            result.segments = published
    return result


def _run_reduce_attempt(
    job: JobConf,
    partition: int,
    payloads: list[SegmentPayload],
    fault: FaultSpec | None,
    trace: bool = False,
    keep_encoding: bool = False,
) -> ReduceTaskResult:
    _execute_fault(fault, f"reduce{partition}")
    counters = Counters()
    tracer = Tracer() if trace else NULL_TRACER
    try:
        with activated(tracer):
            result = ReduceTask(job, partition).run(
                payloads, counters=counters, keep_encoding=keep_encoding
            )
    except Exception as exc:
        raise TaskAttemptFailure(
            exc, counters.total_cpu_seconds(), tracer.records()
        ) from exc
    finally:
        # Close this attempt's shared-memory attachments: the decoded
        # output holds no views, and the worker must not accumulate
        # mappings across the attempts it hosts.  No-op off the plane.
        shm.release_attachments()
    result.spans = tracer.records()
    return result


@dataclass(frozen=True)
class RetryPolicy:
    """The fault-tolerance envelope one wave runs under.

    Assembled by :meth:`JobScheduler.execute` from the job's knobs (and
    the scheduler's ``max_attempts`` override); pure data so tests can
    drive :meth:`JobScheduler._run_wave` directly.
    """

    max_attempts: int = 1
    task_timeout_seconds: float | None = None
    retry_backoff_seconds: float = 0.0
    speculative_execution: bool = False
    speculative_quantile: float = 0.75
    speculative_slack: float = 2.0

    def backoff_delay(self, failures: int) -> float:
        """Seconds to wait before the retry following the given number
        of charged failures of one task: base × 2^(failures-1).
        Deterministic — no jitter; tests inject the clock."""
        if self.retry_backoff_seconds <= 0 or failures < 1:
            return 0.0
        return self.retry_backoff_seconds * (2.0 ** (failures - 1))


class _Attempt:
    """One in-flight task attempt (scheduler-side bookkeeping)."""

    __slots__ = ("index", "number", "future", "started_at", "speculative")

    def __init__(
        self,
        index: int,
        number: int,
        future: TaskFuture,
        started_at: float,
        speculative: bool = False,
    ):
        self.index = index
        self.number = number
        self.future = future
        self.started_at = started_at
        self.speculative = speculative


class JobScheduler:
    """Executes one job's task graph on an :class:`Executor`."""

    def __init__(
        self,
        executor: Executor | None = None,
        fault_policy: FaultPolicy | None = None,
        max_attempts: int | None = None,
        tracer: Tracer | NullTracer | None = None,
        clock: Callable[[], float] | None = None,
        sleep: Callable[[float], None] | None = None,
    ):
        self._executor = executor if executor is not None else SerialExecutor()
        self._policy = fault_policy if fault_policy is not None else NoFaults()
        self._max_attempts = max_attempts
        self._tracer = tracer if tracer is not None else NULL_TRACER
        # Injectable time sources: tests drive timeouts, backoff and
        # speculation deterministically with a fake clock/sleep pair.
        self._clock = clock if clock is not None else time.monotonic
        self._sleep = sleep if sleep is not None else time.sleep

    # -- wave execution ----------------------------------------------------
    def _run_wave(
        self,
        kind: str,
        task_ids: Sequence[str],
        fn: Callable[..., Any],
        args_for: Callable[[int, Any], tuple],
        policy: RetryPolicy,
        events: EventLog,
        clock: Callable[[], float],
        fused: bool = False,
        on_result: Callable[[int, Any], None] | None = None,
        on_discard: Callable[[Any], None] | None = None,
    ) -> list[Any]:
        """Run one wave of tasks under the full fault-tolerance envelope.

        An event loop over in-flight attempts: launch what is ready
        (first attempts immediately, retries after their backoff),
        collect completions as they land, classify failures (task vs
        infrastructure), abandon attempts that outlive the task
        timeout, and race speculative backups against stragglers.
        Results are returned in task order, independent of completion
        order, and exactly one successful attempt per task is folded —
        the counter-determinism contract.

        On a terminal failure the remaining in-flight attempts are
        drained first (their FINISH/FAIL events and spans are recorded)
        so the event log stays complete for post-mortem analysis.

        Every attempt goes through :meth:`Executor.submit_many`;
        ``fused`` amortizes dispatch by submitting the attempts that
        become ready in the same tick as one group (the pool executor
        chunks it into a few fused envelopes) instead of one by one.
        ``on_result`` observes each task's winning result as it is
        folded; ``on_discard`` observes completed results that are
        thrown away (a speculative loser finishing after the winner) —
        the shared-memory arena uses the pair to drive block leases.
        """
        tracer = self._tracer
        total = len(task_ids)
        results: list[Any] = [None] * total
        done: set[int] = set()
        #: Next attempt number per task (monotonic; speculative backups
        #: consume numbers too).
        next_attempt = [1] * total
        #: Charged failures per task (fail/timeout/crash — not KILLED);
        #: a task is terminal at ``policy.max_attempts`` charges.
        charged = [0] * total
        #: Live (in-flight) attempts per task.
        live = [0] * total
        speculated = [False] * total
        running: list[_Attempt] = []
        #: Attempts ready to launch, as ``(not_before, index)`` pairs.
        ready: list[tuple[float, int]] = [(0.0, i) for i in range(total)]
        #: Wall seconds of successful attempts (speculation baseline).
        durations: list[float] = []
        terminal: BaseException | None = None

        def log(
            event: str, index: int, number: int, t: float, **fields: Any
        ) -> None:
            events.append(
                TaskEvent(
                    task_id=task_ids[index],
                    kind=kind,
                    event=event,
                    attempt=number,
                    t_seconds=t,
                    **fields,
                )
            )

        def launch(indices: Sequence[int], speculative: bool = False) -> None:
            """Start one attempt per index — a START each, in order,
            before anything runs — through one ``submit_many``.

            A broken pool rejects submissions synchronously and
            ``submit_many`` returns that as an already-failed future:
            the attempt is charged and retried like any other crash
            casualty, and the pool is rebuilt before the retry.
            """
            pending: list[tuple[int, int, float]] = []
            argsets: list[tuple] = []
            for index in indices:
                number = next_attempt[index]
                next_attempt[index] = number + 1
                fault = self._policy.fault_for(kind, task_ids[index], number)
                started = clock()
                log(E.START, index, number, started, speculative=speculative)
                argsets.append(args_for(index, fault))
                pending.append((index, number, started))
            futures = self._executor.submit_many(fn, argsets)
            for (index, number, started), future in zip(pending, futures):
                live[index] += 1
                running.append(
                    _Attempt(index, number, future, started, speculative)
                )

        def charge_and_reschedule(att: _Attempt, cause: BaseException) -> None:
            """Charge a failed/timed-out attempt; queue a retry or go
            terminal.  The attempt must already be off the live books."""
            nonlocal terminal
            index = att.index
            charged[index] += 1
            if terminal is not None or index in done:
                return
            if live[index] > 0:
                # A sibling attempt (a speculative backup, or the
                # original it was backing up) is still racing for this
                # task; its outcome decides whether a retry is needed.
                return
            if charged[index] >= policy.max_attempts:
                if policy.max_attempts == 1:
                    # Fail-fast configuration: propagate the task's own
                    # exception unchanged (the historical behaviour).
                    terminal = cause
                else:
                    failure = TaskFailedError(
                        task_ids[index], charged[index], cause
                    )
                    failure.__cause__ = cause
                    terminal = failure
            else:
                # Queue the retry behind its exponential backoff.
                ready.append(
                    (clock() + policy.backoff_delay(charged[index]), index)
                )

        def land(
            att: _Attempt, lost_race: bool = False
        ) -> tuple[Any, BaseException | None, float]:
            """Wait for one attempt and write its end into the event log
            and the trace: FINISH or FAIL with the attempt's spans, or a
            bare KILLED for the loser of a speculative race (its result
            is discarded wholesale).  Shared by the live loop and the
            terminal drain.  Returns ``(result, error, t_seconds)``.
            """
            result = error = None
            try:
                result = att.future.result()
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as raised:
                error, wasted_cpu, spans = _unwrap_failure(raised)
            now = clock()
            trace_attrs = {"task": task_ids[att.index], "attempt": att.number}
            if lost_race:
                log(E.KILLED, att.index, att.number, now)
            elif error is not None:
                log(
                    E.FAIL,
                    att.index,
                    att.number,
                    now,
                    cpu_seconds=wasted_cpu,
                    error=f"{type(error).__name__}: {error}",
                )
                # Failed-attempt spans stay in the trace, re-based to
                # the attempt's start and marked as wasted work.
                tracer.extend(
                    spans, offset=att.started_at, failed=True, **trace_attrs
                )
            else:
                log(
                    E.FINISH,
                    att.index,
                    att.number,
                    now,
                    cpu_seconds=result.cpu_seconds,
                    output_bytes=(
                        result.output_bytes
                        if kind == E.MAP
                        else result.shuffle_bytes
                    ),
                )
                tracer.extend(
                    result.spans, offset=att.started_at, **trace_attrs
                )
            return result, error, now

        def collect(att: _Attempt) -> bool:
            """Fold one completed attempt; True if the pool crashed."""
            index = att.index
            live[index] -= 1
            # A speculative loser landing after the winner lost the race
            # whether it failed or finished.
            lost_race = index in done
            result, error, finished_at = land(att, lost_race)
            if lost_race:
                if error is None and on_discard is not None:
                    on_discard(result)
                return False
            if error is not None:
                charge_and_reschedule(att, error)
                return isinstance(error, WorkerCrashError)
            done.add(index)
            results[index] = result
            durations.append(finished_at - att.started_at)
            if on_result is not None:
                on_result(index, result)
            return False

        def kill_siblings(of: _Attempt) -> None:
            """Kill still-running attempts of a task that just won."""
            for sibling in [
                a for a in running if a.index == of.index and a is not of
            ]:
                running.remove(sibling)
                live[sibling.index] -= 1
                if not sibling.future.cancel():
                    self._executor.abandon(sibling.future)
                log(E.KILLED, sibling.index, sibling.number, clock())

        wave_span = tracer.span(
            f"wave.{kind}", category="scheduler", wave=0, tasks=total
        )
        wave_span.__enter__()
        try:
            while len(done) < total:
                progressed = False

                # 1) Launch everything whose backoff has expired: one
                #    group when dispatch is fused, else a group of one
                #    per attempt (inline executors run an attempt as it
                #    is submitted, between its own START and the next).
                now = clock()
                waiting: list[tuple[float, int]] = []
                due: list[int] = []
                for not_before, index in ready:
                    if index in done:
                        continue
                    if now < not_before:
                        waiting.append((not_before, index))
                    else:
                        due.append(index)
                ready[:] = waiting
                if due:
                    progressed = True
                    for group in [due] if fused else [[i] for i in due]:
                        launch(group)

                # 2) Collect completed attempts (in submission order).
                completed: list[_Attempt] = []
                still: list[_Attempt] = []
                for att in running:
                    (completed if att.future.done() else still).append(att)
                running[:] = still
                crashed = False
                for att in completed:
                    progressed = True
                    was_won_before = att.index in done
                    crashed = collect(att) or crashed
                    if att.index in done and not was_won_before:
                        kill_siblings(att)

                # 3) Worker crash: every attempt still in flight went
                #    down with the pool.  Charge them as retries, then
                #    rebuild the pool so the next launches land on
                #    fresh workers.
                if crashed:
                    for att in running:
                        live[att.index] -= 1
                        log(
                            E.FAIL,
                            att.index,
                            att.number,
                            clock(),
                            error=f"{E.WORKER_CRASH_PREFIX}: attempt lost "
                            "in flight (worker pool broken)",
                        )
                        charge_and_reschedule(
                            att,
                            WorkerCrashError(
                                "attempt lost in flight (worker pool broken)"
                            ),
                        )
                    running.clear()
                    self._executor.rebuild()

                # 4) Abandon attempts that outlived the task timeout.
                if policy.task_timeout_seconds is not None:
                    now = clock()
                    overdue = [
                        att
                        for att in running
                        if now - att.started_at > policy.task_timeout_seconds
                    ]
                    for att in overdue:
                        progressed = True
                        running.remove(att)
                        live[att.index] -= 1
                        if not att.future.cancel():
                            # Already running somewhere: nothing can
                            # stop it, so its eventual result is
                            # abandoned (never folded).
                            self._executor.abandon(att.future)
                        log(E.TIMEOUT, att.index, att.number, now)
                        charge_and_reschedule(
                            att,
                            TaskTimeoutError(
                                task_ids[att.index],
                                att.number,
                                policy.task_timeout_seconds,
                            ),
                        )

                # 5) Race speculative backups against stragglers once
                #    enough of the wave has finished to know what a
                #    typical task costs.
                if (
                    policy.speculative_execution
                    and durations
                    and len(done) < total
                    and len(done) >= policy.speculative_quantile * total
                ):
                    threshold = policy.speculative_slack * statistics.median(
                        durations
                    )
                    now = clock()
                    for att in list(running):
                        if att.speculative or speculated[att.index]:
                            continue
                        if now - att.started_at > threshold:
                            speculated[att.index] = True
                            launch([att.index], speculative=True)
                            progressed = True

                # 6) Terminal failure: block on what is still in flight
                #    so no START is left without an end — post-mortem
                #    analysis needs the siblings of the failing task
                #    most — then propagate.  The completed log rides on
                #    the exception (``.events``).
                if terminal is not None:
                    for att in running:
                        land(att)
                    running.clear()
                    try:
                        terminal.events = events
                    except Exception:
                        pass
                    raise terminal

                if len(done) >= total or progressed:
                    continue

                # 7) Idle: wait for the earliest wake-up — a retry's
                #    backoff deadline, or the poll tick while attempts
                #    are in flight.
                delay = _POLL_TICK
                if not running and ready:
                    now = clock()
                    delay = max(
                        0.0, min(nb for nb, _ in ready) - now
                    )
                self._sleep(delay)
        finally:
            wave_span.__exit__(None, None, None)
        return results

    # -- the job -----------------------------------------------------------
    def execute(
        self, job: JobConf, splits: Sequence[Iterable[Record]]
    ) -> "Any":
        """Run ``job`` over ``splits``; returns a JobResult."""
        max_attempts = (
            self._max_attempts
            if self._max_attempts is not None
            else job.max_task_attempts
        )
        if max_attempts < 1:
            raise ValueError("max_task_attempts must be >= 1")
        policy = RetryPolicy(
            max_attempts=max_attempts,
            task_timeout_seconds=job.task_timeout_seconds,
            retry_backoff_seconds=job.retry_backoff_seconds,
            speculative_execution=job.speculative_execution,
            speculative_quantile=job.speculative_quantile,
            speculative_slack=job.speculative_slack,
        )
        if self._executor.requires_pickling:
            check_picklable(job)

        # Materialise the splits: retries (and worker processes) need
        # re-iterable inputs, so one-shot iterables are drained once.
        split_lists = [
            split if isinstance(split, list) else list(split)
            for split in splits
        ]

        events = EventLog()
        start = self._clock()

        def clock() -> float:
            return self._clock() - start

        tracer = self._tracer
        # Scheduler-side spans and re-based task spans share the event
        # log's clock: seconds since job start, one timeline.
        tracer.sync(clock)
        trace = tracer.enabled

        # The shuffle transport is the executor's: where results cross
        # a process boundary it hands out an arena, map attempts publish
        # their segment bytes into its blocks and ship descriptors, the
        # arena's ref-counted leases unlink each block as its last
        # consuming reduce task folds, and `close()` (run on *every*
        # exit path) unlinks stragglers and sweeps the job prefix.
        arena = self._executor.open_arena()
        # Dispatch amortization, where a submission costs a pickle and
        # a pipe round trip.  Scripted-fault runs keep per-attempt
        # dispatch: a fused chunk dies as a unit when its worker
        # crashes, which would spread one injected fault's casualties
        # onto innocent chunk-mates' event logs.
        fused = self._executor.requires_pickling and isinstance(
            self._policy, NoFaults
        )
        try:
            return self._execute_waves(
                job, split_lists, policy, events, clock, trace, arena, fused
            )
        finally:
            if arena is not None:
                arena.close()

    def _execute_waves(
        self,
        job: JobConf,
        split_lists: list[list[Record]],
        policy: RetryPolicy,
        events: EventLog,
        clock: Callable[[], float],
        trace: bool,
        arena: "shm.SegmentArena | None",
        fused: bool,
    ) -> "Any":
        # Imported here: engine imports this module (facade → scheduler).
        from repro.mr.engine import JobResult

        tracer = self._tracer
        shm_prefix = arena.prefix if arena is not None else None

        # Map wave.
        map_ids = [f"map{index}" for index in range(len(split_lists))]
        map_results: list[MapTaskResult] = self._run_wave(
            E.MAP,
            map_ids,
            _run_map_attempt,
            lambda index, fault: (
                job,
                map_ids[index],
                split_lists[index],
                fault,
                trace,
                shm_prefix,
            ),
            policy,
            events,
            clock,
            fused=fused,
            on_result=(
                None
                if arena is None
                else lambda index, result: arena.adopt_segments(
                    result.segments
                )
            ),
            on_discard=(
                None
                if arena is None
                else lambda result: arena.discard_segments(result.segments)
            ),
        )
        map_costs = [
            TaskCost(
                task_id=result.task_id,
                cpu_seconds=result.cpu_seconds,
                disk_bytes=result.disk_read_bytes
                + result.disk_write_bytes
                + result.counters.get_int(C.HDFS_READ_BYTES)
                + result.counters.get_int(C.HDFS_WRITE_BYTES),
            )
            for result in map_results
        ]

        # Shuffle plan: segments for each partition, in map-task order.
        with tracer.span("shuffle.plan", category="scheduler"):
            shuffle_plan: list[list[SegmentPayload]] = [
                [
                    result.segments[partition]
                    for result in map_results
                    if partition in result.segments
                ]
                for partition in range(job.num_reducers)
            ]
        if arena is not None:
            # One lease per (block, consuming reduce task): a block is
            # unlinked the moment its last consumer's result folds.
            arena.lease_plan(shuffle_plan)

        # Reduce wave.  A job fed sized splits is a pipeline's: its
        # reduce tasks hand back the encoding that counts their output,
        # for the pipeline's store and the next job's splits.  Any other
        # job drops it, so neither the pool transport nor the result
        # carries the bytes twice.
        keep_encoding = all(
            isinstance(split, SizedSplit) for split in split_lists
        )
        reduce_ids = [
            f"reduce{partition}" for partition in range(job.num_reducers)
        ]
        reduce_results: list[ReduceTaskResult] = self._run_wave(
            E.REDUCE,
            reduce_ids,
            _run_reduce_attempt,
            lambda index, fault: (
                job,
                index,
                shuffle_plan[index],
                fault,
                trace,
                keep_encoding,
            ),
            policy,
            events,
            clock,
            fused=fused,
            on_result=(
                None
                if arena is None
                else lambda index, result: arena.release_plan_entry(
                    shuffle_plan[index]
                )
            ),
        )
        reduce_costs = [
            TaskCost(
                task_id=result.task_id,
                cpu_seconds=result.cpu_seconds,
                disk_bytes=result.counters.get_int(C.DISK_READ_BYTES)
                + result.counters.get_int(C.DISK_WRITE_BYTES)
                + result.counters.get_int(C.HDFS_READ_BYTES)
                + result.counters.get_int(C.HDFS_WRITE_BYTES),
                reexecutions=result.counters.get_int(
                    C.ANTI_REDUCE_MAP_REEXECUTIONS
                ),
            )
            for result in reduce_results
        ]

        # Fold counters in task order: map tasks, then reduce tasks,
        # then the shuffle's map-side serve reads.  The fold goes
        # *through* the metrics registry and the job totals are read
        # back out of it (`job_counters`), so the Prometheus dump and
        # the Counters surface are one ledger and can never disagree.
        # The registry performs the same per-name float additions in
        # the same order as the historical Counters.merge fold, so
        # totals stay byte-identical to the single-pass runner.
        metrics = MetricsRegistry()
        for result in map_results:
            metrics.merge_counters(result.counters)
        for result in reduce_results:
            metrics.merge_counters(result.counters)
        for result in reduce_results:
            metrics.merge_counters(result.serve_counters)
        totals = metrics.job_counters()
        shuffle_bytes = [r.shuffle_bytes for r in reduce_results]
        record_job_metrics(
            metrics,
            events,
            job.num_reducers,
            totals,
            shuffle_bytes,
            # Close before recording so the stats include the final
            # sweep; `close()` is idempotent — the scheduler's finally
            # (and any error path) still runs it.
            arena_stats=arena.close() if arena is not None else None,
        )

        return JobResult(
            job_name=job.name,
            outputs_by_partition={
                r.partition: r.output for r in reduce_results
            },
            output_encodings_by_partition={
                r.partition: r.output_encoding
                for r in reduce_results
                if r.output_encoding is not None
            },
            counters=totals,
            map_task_costs=map_costs,
            reduce_task_costs=reduce_costs,
            shuffle_bytes_per_reducer=shuffle_bytes,
            events=events,
            spans=tracer.records(),
            metrics=metrics,
        )
