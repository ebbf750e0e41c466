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
    — is exercised for real.  Policies override :meth:`fault_for`.
    """

    def fault_for(
        self, kind: str, task_id: str, attempt: int
    ) -> FaultSpec | None:
        """The fault to inject into this attempt, or ``None`` to run it
        clean."""
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
# Arguments and results cross a pool as pickle-5 envelopes whose
# segment payload bytes are out-of-band buffers (executor.dumps_oob).


def _run_attempt(
    task_id: str,
    fault: FaultSpec | None,
    trace: bool,
    run: Callable[[Counters], Any],
) -> Any:
    """Carry out the attempt's injected fault, then ``run`` its task.

    ``fail`` raises :class:`InjectedTaskFailure`, an ordinary task
    failure.  ``crash`` kills the hosting worker with ``os._exit`` (no
    cleanup, no exception — like a segfault or the OOM killer), which
    breaks the whole pool; under the serial executor, with no worker to
    kill, it raises the :class:`~repro.mr.executor.WorkerCrashError` a
    broken pool would have produced, so recovery takes the same path.
    ``hang`` / ``slow`` sleep for the scripted seconds, then run: a hang
    is meant to outlive the task timeout, a slow attempt to trail its
    wave and trigger speculation.
    """
    if fault is not None:
        fault_kind, seconds = fault
        if fault_kind == FAULT_CRASH:
            import multiprocessing

            if multiprocessing.parent_process() is not None:
                os._exit(13)
            raise WorkerCrashError(
                f"injected worker crash running {task_id} (serial executor)"
            )
        if fault_kind not in (FAULT_HANG, FAULT_SLOW):
            raise InjectedTaskFailure(f"injected fault: {task_id}")
        time.sleep(seconds)
    counters = Counters()
    tracer = Tracer() if trace else NULL_TRACER
    try:
        with activated(tracer):
            result = run(counters)
    except Exception as exc:
        raise TaskAttemptFailure(
            exc, counters.total_cpu_seconds(), tracer.records()
        ) from exc
    result.spans = tracer.records()
    return result


def _run_map_attempt(
    job: JobConf,
    task_id: str,
    split: list[Record],
    fault: FaultSpec | None,
    trace: bool = False,
) -> MapTaskResult:
    return _run_attempt(
        task_id,
        fault,
        trace,
        lambda counters: MapTask(job, task_id).run(split, counters=counters),
    )


def _run_reduce_attempt(
    job: JobConf,
    partition: int,
    payloads: list[SegmentPayload],
    fault: FaultSpec | None,
    trace: bool = False,
    keep_encoding: bool = False,
) -> ReduceTaskResult:
    return _run_attempt(
        f"reduce{partition}",
        fault,
        trace,
        lambda counters: ReduceTask(job, partition).run(
            payloads, counters=counters, keep_encoding=keep_encoding
        ),
    )


@dataclass(frozen=True)
class RetryPolicy:
    """The fault-tolerance envelope one wave runs under.

    Assembled by :meth:`JobScheduler.execute` from the job's knobs;
    pure data, so the wave policy's decisions below can be tested
    without a scheduler.
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


# -- the wave policy: decisions as pure functions of the folded EventLog ----


@dataclass
class TaskView:
    """One task's attempts in one wave, as its events fold them: STARTs,
    charges (FAILs plus TIMEOUTs; a KILLED is never charged), open
    STARTs, whether a START was a speculative backup, whether one
    FINISHed, and the last charge's ``t_seconds`` and log position."""

    started: int = 0
    charged: int = 0
    live: int = 0
    speculated: bool = False
    finished: bool = False
    charged_at: float = 0.0
    charge_seq: int = -1


class WaveView:
    """The per-task fold of one wave's ``events``, kept current by
    folding each later event as it is logged.  ``open`` maps each open
    attempt, ``(task index, attempt)``, to its START ``t_seconds`` in
    START order; ``durations`` are the successful attempts' wall seconds
    (``EventLog.wall_durations``), the speculation baseline."""

    def __init__(self, task_ids: Sequence[str], events: Iterable = ()):
        self.tasks = [TaskView() for _ in task_ids]
        self._index = {task_id: i for i, task_id in enumerate(task_ids)}
        self.open: dict[tuple[int, int], float] = {}
        self.durations: list[float] = []
        self.finished = self._seq = 0
        for event in events:
            self.fold(event)

    def fold(self, event: TaskEvent) -> None:
        self._seq += 1
        index = self._index.get(event.task_id)
        if index is None:
            return  # another wave's task
        task, key = self.tasks[index], (index, event.attempt)
        if event.event == E.START:
            task.started += 1
            task.live += 1
            task.speculated |= event.speculative
            self.open[key] = event.t_seconds
            return
        started_at = self.open.pop(key, None)
        if started_at is None:
            return  # an end whose START this fold never saw
        task.live -= 1
        if event.event == E.FINISH and not task.finished:
            task.finished = True
            self.finished += 1
            self.durations.append(event.t_seconds - started_at)
        elif event.event in (E.FAIL, E.TIMEOUT):
            task.charged += 1
            task.charged_at = event.t_seconds
            task.charge_seq = self._seq


def waiting_tasks(
    view: WaveView, policy: RetryPolicy
) -> list[tuple[int, int, float]]:
    """``(charge_seq, task index, retry due at)`` of each task waiting
    for its next attempt — unfinished, nothing in flight, attempts left
    — in the order they became ready: first attempts by index, then
    retries by charge.  A retry is due at its last charge plus the
    backoff."""
    backoff = policy.backoff_delay
    return sorted(
        (task.charge_seq, index, task.charged_at + backoff(task.charged))
        for index, task in enumerate(view.tasks)
        if not (task.finished or task.live)
        and task.charged < policy.max_attempts
    )


def due_launches(view: WaveView, now: float, policy: RetryPolicy) -> list[int]:
    """The waiting tasks whose backoff has expired, in ready order."""
    return [i for _, i, due_at in waiting_tasks(view, policy) if now >= due_at]


def overdue_attempts(
    view: WaveView, now: float, policy: RetryPolicy
) -> list[tuple[int, int]]:
    """Open attempts that outlived the task timeout, in START order."""
    timeout = policy.task_timeout_seconds
    if timeout is None:
        return []
    return [key for key, t in view.open.items() if now - t > timeout]


def backups_due(view: WaveView, now: float, policy: RetryPolicy) -> list[int]:
    """Tasks that get their one speculative backup now: once a
    ``speculative_quantile`` of the wave has finished, those with an
    attempt running longer than ``speculative_slack`` × the median
    successful duration, in START order."""
    total = len(view.tasks)
    if not (
        policy.speculative_execution
        and view.durations
        and policy.speculative_quantile * total <= view.finished < total
    ):
        return []
    threshold = policy.speculative_slack * statistics.median(view.durations)
    stragglers = [
        index
        for (index, _), t in view.open.items()
        if now - t > threshold and not view.tasks[index].speculated
    ]
    return list(dict.fromkeys(stragglers))


def terminal_task(view: WaveView, policy: RetryPolicy) -> int | None:
    """The task that fails the wave, if any: the first to be charged
    ``max_attempts`` times with nothing in flight and no FINISH."""
    spent = [
        (task.charge_seq, index)
        for index, task in enumerate(view.tasks)
        if task.charged >= policy.max_attempts
        and not (task.live or task.finished)
    ]
    return min(spent)[1] if spent else None


def idle_delay(view: WaveView, now: float, policy: RetryPolicy) -> float:
    """How long an idle tick sleeps: one poll tick while attempts are in
    flight, else until the earliest retry is due."""
    waiting = waiting_tasks(view, policy)
    if view.open or not waiting:
        return _POLL_TICK
    return max(0.0, min(due_at for *_, due_at in waiting) - now)


class JobScheduler:
    """Executes one job's task graph on an :class:`Executor`."""

    def __init__(
        self,
        executor: Executor | None = None,
        fault_policy: FaultPolicy | None = None,
        tracer: Tracer | NullTracer | None = None,
        clock: Callable[[], float] | None = None,
        sleep: Callable[[float], None] | None = None,
    ):
        self._executor = executor if executor is not None else SerialExecutor()
        self._policy = fault_policy if fault_policy is not None else NoFaults()
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
    ) -> list[Any]:
        """Run one wave of tasks under the full fault-tolerance envelope.

        Each tick applies the wave policy's decisions in a fixed order,
        as the numbered steps below.  Every event is folded into the
        wave's :class:`WaveView` as it is logged, so the loop keeps only
        what a log cannot hold: the futures and each task's last
        exception.  Results come back in task order, one successful
        attempt folded per task — the counter-determinism contract.
        ``fused`` submits the attempts due in one tick as one
        :meth:`Executor.submit_many` group (the pool chunks it into a
        few fused envelopes) instead of one by one.
        """
        total = len(task_ids)
        view = WaveView(task_ids)
        results: list[Any] = [None] * total
        #: In-flight futures by ``(task index, attempt)``, in submission
        #: order — the order of ``view.open``.
        futures: dict[tuple[int, int], TaskFuture] = {}
        #: Each task's last charged exception: a terminal verdict's cause.
        causes: dict[int, BaseException] = {}

        def log(event: str, key: tuple[int, int], t: float, **fields) -> None:
            index, number = key
            row = TaskEvent(task_ids[index], kind, event, number, t, **fields)
            events.append(row)
            view.fold(row)

        def fail(key: tuple[int, int], cause: BaseException, **fields) -> None:
            causes[key[0]] = cause
            message = f"{type(cause).__name__}: {cause}"
            log(E.FAIL, key, clock(), error=message, **fields)

        def launch(indices: Sequence[int], speculative: bool = False) -> None:
            """One START per index, in order, then one ``submit_many``.
            A broken pool's synchronous rejection comes back as a failed
            future, charged and retried like any crash casualty."""
            keys, argsets = [], []
            for index in indices:
                key = (index, view.tasks[index].started + 1)
                fault = self._policy.fault_for(kind, task_ids[index], key[1])
                log(E.START, key, clock(), speculative=speculative)
                keys.append(key)
                argsets.append(args_for(index, fault))
            futures.update(zip(keys, self._executor.submit_many(fn, argsets)))

        def land(key: tuple[int, int], future: TaskFuture) -> Any:
            """Wait for one attempt and log its end: FINISH (keeping the
            result) or FAIL, with its spans re-based into the trace, or
            a bare KILLED when its task already finished (a lost race).
            Returns a FAIL's exception."""
            index, number = key
            try:
                result, error = future.result(), None
            except TaskAttemptFailure as raised:
                error, wasted_cpu = raised.cause, raised.cpu_seconds
                spans = raised.spans
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as raised:
                error, wasted_cpu, spans = raised, 0.0, []
            attrs = {"task": task_ids[index], "attempt": number}
            attrs["offset"] = view.open[key]
            if view.tasks[index].finished:
                log(E.KILLED, key, clock())
            elif error is not None:
                fail(key, error, cpu_seconds=wasted_cpu)
                # A failed attempt's spans stay, marked as wasted work.
                self._tracer.extend(spans, failed=True, **attrs)
                return error
            else:
                if kind == E.MAP:
                    out = result.output_bytes
                else:
                    out = result.shuffle_bytes
                cpu = result.cpu_seconds
                log(E.FINISH, key, clock(), cpu_seconds=cpu, output_bytes=out)
                self._tracer.extend(result.spans, **attrs)
                results[index] = result
            return None

        def stop(key: tuple[int, int], event: str, t: float) -> None:
            """Cancel (or, once running, abandon) an attempt and end it."""
            future = futures.pop(key)
            if not future.cancel():
                self._executor.abandon(future)
            log(event, key, t)

        def drained_failure(index: int) -> BaseException:
            """End every attempt still in flight (post-mortem analysis
            needs the failing task's siblings most), waiting on none past
            its task timeout; then the wave's exception: the task's own
            when fail-fast, else :class:`TaskFailedError`."""
            timeout = policy.task_timeout_seconds
            for key, future in list(futures.items()):
                began = view.open[key]
                if timeout is not None:
                    while not future.done() and clock() - began <= timeout:
                        self._sleep(_POLL_TICK)
                    if not future.done():
                        stop(key, E.TIMEOUT, clock())
                        continue
                land(key, futures.pop(key))
            failure = cause = causes[index]
            if policy.max_attempts > 1:
                charged = view.tasks[index].charged
                failure = TaskFailedError(task_ids[index], charged, cause)
                failure.__cause__ = cause
            failure.events = events
            return failure

        with self._tracer.span(
            f"wave.{kind}", category="scheduler", wave=0, tasks=total
        ):
            while view.finished < total:
                # 1) Launch what is due: one group when dispatch is
                #    fused, else one per attempt (an inline executor runs
                #    each between its own START and the next).
                due = due_launches(view, clock(), policy)
                for group in [due] if fused and due else [[i] for i in due]:
                    launch(group)

                # 2) Collect completions in submission order; a FINISH
                #    kills its task's siblings still in flight.
                landed = [
                    (key, futures.pop(key))
                    for key in [k for k, f in futures.items() if f.done()]
                ]
                crashed = False
                for key, future in landed:
                    crashed |= isinstance(land(key, future), WorkerCrashError)
                    if view.tasks[key[0]].finished:
                        for sibling in [k for k in futures if k[0] == key[0]]:
                            stop(sibling, E.KILLED, clock())

                # 3) A worker crash took everything in flight down with
                #    it: charge it all, then rebuild the pool.
                if crashed:
                    for key in list(futures):
                        del futures[key]
                        lost = "attempt lost in flight (worker pool broken)"
                        fail(key, WorkerCrashError(lost))
                    self._executor.rebuild()

                # 4) Abandon attempts that outlived the task timeout.
                now = clock()
                overdue = overdue_attempts(view, now, policy)
                for index, number in overdue:
                    stop((index, number), E.TIMEOUT, now)
                    causes[index] = TaskTimeoutError(
                        task_ids[index], number, policy.task_timeout_seconds
                    )

                # 5) Race speculative backups against stragglers.
                backups = backups_due(view, clock(), policy)
                for index in backups:
                    launch([index], speculative=True)

                # 6) A terminal verdict: drain, then fail the wave.
                failed = terminal_task(view, policy)
                if failed is not None:
                    raise drained_failure(failed)

                # 7) Idle: sleep until the earliest wake-up.
                if not (due or landed or overdue or backups):
                    self._sleep(idle_delay(view, clock(), policy))
        return results

    # -- the job -----------------------------------------------------------
    def execute(
        self,
        job: JobConf,
        splits: Sequence[Iterable[Record]],
        keep_output_encoding: bool = False,
    ) -> "Any":
        """Run ``job`` over ``splits``; returns a JobResult.

        ``keep_output_encoding`` keeps each reduce task's encoding of its
        output on the result, for a pipeline's store and the next job's
        splits.  Any other job drops it, so neither the pool transport
        nor the result carries the bytes twice.
        """
        # Imported here: engine imports this module (facade → scheduler).
        from repro.mr.engine import JobResult

        policy = RetryPolicy(
            max_attempts=job.max_task_attempts,
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

        # Dispatch amortization, where a submission costs a pickle and
        # a pipe round trip.  Scripted-fault runs keep per-attempt
        # dispatch: a fused chunk dies as a unit when its worker
        # crashes, which would spread one injected fault's casualties
        # onto innocent chunk-mates' event logs.
        fused = self._executor.requires_pickling and isinstance(
            self._policy, NoFaults
        )

        def wave(kind: str, ids: list[str], fn: Callable, args_for) -> list:
            return self._run_wave(
                kind, ids, fn, args_for, policy, events, clock, fused
            )

        # Map wave.
        map_ids = [f"map{index}" for index in range(len(split_lists))]
        map_results: list[MapTaskResult] = wave(
            E.MAP,
            map_ids,
            _run_map_attempt,
            lambda i, fault: (job, map_ids[i], split_lists[i], fault, trace),
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
        # A split its finished attempt sized keeps the count, so a later
        # job over the same split charges it without encoding.
        for split, result in zip(split_lists, map_results):
            if isinstance(split, SizedSplit) and split.encoded_bytes is None:
                split.size(result.counters.get_int(C.MAP_INPUT_BYTES))

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

        # Reduce wave.
        reduce_results: list[ReduceTaskResult] = wave(
            E.REDUCE,
            [f"reduce{partition}" for partition in range(job.num_reducers)],
            _run_reduce_attempt,
            lambda i, fault: (
                job, i, shuffle_plan[i], fault, trace, keep_output_encoding
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
        record_job_metrics(metrics, events, totals, shuffle_bytes)

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
