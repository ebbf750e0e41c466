"""The job-submission write path of ``repro serve``.

The *read* side of the job service is the flight recorder, the
persistent :class:`~repro.obs.run_store.RunStore` ledger and the HTTP
endpoints over it.  This module is the *write* half: a :class:`JobService` accepts job specs (an experiment
name plus parameter overrides), admits them into a **bounded queue**
(a full queue is an explicit rejection the HTTP layer maps to a 429
with ``Retry-After``, not an unbounded backlog), and runs up to
``workers`` of them at once, each in a worker process of its own.

Each of the ``workers`` slots is a dispatcher thread that owns a
one-process :class:`~repro.mr.executor.ParallelExecutor`: the thread
takes a job off the queue, creates its run in the ledger (so ``GET
/jobs/<id>`` names the ``run_id`` while the job runs), hands the job
to its worker by experiment name, and waits.  The worker process runs
the exact sequence of ``repro run --record`` into that run — recorder
in, driver call, recorder finalised with ``failed`` status on a raise —
so:

* ``GET /runs/<id>`` and ``/metrics`` serve a submitted job's status,
  receipt and ``mr.derived.*`` gauges the moment they land;
* a job submitted over HTTP produces a ``counters.json`` receipt
  **bit-identical** to the same job run via ``repro run --record``;
* jobs run side by side on separate interpreters, not on one GIL.

The workers are forked in :meth:`JobService.start`, before the
dispatcher threads (and the HTTP server) start, so a fork never copies
a lock another thread holds.  They inherit the experiment registry —
custom callables included — and open their own store on the ledger
root.  They ignore SIGINT, so a Ctrl-C to the terminal's process group
drains the service instead of failing the jobs in flight.  A worker
that dies fails only its own job: the service finalises that run
``failed`` with a cause naming the worker, then forks the slot anew.

Shutdown is graceful: :meth:`JobService.drain` stops admission,
lets queued and in-flight jobs finish, then parks the dispatchers and
closes their workers.  A service that was killed instead leaves its
in-flight bundles ``running`` for good; :meth:`JobService.start` marks
those of dead service processes ``failed`` before the workers take
their first job.
"""

from __future__ import annotations

import itertools
import os
import queue
import signal
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.mr.executor import ParallelExecutor, WorkerCrashError
from repro.obs.flightrecorder import (
    BOOT_ID,
    FlightRecorder,
    clear_flight_recorder,
    run_manifest,
    set_flight_recorder,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.run_store import (
    COMPLETED,
    FAILED,
    RUNNING as RUN_RUNNING,  # a run's status; RUNNING below is a job's state
    RunStore,
)

#: Job lifecycle states (``queued`` → ``running`` → ``done``/``failed``).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED_STATE = "failed"

DEFAULT_WORKERS = 2
DEFAULT_QUEUE_DEPTH = 16
#: Seconds a rejected client should wait before retrying (the HTTP
#: layer sends it as the ``Retry-After`` header of the 429).
DEFAULT_RETRY_AFTER = 1.0

#: Buckets of the queue-wait and run-time histograms, seconds.
LATENCY_BUCKETS = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0
)

#: ``manifest.argv[0]`` of every bundle a job service records.
SERVICE_ARGV0 = "jobs"

#: Queue sentinel that parks one dispatcher thread.
_STOP = object()


class JobSpecError(ValueError):
    """The submitted job document is malformed (HTTP 400)."""


class JobQueueFull(RuntimeError):
    """Admission control rejected the job (HTTP 429 + Retry-After)."""

    def __init__(self, message: str, retry_after: float):
        super().__init__(message)
        self.retry_after = retry_after


class ServiceDraining(RuntimeError):
    """The service is shutting down; no new jobs (HTTP 503)."""


@dataclass
class JobRecord:
    """One submitted job, from admission to its ledger run id."""

    job_id: str
    experiment: str
    params: dict
    state: str
    submitted_unix: float
    run_id: str | None = None
    error: str | None = None
    started_unix: float | None = None
    finished_unix: float | None = None

    def as_dict(self) -> dict:
        doc = {
            "job_id": self.job_id,
            "experiment": self.experiment,
            "params": self.params,
            "state": self.state,
            "submitted_unix": self.submitted_unix,
        }
        if self.run_id is not None:
            doc["run_id"] = self.run_id
        if self.started_unix is not None:
            doc["started_unix"] = self.started_unix
        if self.finished_unix is not None:
            doc["finished_unix"] = self.finished_unix
        if self.error is not None:
            doc["error"] = self.error
        return doc


def _process_gone(pid: Any) -> bool:
    """True only when ``pid`` provably names no process.

    Anything else reads as alive and its bundle is left for a later
    start: a foreign pid that was recycled, someone else's process,
    and an exited one its parent has not reaped yet.
    """
    if not isinstance(pid, int) or pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except PermissionError:
        pass  # it exists; it is just not ours to signal
    return False


# -- the worker process -------------------------------------------------------

#: A job worker's experiment registry and ledger store, installed by
#: :func:`_init_job_worker` in the worker process itself.
_worker_registry: Mapping[str, Callable[..., Any]] = {}
_worker_store: RunStore | None = None


def _init_job_worker(
    registry: Mapping[str, Callable[..., Any]], root: Any, keep: int
) -> None:
    """Job-worker start-up.  Ctrl-C is the service's to handle (it
    drains); SIGTERM, which is how a pool stops a worker, exits even in
    a slot forked after ``repro serve`` made SIGTERM drain; and the
    worker's store is its own, not the one it inherited."""
    global _worker_registry, _worker_store
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _worker_registry = registry
    _worker_store = RunStore(root, keep=keep)


def _run_job(
    run_id: str, experiment: str, params: dict
) -> tuple[str, str | None]:
    """Run one job in a worker process, recording into ``run_id``.

    This is deliberately the same sequence as ``repro run --record``:
    recorder in, driver call, recorder finalised with ``failed`` status
    on a raise — so the receipt (and the failure bundle) are identical
    either way.  Returns the run's final status and the job's error.
    """
    recorder = FlightRecorder.attach(_worker_store, run_id)
    status, error = FAILED, None
    set_flight_recorder(recorder)
    try:
        _worker_registry[experiment](**params)
        status = COMPLETED
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
        recorder.record_error(exc)
    finally:
        clear_flight_recorder()
        try:
            recorder.finalize(status)
        except Exception as exc:
            error = error or f"{type(exc).__name__}: {exc}"
            status = FAILED
    return status, error


def _fork(executor: ParallelExecutor) -> int:
    """Fork a one-process pool's worker now; its pid."""
    return executor.submit(os.getpid).result()


def default_experiment_registry() -> dict[str, Callable[..., Any]]:
    """The CLI's experiment registry, reduced to name → driver."""
    from repro.cli import EXPERIMENTS

    return {name: fn for name, (fn, _) in EXPERIMENTS.items()}


def resolve_spec(
    document: Any, experiments: Mapping[str, Callable[..., Any]]
) -> tuple[str, dict]:
    """Validate a submitted job document into ``(experiment, params)``.

    Mirrors the CLI's override handling: unknown experiments and
    parameters fail with the known list, string values convert to the
    type of the parameter's default, and native JSON values must match
    that type (ints widen to float defaults).
    """
    from repro.cli import _convert, _tunable_params

    if not isinstance(document, Mapping):
        raise JobSpecError("job spec must be a JSON object")
    name = document.get("experiment", document.get("workload"))
    if not isinstance(name, str) or not name:
        raise JobSpecError(
            "job spec needs an 'experiment' (or 'workload') name; "
            "known experiments: " + ", ".join(sorted(experiments))
        )
    fn = experiments.get(name)
    if fn is None:
        raise JobSpecError(
            f"unknown experiment {name!r}; known experiments: "
            + ", ".join(sorted(experiments))
        )
    raw_params = document.get("params") or {}
    if not isinstance(raw_params, Mapping):
        raise JobSpecError("'params' must be a JSON object")
    tunable = _tunable_params(fn)
    params: dict[str, Any] = {}
    for raw_key, value in raw_params.items():
        key = str(raw_key).replace("-", "_")
        if key not in tunable:
            known = ", ".join(sorted(tunable))
            raise JobSpecError(
                f"unknown parameter {raw_key!r} for {name!r}; "
                f"tunable parameters: {known}"
            )
        default = tunable[key]
        if isinstance(value, str):
            try:
                value = _convert(value, default)
            except ValueError as exc:
                raise JobSpecError(
                    f"bad value for {raw_key!r}: {exc}"
                ) from exc
        elif isinstance(default, bool) or isinstance(value, bool):
            if not (
                isinstance(default, bool) and isinstance(value, bool)
            ):
                raise JobSpecError(
                    f"bad value for {raw_key!r}: expected "
                    f"{type(default).__name__}, got {value!r}"
                )
        elif isinstance(default, float) and isinstance(value, int):
            value = float(value)
        elif not isinstance(value, type(default)):
            raise JobSpecError(
                f"bad value for {raw_key!r}: expected "
                f"{type(default).__name__}, got {value!r}"
            )
        params[key] = value
    return name, params


class JobService:
    """Bounded admission queue + worker processes over the run ledger."""

    def __init__(
        self,
        store: RunStore,
        experiments: Mapping[str, Callable[..., Any]] | None = None,
        workers: int = DEFAULT_WORKERS,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        retry_after: float = DEFAULT_RETRY_AFTER,
    ) -> None:
        if workers < 1:
            raise ValueError("job service needs at least one worker")
        if queue_depth < 1:
            raise ValueError("admission queue depth must be >= 1")
        self._store = store
        self._experiments = (
            dict(experiments) if experiments is not None else None
        )
        self.workers = workers
        self.queue_depth = queue_depth
        self.retry_after = retry_after
        self._queue: queue.Queue = queue.Queue(maxsize=queue_depth)
        self._records: dict[str, JobRecord] = {}
        self._order: list[str] = []
        #: Jobs by state, and what the finished ones took: what
        #: ``/metrics`` says about the service, kept as each job moves
        #: (under the lock) so a scrape never walks the job list.
        self._states = {QUEUED: 0, RUNNING: 0, DONE: 0, FAILED_STATE: 0}
        self._metrics = MetricsRegistry()
        self._queue_wait = self._metrics.histogram(
            "repro_job_queue_wait_seconds",
            "Seconds a job waited in the admission queue",
            LATENCY_BUCKETS,
        )
        self._run_time = self._metrics.histogram(
            "repro_job_run_seconds",
            "Seconds a job ran, recording and finalisation included",
            LATENCY_BUCKETS,
        )
        self._queued = self._metrics.gauge(
            "repro_job_queue_depth", "Jobs waiting in the admission queue"
        )
        self._lock = threading.Lock()
        self._seq = itertools.count(1)
        self._draining = False
        self._threads: list[threading.Thread] = []

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "JobService":
        """Reconcile orphaned bundles, fork the workers, then start the
        dispatcher threads (idempotent)."""
        if not self._threads:
            self._reconcile_orphans()
            initargs = (self._registry(), self._store.root, self._store.keep)
            executors = [
                ParallelExecutor(
                    1, initializer=_init_job_worker, initargs=initargs
                )
                for _ in range(self.workers)
            ]
            pids = [_fork(executor) for executor in executors]
            self._threads = [
                threading.Thread(
                    target=self._worker,
                    args=(executor, pid),
                    name=f"repro-job-worker-{index}",
                    daemon=True,
                )
                for index, (executor, pid) in enumerate(zip(executors, pids))
            ]
            for thread in self._threads:
                thread.start()
        return self

    def _reconcile_orphans(self) -> None:
        """Finalise as ``failed`` every ``running`` bundle a job
        service recorded whose process is gone.

        A ``running`` run is never pruned and never kept by the ledger
        index, so each one a killed server left behind would stay a
        forever-``running`` row in ``/runs`` and a disk read per scrape.
        Bundles of live processes (this one included) and of other
        recorders (``repro run --record``) are not ours to close.  A
        bundle carrying this process's pid but another ``boot`` is a
        predecessor's: a restarted container is pid 1 every time.
        """
        for record in self._store.load_all():
            manifest = record.manifest
            if (
                record.status_name != RUN_RUNNING
                or (manifest.get("argv") or [None])[0] != SERVICE_ARGV0
            ):
                continue
            pid = manifest.get("pid")
            boot = manifest.get("boot")
            if pid == os.getpid() and boot not in (None, BOOT_ID):
                cause = (
                    f"recorder process {pid} was boot {boot}, "
                    f"this one is boot {BOOT_ID}"
                )
            elif _process_gone(pid):
                cause = f"recorder process {pid} is gone"
            else:
                continue
            self._store.write_status(
                record.run_id,
                {
                    "status": FAILED,
                    "finished_unix": time.time(),
                    "entries": len(record.entries),
                    "error": f"orphaned: {cause}",
                },
            )

    def drain(self, timeout: float | None = None) -> bool:
        """Graceful shutdown: reject new jobs, finish admitted ones.

        Parks each dispatcher with a sentinel *behind* everything
        already queued, so every accepted job still runs; returns
        ``True`` once all dispatchers have exited and closed their
        workers (``False`` on timeout).
        """
        with self._lock:
            already = self._draining
            self._draining = True
        if self._threads and not already:
            for _ in self._threads:
                # Blocks while the queue is full — dispatchers are
                # still consuming, so space frees up; the sentinel
                # lands after every accepted job.
                self._queue.put(_STOP)
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        for thread in self._threads:
            remaining = (
                None
                if deadline is None
                else max(deadline - time.monotonic(), 0.0)
            )
            thread.join(remaining)
        return all(not thread.is_alive() for thread in self._threads)

    # -- admission -------------------------------------------------------
    def submit(self, document: Any) -> JobRecord:
        """Admit one job document; raises instead of queueing unbounded.

        :raises JobSpecError: malformed document (map to HTTP 400).
        :raises ServiceDraining: shutting down (map to HTTP 503).
        :raises JobQueueFull: admission queue full (map to HTTP 429).
        """
        experiment, params = resolve_spec(document, self._registry())
        with self._lock:
            if self._draining:
                raise ServiceDraining(
                    "job service is draining; not accepting new jobs"
                )
            record = JobRecord(
                job_id=f"job-{next(self._seq):06d}",
                experiment=experiment,
                params=params,
                state=QUEUED,
                submitted_unix=time.time(),
            )
            try:
                self._queue.put_nowait(record)
            except queue.Full:
                raise JobQueueFull(
                    f"admission queue full ({self.queue_depth} jobs "
                    f"queued); retry after {self.retry_after:g}s",
                    self.retry_after,
                ) from None
            self._records[record.job_id] = record
            self._order.append(record.job_id)
            self._states[QUEUED] += 1
        return record

    # -- inspection ------------------------------------------------------
    def job(self, job_id: str) -> JobRecord | None:
        with self._lock:
            return self._records.get(job_id)

    def describe(self) -> dict:
        """The ``GET /jobs`` document: queue stats + every job."""
        with self._lock:
            return {
                "workers": self.workers,
                "queue_depth": self.queue_depth,
                "draining": self._draining,
                "states": dict(self._states),
                "jobs": [
                    self._records[job_id].as_dict()
                    for job_id in self._order
                ],
            }

    def metrics_text(self) -> str:
        """The service's ``/metrics`` families: jobs by state, queue
        depth, and the queue-wait and run-time histograms — the same
        size however many jobs have been served."""
        with self._lock:
            states = dict(self._states)
            self._queued.set(states[QUEUED])
            rest = self._metrics.prometheus_text()
        lines = [
            "# HELP repro_jobs Jobs submitted to this service, by state",
            "# TYPE repro_jobs gauge",
        ]
        lines.extend(
            f'repro_jobs{{state="{state}"}} {count}'
            for state, count in states.items()
        )
        return "\n".join(lines) + "\n" + rest

    # -- execution -------------------------------------------------------
    def _registry(self) -> Mapping[str, Callable[..., Any]]:
        if self._experiments is None:
            self._experiments = default_experiment_registry()
        return self._experiments

    def _worker(self, executor: ParallelExecutor, pid: int) -> None:
        """One dispatcher: run each job it takes in its own worker."""
        try:
            while True:
                item = self._queue.get()
                try:
                    if item is _STOP:
                        return
                    if not self._execute(item, executor, pid):
                        executor.rebuild()
                        pid = _fork(executor)
                finally:
                    self._queue.task_done()
        finally:
            executor.close()

    def _execute(
        self, record: JobRecord, executor: ParallelExecutor, pid: int
    ) -> bool:
        """Run one job in worker ``pid``; False if the worker died.

        The run is created here, so the job names its ``run_id`` while
        it runs and the manifest carries the service's pid; the worker
        records into it and finalises it (:func:`_run_job`).
        """
        self._enter(record, RUNNING)
        try:
            run = self._store.create(
                run_manifest(
                    "experiment",
                    record.experiment,
                    params={record.experiment: record.params},
                    argv=[SERVICE_ARGV0, record.experiment],
                )
            )
        except Exception as exc:
            record.error = f"{type(exc).__name__}: {exc}"
            self._enter(record, FAILED_STATE)
            return True
        record.run_id = run.run_id
        alive = True
        try:
            status, record.error = executor.submit(
                _run_job, run.run_id, record.experiment, record.params
            ).result()
        except WorkerCrashError:
            alive = False
            status = FAILED
            record.error = f"job worker process {pid} died mid-job"
            self._store.write_status(
                run.run_id,
                {
                    "status": FAILED,
                    "finished_unix": time.time(),
                    "entries": len(self._store.load(run.run_id).entries),
                    "error": record.error,
                },
            )
        self._enter(record, DONE if status == COMPLETED else FAILED_STATE)
        return alive

    def _enter(self, record: JobRecord, state: str) -> None:
        """Move a job to ``running`` or to a terminal state; a finished
        job is observed once, here.  The stamp lands before the state,
        so a reader that sees ``done`` sees ``finished_unix`` too."""
        now = time.time()
        with self._lock:
            self._states[record.state] -= 1
            self._states[state] += 1
            if state == RUNNING:
                record.started_unix = now
            else:
                record.finished_unix = now
                self._queue_wait.observe(
                    record.started_unix - record.submitted_unix
                )
                self._run_time.observe(now - record.started_unix)
            record.state = state
