"""Pluggable task executors: where task attempts actually run.

The scheduler (:mod:`repro.mr.scheduler`) is executor-agnostic: it
submits task attempts through the :class:`Executor` interface and
collects :class:`TaskFuture` results.  Two implementations are
provided:

* :class:`SerialExecutor` — runs every attempt inline, in submission
  order, in the calling process.  This is the default and reproduces
  the historical single-process behaviour exactly.
* :class:`ParallelExecutor` — a ``concurrent.futures``
  ``ProcessPoolExecutor`` backend.  Task attempts (and their results)
  cross a process boundary, which is why task inputs and outputs must
  pickle; byte/record counters are required to be identical to the
  serial executor's (the engine's tests pin this).

A process-wide *default executor override* supports the CLI's
``--jobs/-j`` flag and the ``REPRO_JOBS`` environment variable: when
set, jobs that do not explicitly construct a runner with an executor
use the override instead of their ``JobConf.executor`` knob.
"""

from __future__ import annotations

import os
import pickle
from typing import Any, Callable

#: Executor names accepted by :func:`create_executor` / ``JobConf.executor``.
SERIAL = "serial"
PROCESS = "process"
EXECUTOR_NAMES = (SERIAL, PROCESS)

#: Environment variable naming the default worker count (0/1 = serial).
JOBS_ENV_VAR = "REPRO_JOBS"


class ExecutorError(RuntimeError):
    """Raised for executor misconfiguration or infrastructure failure."""


class WorkerCrashError(ExecutorError):
    """The execution infrastructure (not the task) died.

    Raised when a pool worker process terminates abruptly (``os._exit``,
    a segfault, the OOM killer): ``concurrent.futures`` then marks the
    whole pool broken, every in-flight future fails, and new submissions
    are rejected.  The scheduler classifies this error separately from
    task failures — the pool is rebuilt via :meth:`Executor.rebuild`
    and the lost attempts are re-driven as retries instead of killing
    the job.
    """


# -- out-of-band buffer transport ------------------------------------------
#
# Task arguments and results carry large segment payloads (the map
# output bytes).  The stock pool transport pickles them at the default
# protocol (4), which embeds every payload inside the pickle stream —
# each hop then holds the bytes twice (stream + object) on each side.
# These helpers serialise with pickle protocol 5 and collect the
# payloads as out-of-band buffers instead: ``dumps_oob`` never copies a
# payload (the buffer list references the original bytes objects) and
# ``loads_oob`` reconstructs objects that share the supplied buffers,
# so within a process the round trip is zero-copy.


def dumps_oob(obj: Any) -> tuple[bytes, list[bytes]]:
    """Pickle ``obj`` with protocol 5, payloads as out-of-band buffers.

    Returns ``(stream, buffers)``; the stream contains everything but
    the out-of-band data, and ``buffers`` holds the payload bytes —
    the original objects, not copies, whenever the underlying buffer
    is ``bytes``.
    """
    raw_buffers: list[pickle.PickleBuffer] = []
    stream = pickle.dumps(
        obj, protocol=5, buffer_callback=raw_buffers.append
    )
    buffers: list[bytes] = []
    for pb in raw_buffers:
        view = pb.raw()
        underlying = view.obj
        buffers.append(
            underlying if isinstance(underlying, bytes) else bytes(view)
        )
        view.release()
    return stream, buffers


def loads_oob(stream: bytes, buffers: list[bytes]) -> Any:
    """Inverse of :func:`dumps_oob`; reconstructed objects share the
    buffers (read-only ``bytes`` buffers are adopted, not copied)."""
    return pickle.loads(stream, buffers=buffers)


class _OobEnvelope:
    """A task result serialised by :func:`dumps_oob` in the worker.

    The pool transports the envelope instead of the result object, so
    payload bytes ride as flat top-level buffers rather than embedded
    in a nested object graph; :meth:`_PoolFuture.result` opens it.
    """

    __slots__ = ("stream", "buffers")

    def __init__(self, stream: bytes, buffers: list[bytes]):
        self.stream = stream
        self.buffers = buffers

    def __reduce__(self):
        return (_OobEnvelope, (self.stream, self.buffers))


class UnpicklableJobError(ExecutorError):
    """The job cannot cross a process boundary.

    Raised before any task runs when a parallel executor is selected
    but the job configuration does not pickle (e.g. a mapper factory
    that is a ``lambda`` or a locally-defined class).
    """


class TaskFuture:
    """Minimal future protocol the scheduler consumes."""

    def result(self) -> Any:
        """Block until the attempt finishes; return or raise its outcome."""
        raise NotImplementedError

    def done(self) -> bool:
        """Whether :meth:`result` would return without blocking."""
        raise NotImplementedError

    def cancel(self) -> bool:
        """Try to prevent the attempt from running; True on success.

        A running attempt cannot be cancelled (mirroring
        ``concurrent.futures``); the scheduler then *abandons* it —
        the eventual result is ignored.
        """
        return False

    def add_done_callback(self, fn: Callable[[], None]) -> None:
        """Call ``fn()`` once the attempt has landed (now, if it has)."""
        raise NotImplementedError


class CompletedFuture(TaskFuture):
    """An already-resolved future (the serial executor's currency)."""

    def __init__(self, value: Any = None, error: BaseException | None = None):
        self._value = value
        self._error = error

    def add_done_callback(self, fn: Callable[[], None]) -> None:
        fn()

    def result(self) -> Any:
        if self._error is not None:
            raise self._error
        return self._value

    def done(self) -> bool:
        return True


class Executor:
    """Runs submitted task attempts; see module docstring."""

    name: str = "executor"
    #: Whether submitted functions/arguments/results cross a process
    #: boundary (and therefore must pickle).
    requires_pickling: bool = False
    max_workers: int = 1

    def submit(self, fn: Callable[..., Any], /, *args: Any) -> TaskFuture:
        raise NotImplementedError

    def submit_many(
        self, fn: Callable[..., Any], argsets: list[tuple]
    ) -> list[TaskFuture]:
        """Submit one attempt per argument tuple; one future each.

        The base implementation is sequential :meth:`submit` calls with
        the synchronous crash classification the scheduler's per-task
        launch path performs — identical semantics, single entry point.
        Pool executors override this to *fuse* the submissions into a
        handful of chunked envelopes (dispatch amortization).
        """
        futures: list[TaskFuture] = []
        for args in argsets:
            try:
                futures.append(self.submit(fn, *args))
            except WorkerCrashError as exc:
                futures.append(CompletedFuture(error=exc))
        return futures

    def rebuild(self) -> bool:
        """Recover from an infrastructure failure; True if anything was
        rebuilt.  In-process executors have no infrastructure, so the
        default is a no-op — the scheduler's crash-recovery path still
        works against them (simulated crashes surface as
        :class:`WorkerCrashError` results)."""
        return False

    def abandon(self, future: TaskFuture) -> None:
        """Record that the scheduler gave up on ``future`` (a timed-out
        attempt that could not be cancelled).  The result will never be
        consumed; executors may use this to avoid waiting on hung
        workers at :meth:`close` time."""

    def close(self) -> None:
        """Release executor resources (idempotent)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class SerialExecutor(Executor):
    """Runs each attempt inline at submission time.

    Exceptions are captured into the returned future so the scheduler's
    retry path is identical across executors.
    """

    name = SERIAL

    def submit(self, fn: Callable[..., Any], /, *args: Any) -> TaskFuture:
        try:
            return CompletedFuture(fn(*args))
        except Exception as exc:
            return CompletedFuture(error=exc)


class _PoolFuture(TaskFuture):
    def __init__(self, future: Any):
        self._future = future

    def result(self) -> Any:
        from concurrent.futures import BrokenExecutor

        try:
            value = self._future.result()
        except BrokenExecutor as exc:
            raise WorkerCrashError(
                f"worker process died; pool is broken ({exc})"
            ) from exc
        if isinstance(value, _OobEnvelope):
            return loads_oob(value.stream, value.buffers)
        return value

    def done(self) -> bool:
        return self._future.done()

    def cancel(self) -> bool:
        return self._future.cancel()

    def add_done_callback(self, fn: Callable[[], None]) -> None:
        self._future.add_done_callback(lambda _future: fn())


def _invoke_oob(fn: Callable[..., Any], stream: bytes, buffers: list[bytes]) -> Any:
    """Worker-side shim: unpack OOB args, run, repack the result."""
    args = loads_oob(stream, buffers)
    return _OobEnvelope(*dumps_oob(fn(*args)))


def _invoke_oob_many(
    fn: Callable[..., Any], stream: bytes, buffers: list[bytes]
) -> Any:
    """Worker-side shim for one fused chunk of task attempts.

    The argument tuples of the whole chunk arrive in a single pickle
    (shared objects — the job configuration above all — are therefore
    pickled once per chunk instead of once per task).  Attempts run
    sequentially; each outcome is captured as ``(ok, value_or_exc)`` so
    one attempt's task failure never poisons its chunk-mates.  A worker
    *crash* (``os._exit``) still takes the whole chunk down — the pool
    breaks and every slice surfaces :class:`WorkerCrashError`, exactly
    like independently-submitted attempts sharing the dead worker.
    """
    argsets = loads_oob(stream, buffers)
    outcomes: list[tuple[bool, Any]] = []
    for args in argsets:
        try:
            outcomes.append((True, fn(*args)))
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as exc:
            outcomes.append((False, exc))
    return _OobEnvelope(*dumps_oob(outcomes))


class _FusedFuture:
    """Scheduler-side handle to one fused chunk's pool future."""

    __slots__ = ("_future", "_outcomes", "_error")

    def __init__(self, future: Any):
        self._future = future
        self._outcomes: list[tuple[bool, Any]] | None = None
        self._error: BaseException | None = None

    def outcomes(self) -> list[tuple[bool, Any]]:
        from concurrent.futures import BrokenExecutor

        if self._error is not None:
            raise self._error
        if self._outcomes is None:
            try:
                value = self._future.result()
            except BrokenExecutor as exc:
                self._error = WorkerCrashError(
                    f"worker process died; pool is broken ({exc})"
                )
                self._error.__cause__ = exc
                raise self._error
            if isinstance(value, _OobEnvelope):
                value = loads_oob(value.stream, value.buffers)
            self._outcomes = value
        return self._outcomes

    def done(self) -> bool:
        return self._future.done()


class _SliceFuture(TaskFuture):
    """One task attempt's view of a fused chunk.

    ``cancel`` always fails: cancelling the chunk would cancel sibling
    attempts of *other* tasks, so the scheduler's abandon path applies
    instead (as for any running pool attempt).
    """

    __slots__ = ("_fused", "_index")

    def __init__(self, fused: _FusedFuture, index: int):
        self._fused = fused
        self._index = index

    def result(self) -> Any:
        ok, value = self._fused.outcomes()[self._index]
        if not ok:
            raise value
        return value

    def done(self) -> bool:
        return self._fused.done()

    def add_done_callback(self, fn: Callable[[], None]) -> None:
        self._fused._future.add_done_callback(lambda _future: fn())


# -- parent-death watch -------------------------------------------------------
#
# A pool worker blocks on its call queue, whose write end it holds
# itself, so a worker whose parent was SIGKILLed would wait forever,
# reparented to init.  PR_SET_PDEATHSIG does not cover it: it fires
# when the *thread* that forked exits, and a pool rebuilt after a crash
# is forked from whatever thread drove the job.  Instead each process
# that forks pool workers keeps one lifeline pipe whose write end it
# never closes; every worker closes its inherited copy of that end
# first thing and watches the read end from a daemon thread, which
# reads EOF the moment the parent process is gone.

_lifeline: tuple[int, int, int] | None = None  # (owner pid, read fd, write fd)


def _lifeline_fds() -> tuple[int, int]:
    """This process's lifeline pipe, made on first use."""
    global _lifeline
    if _lifeline is None or _lifeline[0] != os.getpid():
        _lifeline = (os.getpid(), *os.pipe())
    return _lifeline[1], _lifeline[2]


def _exit_on_eof(read_fd: int) -> None:
    os.read(read_fd, 1)  # nothing is ever written: returns at EOF
    os._exit(1)


def _init_worker(
    read_fd: int,
    write_fd: int,
    initializer: Callable[..., Any] | None,
    initargs: tuple,
) -> None:
    """Pool-worker start-up: watch the parent, then the caller's init."""
    import threading

    os.close(write_fd)
    threading.Thread(
        target=_exit_on_eof,
        args=(read_fd,),
        name="repro-parent-watch",
        daemon=True,
    ).start()
    if initializer is not None:
        initializer(*initargs)


class ParallelExecutor(Executor):
    """Process-pool executor: task attempts run in worker processes.

    Uses the ``fork`` start method where available (cheap, inherits
    imported modules) and the platform default elsewhere.  Under
    ``fork`` the workers exit when the process that made the pool dies,
    however it died, and ``initargs`` are inherited, never pickled.
    ``initializer(*initargs)`` runs in every worker before its first
    attempt, a rebuilt pool's included.
    """

    name = PROCESS
    requires_pickling = True

    def __init__(
        self,
        max_workers: int | None = None,
        initializer: Callable[..., Any] | None = None,
        initargs: tuple = (),
    ):
        if max_workers is None:
            max_workers = os.cpu_count() or 1
        if max_workers < 1:
            raise ExecutorError("max_workers must be >= 1")
        self.max_workers = max_workers
        self._initializer = initializer
        self._initargs = initargs
        self._pool = self._make_pool()
        self._abandoned: list[TaskFuture] = []
        self._closed = False

    def _make_pool(self) -> Any:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if "fork" not in multiprocessing.get_all_start_methods():
            return ProcessPoolExecutor(
                max_workers=self.max_workers,
                initializer=self._initializer,
                initargs=self._initargs,
            )
        return ProcessPoolExecutor(
            max_workers=self.max_workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_init_worker,
            initargs=(*_lifeline_fds(), self._initializer, self._initargs),
        )

    def submit(self, fn: Callable[..., Any], /, *args: Any) -> TaskFuture:
        from concurrent.futures import BrokenExecutor

        if self._closed:
            raise ExecutorError("executor already closed")
        stream, buffers = dumps_oob(args)
        try:
            return _PoolFuture(
                self._pool.submit(_invoke_oob, fn, stream, buffers)
            )
        except BrokenExecutor as exc:
            raise WorkerCrashError(
                f"worker process died; pool rejects submissions ({exc})"
            ) from exc

    def submit_many(
        self, fn: Callable[..., Any], argsets: list[tuple]
    ) -> list[TaskFuture]:
        """Fused dispatch: chunk the attempts across the pool's width.

        A wave of N small tasks submitted one by one pays N pickles of
        the (shared) job configuration and N pool-queue round trips —
        fixed overhead that dominates when the tasks themselves are
        short (``mr.executor.roundtrip_ms`` in BENCHMARK.json).  Here
        the wave is split into at most ``max_workers`` contiguous
        chunks, each shipped as a single :func:`_invoke_oob_many`
        envelope whose argument pickles share common objects once.
        """
        from concurrent.futures import BrokenExecutor

        if self._closed:
            raise ExecutorError("executor already closed")
        count = len(argsets)
        if count == 0:
            return []
        chunk = -(-count // self.max_workers)  # ceil division
        futures: list[TaskFuture] = []
        for start in range(0, count, chunk):
            group = argsets[start : start + chunk]
            if len(group) == 1:
                try:
                    futures.append(self.submit(fn, *group[0]))
                except WorkerCrashError as exc:
                    futures.append(CompletedFuture(error=exc))
                continue
            stream, buffers = dumps_oob(list(group))
            try:
                pool_future = self._pool.submit(
                    _invoke_oob_many, fn, stream, buffers
                )
            except BrokenExecutor as exc:
                error = WorkerCrashError(
                    f"worker process died; pool rejects submissions ({exc})"
                )
                error.__cause__ = exc
                futures.extend(
                    CompletedFuture(error=error) for _ in group
                )
                continue
            fused = _FusedFuture(pool_future)
            futures.extend(
                _SliceFuture(fused, index) for index in range(len(group))
            )
        return futures

    def rebuild(self) -> bool:
        """Replace the pool with a fresh one (crash/hang recovery).

        Leftover worker processes of the old pool are terminated so a
        hung worker cannot pin its slot (or the interpreter at exit);
        any in-flight futures of the old pool are lost — the scheduler
        re-drives their attempts.
        """
        if self._closed:
            raise ExecutorError("executor already closed")
        old = self._pool
        # Kill the old workers before shutdown: a hung or wedged worker
        # would otherwise keep `shutdown(wait=True)` from ever finishing
        # at interpreter exit.  `_processes` is a private map, but this
        # is the accepted way to hard-stop a ProcessPoolExecutor.
        for process in list(getattr(old, "_processes", {}).values()):
            if process.is_alive():
                process.terminate()
        old.shutdown(wait=False, cancel_futures=True)
        self._pool = self._make_pool()
        # The old workers took their abandoned attempts with them.
        self._abandoned = []
        return True

    def abandon(self, future: TaskFuture) -> None:
        self._abandoned.append(future)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if any(not future.done() for future in self._abandoned):
            # A hung worker is still holding an abandoned attempt; a
            # graceful shutdown would block on it indefinitely.
            processes = list(getattr(self._pool, "_processes", {}).values())
            manager = getattr(self._pool, "_executor_manager_thread", None)
            for process in processes:
                if process.is_alive():
                    process.terminate()
            self._pool.shutdown(wait=False, cancel_futures=True)
            for process in processes:
                process.join(timeout=1.0)
            # The pool's manager thread sees the broken pool and joins
            # the same workers; the one whose wait reaps a worker is the
            # one that marks it dead, so until that thread is done a
            # reaped worker can still be listed as a live child.
            if manager is not None:
                manager.join(timeout=1.0)
        else:
            self._pool.shutdown(wait=True)


def create_executor(name: str, max_workers: int | None = None) -> Executor:
    """Instantiate an executor by name (``"serial"`` or ``"process"``)."""
    if name == SERIAL:
        return SerialExecutor()
    if name == PROCESS:
        return ParallelExecutor(max_workers=max_workers)
    known = ", ".join(EXECUTOR_NAMES)
    raise ExecutorError(f"unknown executor {name!r}; known: {known}")


def check_picklable(job: Any) -> None:
    """Fail fast, with guidance, if ``job`` cannot cross processes."""
    try:
        pickle.dumps(job)
    except Exception as exc:
        raise UnpicklableJobError(
            "job configuration does not pickle, so it cannot run on the "
            "process executor; use module-level classes or "
            "functools.partial (not lambdas or local classes) for the "
            f"mapper/reducer/combiner factories ({exc})"
        ) from exc


# -- process-wide default override (CLI --jobs / REPRO_JOBS) ---------------

_default_override: tuple[str, int | None] | None = None


def set_default_executor(name: str, max_workers: int | None = None) -> None:
    """Install a process-wide default executor specification."""
    if name not in EXECUTOR_NAMES:
        known = ", ".join(EXECUTOR_NAMES)
        raise ExecutorError(f"unknown executor {name!r}; known: {known}")
    global _default_override
    _default_override = (name, max_workers)


def clear_default_executor() -> None:
    """Remove the process-wide default executor specification."""
    global _default_override
    _default_override = None


def set_default_jobs(jobs: int) -> None:
    """Map a ``--jobs N`` request onto the default executor override."""
    if jobs > 1:
        set_default_executor(PROCESS, jobs)
    else:
        set_default_executor(SERIAL)


def configure_from_env(environ: Any = None) -> bool:
    """Install the override from ``REPRO_JOBS``; return whether it was set."""
    env = os.environ if environ is None else environ
    raw = env.get(JOBS_ENV_VAR, "").strip()
    if not raw:
        return False
    try:
        jobs = int(raw)
    except ValueError as exc:
        raise ExecutorError(
            f"{JOBS_ENV_VAR} must be an integer, got {raw!r}"
        ) from exc
    set_default_jobs(jobs)
    return True


def default_executor_spec() -> tuple[str, int | None] | None:
    """The active override (explicit call wins over the environment).

    A malformed ``REPRO_JOBS`` raises :class:`ExecutorError`, exactly
    like :func:`configure_from_env` — silently ignoring it here would
    run the job serially while the user believes it is parallel.
    """
    if _default_override is not None:
        return _default_override
    raw = os.environ.get(JOBS_ENV_VAR, "").strip()
    if raw:
        try:
            jobs = int(raw)
        except ValueError as exc:
            raise ExecutorError(
                f"{JOBS_ENV_VAR} must be an integer, got {raw!r}"
            ) from exc
        return (PROCESS, jobs) if jobs > 1 else (SERIAL, None)
    return None
