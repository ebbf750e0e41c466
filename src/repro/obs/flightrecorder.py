"""The flight recorder: writes every run into the persistent ledger.

Zero-cost when disabled, like the tracer: the engine asks
:func:`current_flight_recorder` for each job and gets ``None`` unless
one was installed, so recording costs nothing when off — and when on,
it turns tracing on for the job and then only *reads* the finished
:class:`~repro.mr.engine.JobResult`, never reaches into the run, so the
counter-determinism contract holds with the recorder on or off.

One :class:`FlightRecorder` owns one run directory (see
:mod:`repro.obs.run_store` for the layout).  Entries, events and spans
are appended incrementally as each job finishes, so a run that crashes
mid-way still leaves its post-mortem bundle on disk (a job costs one
write per artifact); the deterministic ``counters.json`` receipt
lands at :meth:`FlightRecorder.finalize` — which the CLI drives from
its ``finally`` path with ``status="failed"`` when the experiment
raised.
"""

from __future__ import annotations

import json
import os
import platform
import threading
import time
from pathlib import Path
from typing import Any, Sequence

from repro.mr.counters import MEASURED_CPU_COUNTERS, Counters
from repro.mr.events import EventLog
from repro.obs.run_store import (
    COMPLETED,
    COUNTERS_FILE,
    ENTRIES_FILE,
    EVENTS_FILE,
    SPANS_FILE,
    RunStore,
)

#: Version of the manifest/entry document shapes.
SCHEMA_VERSION = 1

#: Gauge-name prefix of the scheduler's derived-analytics pass.
DERIVED_PREFIX = "mr.derived."

#: Minted once per process and written into every manifest beside
#: ``pid``: two incarnations of a containerised server are both pid 1,
#: and only this tells the second one that the first one's ``running``
#: bundles are not its own (see ``JobService._reconcile_orphans``).
BOOT_ID = os.urandom(8).hex()


def _write_atomic(path: Path, payload: str) -> None:
    """Write a finalisation artifact atomically (temp file + rename)."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.write_text(payload)
    os.replace(tmp, path)


def run_environment() -> dict:
    """Interpreter/machine provenance recorded into every manifest."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def describe_job_conf(job: Any) -> dict:
    """The manifest-able knobs of a :class:`~repro.mr.config.JobConf`.

    Only primitives: mapper/reducer are factories and stay out; the
    anti-combining config collapses to its strategy + threshold.
    """
    anti = getattr(job, "anti", None)
    strategy = "original"
    threshold_t = None
    if anti is not None:
        strategy = getattr(
            getattr(anti, "strategy", None), "value", "anti"
        )
        threshold_t = getattr(anti, "threshold_t", None)
        if threshold_t is not None and threshold_t == float("inf"):
            threshold_t = "inf"
    return {
        "name": getattr(job, "name", "job"),
        "num_reducers": getattr(job, "num_reducers", None),
        "executor": getattr(job, "executor", None),
        "codec": getattr(job, "map_output_codec", None),
        "sort_buffer_bytes": getattr(job, "sort_buffer_bytes", None),
        "merge_factor": getattr(job, "merge_factor", None),
        "combiner": getattr(job, "combiner", None) is not None,
        "strategy": strategy,
        "threshold_t": threshold_t,
        "max_task_attempts": getattr(job, "max_task_attempts", None),
        "speculative_execution": getattr(
            job, "speculative_execution", False
        ),
    }


def deterministic_counters(counters: dict[str, float]) -> dict[str, float]:
    """The receipt-able subset of a counter fold.

    Drops the measured-CPU families (wall-clock measurements of user /
    codec code, nondeterministic run to run); everything left is
    analytic, so two identical runs produce bit-identical receipts.
    """
    return {
        name: value
        for name, value in counters.items()
        if name not in MEASURED_CPU_COUNTERS
    }


def run_manifest(
    kind: str,
    name: str,
    params: dict | None = None,
    argv: Sequence[str] | None = None,
) -> dict:
    """The manifest of a run recorded by this process."""
    return {
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "name": name,
        "params": params or {},
        "argv": list(argv) if argv is not None else None,
        "env": run_environment(),
        "pid": os.getpid(),
        "boot": BOOT_ID,
    }


class FlightRecorder:
    """Records one run (a CLI experiment or a service job) into the ledger."""

    def __init__(
        self,
        store: RunStore,
        kind: str,
        name: str,
        params: dict | None = None,
        argv: Sequence[str] | None = None,
    ) -> None:
        self._open(
            store, store.create(run_manifest(kind, name, params, argv)).run_id
        )

    @classmethod
    def attach(cls, store: RunStore, run_id: str) -> "FlightRecorder":
        """A recorder for a run another process created: the job
        service creates each job's run, and the worker process that
        runs the job records into it and finalises it."""
        recorder = cls.__new__(cls)
        recorder._open(store, run_id)
        return recorder

    def _open(self, store: RunStore, run_id: str) -> None:
        self._store = store
        self._run_id = run_id
        self._path = store.root / run_id
        #: The run-total counter fold: every recorded entry's counter
        #: bag merged in arrival order, so the finalised receipt is
        #: bit-identical to the engine's totals.
        self._counters = Counters()
        self._entry_index = 0
        self._error: str | None = None
        self._finalized = False
        #: One recorder may be fed from several threads (a pipeline's
        #: concurrent stages): the lock keeps each entry's (index,
        #: counter fold, rows) atomic so the fold order matches the
        #: entry order.
        self._lock = threading.Lock()

    @property
    def run_id(self) -> str:
        return self._run_id

    @property
    def path(self) -> Path:
        return self._path

    # -- recording -------------------------------------------------------
    def record_job(self, job: Any, result: Any) -> None:
        """Record one finished job (called by the engine after a run)."""
        with self._lock:
            self._record_job_locked(job, result)

    def _record_job_locked(self, job: Any, result: Any) -> None:
        index = self._entry_index
        self._entry_index += 1
        name = getattr(result, "job_name", None) or getattr(
            job, "name", "job"
        )
        self._counters.merge(result.counters)
        derived = {
            gauge: value
            for gauge, value in result.metrics.gauge_values().items()
            if gauge.startswith(DERIVED_PREFIX)
        }
        self._store.append_row(
            self._run_id,
            ENTRIES_FILE,
            {
                "index": index,
                "kind": "job",
                "name": name,
                "conf": describe_job_conf(job),
                "counters": result.counters.as_dict(),
                "derived": derived,
                "shuffle_bytes_per_reducer": list(
                    result.shuffle_bytes_per_reducer
                ),
            },
        )
        self._append_spans(index, name, result.spans)
        self._append_events(index, name, result.events)

    def record_pipeline(self, name: str, result: Any) -> None:
        """Record one pipeline run as a ``pipeline:<name>`` entry.

        The pipeline's MapReduce stages were already recorded one by
        one through the engine hook, so only the pipeline-level ledger
        (``pipeline.*`` cache/stage counters) folds in here — job
        counters are never double-counted.
        """
        with self._lock:
            self._record_pipeline_locked(name, result)

    def _record_pipeline_locked(self, name: str, result: Any) -> None:
        index = self._entry_index
        self._entry_index += 1
        entry_name = f"pipeline:{name}"
        pipeline_counters = {
            cname: value
            for cname, value in result.metrics.counter_values().items()
            if cname.startswith("pipeline.")
        }
        self._counters.merge_mapping(pipeline_counters)
        self._store.append_row(
            self._run_id,
            ENTRIES_FILE,
            {
                "index": index,
                "kind": "pipeline",
                "name": entry_name,
                "counters": pipeline_counters,
                "derived": {},
                "stages": [
                    getattr(stage, "name", "") for stage in result.stages
                ],
                "loop_iterations": dict(result.loop_iterations),
            },
        )
        self._append_spans(index, entry_name, result.spans)

    def record_error(self, exc: BaseException) -> None:
        """Attach a terminal failure to the run's final status.

        If the exception carries the scheduler's completed event log
        (terminal task failures do), its events join the post-mortem
        bundle under a ``terminal-failure`` pseudo-job.
        """
        with self._lock:
            self._error = f"{type(exc).__name__}: {exc}"
            events = getattr(exc, "events", None)
            if isinstance(events, EventLog):
                self._append_events(
                    self._entry_index, "terminal-failure", events
                )

    # -- finalisation ----------------------------------------------------
    def finalize(self, status: str = COMPLETED) -> str:
        """Write the receipt artifacts and the final status; idempotent.

        ``counters.json`` holds only the deterministic (analytic)
        counter fold — the receipt two identical runs reproduce bit for
        bit; measured CPU lives in the per-entry rows.
        """
        with self._lock:
            if self._finalized:
                return self._run_id
            self._finalized = True
            analytic = deterministic_counters(self._counters.as_dict())
            # The receipt lands atomically (temp file + rename): a
            # concurrent scrape never observes a torn one.
            _write_atomic(
                self._path / COUNTERS_FILE,
                json.dumps(
                    {"schema": SCHEMA_VERSION, "counters": analytic},
                    indent=1,
                    sort_keys=True,
                )
                + "\n",
            )
            status_doc: dict[str, Any] = {
                "status": status,
                "finished_unix": time.time(),
                "entries": self._entry_index,
            }
            if self._error is not None:
                status_doc["error"] = self._error
            self._store.write_status(self._run_id, status_doc)
        self._store.prune()
        return self._run_id

    # -- internals -------------------------------------------------------
    # A job's span rows and its event rows land as one write each
    # (`RunStore.append_rows`), however many rows the job produced.
    def _append_spans(
        self, index: int, name: str, spans: Sequence[Any]
    ) -> None:
        # The job header row is what keeps an entry with no spans and
        # no events (an empty pipeline) in `obs.export.load_jsonl`.
        rows = [{"type": "job", "job": name, "run": index}]
        rows.extend(
            {"type": "span", "job": name, "run": index, **span.as_dict()}
            for span in spans
        )
        self._store.append_rows(self._run_id, SPANS_FILE, rows)

    def _append_events(
        self, index: int, name: str, events: EventLog
    ) -> None:
        self._store.append_rows(
            self._run_id,
            EVENTS_FILE,
            (
                {"type": "event", "job": name, "run": index, **event}
                for event in events.as_dicts()
            ),
        )


# -- the process-wide hook ---------------------------------------------------
#
# One recorded run per process: the CLI installs the recorder for the
# experiment it runs, and a job-service worker process for each job it
# runs.  A pipeline's concurrent stage threads record into it too.

_recorder: FlightRecorder | None = None


def set_flight_recorder(recorder: FlightRecorder) -> None:
    """Install a recorder; jobs run after this are recorded."""
    global _recorder
    _recorder = recorder


def clear_flight_recorder() -> None:
    global _recorder
    _recorder = None


def current_flight_recorder() -> FlightRecorder | None:
    return _recorder
