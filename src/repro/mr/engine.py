"""The local job runner: the simulator's JobTracker facade.

``LocalJobRunner`` picks an execution backend (the executor instance
it was given, else a pool of ``--jobs``/``REPRO_JOBS`` workers when
that count is above 1, else the serial executor) and hands the job to
the :class:`~repro.mr.scheduler.JobScheduler`, which runs the map
wave, the shuffle, and the reduce wave with per-task retries.
Per-task cost snapshots and the per-attempt event log are kept so the
:class:`~repro.mr.runtime_model.ClusterModel` can turn them into a
simulated wall-clock runtime.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.mr import counters as C
from repro.mr import serde
from repro.mr.config import JobConf
from repro.mr.counters import Counters
from repro.mr.events import EventLog
from repro.mr.executor import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    default_jobs,
)
from repro.mr.runtime_model import ClusterModel, RuntimeEstimate, TaskCost
from repro.mr.scheduler import FaultPolicy, JobScheduler
from repro.obs.flightrecorder import current_flight_recorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NullTracer, SpanRecord, Tracer

Record = tuple[Any, Any]


@dataclass
class JobResult:
    """Everything a finished job produced and measured."""

    job_name: str
    outputs_by_partition: dict[int, list[Record]]
    counters: Counters
    map_task_costs: list[TaskCost] = field(default_factory=list)
    reduce_task_costs: list[TaskCost] = field(default_factory=list)
    shuffle_bytes_per_reducer: list[int] = field(default_factory=list)
    #: Structured per-attempt scheduling events (starts, finishes,
    #: failures) with measured wall-clock offsets.
    events: EventLog = field(default_factory=EventLog)
    #: Phase spans on the job timeline (empty unless the job was traced).
    spans: list[SpanRecord] = field(default_factory=list)
    #: The job's metrics registry; its counter families are the source
    #: the ``counters`` totals above were derived from, plus the
    #: ``mr.derived.*`` gauges.  ``metrics.prometheus_text()`` is the
    #: scrape-style dump.
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    #: Each partition's output as its reduce task encoded it, with the
    #: per-record sizes (``ReduceTaskResult.output_encoding``).  Kept
    #: for a job run with ``keep_output_encoding`` — a pipeline's, whose
    #: output the pipeline's store takes as encoded — and empty for any
    #: other job.
    output_encodings_by_partition: dict[
        int, tuple[bytearray, list[int]]
    ] = field(default_factory=dict)

    @property
    def output(self) -> list[Record]:
        """All reduce output, concatenated in partition order."""
        result: list[Record] = []
        for partition in sorted(self.outputs_by_partition):
            result.extend(self.outputs_by_partition[partition])
        return result

    def encoded_output(self) -> tuple[list[bytearray], list[int]] | None:
        """``output``'s encoding as the reduce tasks wrote it: the
        partitions' bytes and every record's size, in partition order.
        None for a result assembled without them."""
        parts: list[bytearray] = []
        sizes: list[int] = []
        for partition in sorted(self.outputs_by_partition):
            encoding = self.output_encodings_by_partition.get(partition)
            if encoding is None:
                return None
            parts.append(encoding[0])
            sizes.extend(encoding[1])
        return parts, sizes

    def _record_encodings(self) -> list[bytes]:
        """Each output record's serialised bytes, in output order."""
        encoded = self.encoded_output()
        if encoded is None:
            scratch = bytearray()
            sizes = serde.encode_kv_batch(scratch, self.output)
            encoded = [scratch], sizes
        parts, sizes = encoded
        data = b"".join(parts)
        keys: list[bytes] = []
        offset = 0
        for size in sizes:
            end = offset + size
            keys.append(data[offset:end])
            offset = end
        return keys

    def canonical_output(self) -> list[bytes]:
        """The output as sorted per-record encodings.

        The cheapest equality witness: the encoding is deterministic
        and injective, so two results have equal output multisets
        exactly when their canonical byte lists are equal — without
        rebuilding (or even comparing) the record objects.
        """
        return sorted(self._record_encodings())

    def sorted_output(self) -> list[Record]:
        """Job output as a canonically-ordered list (for comparisons).

        Records are ordered by their serialised bytes; the encode runs
        as one run-oriented batch and the sort permutes indices, so
        equal-key ties keep their stable order without ever comparing
        the (possibly uncomparable) record objects themselves.
        """
        output = self.output
        keys = self._record_encodings()
        order = sorted(range(len(output)), key=keys.__getitem__)
        return [output[index] for index in order]

    # -- convenience accessors for the paper's reported quantities ------
    @property
    def map_output_bytes(self) -> int:
        """The paper's 'Total Map Output Size' (bytes on the wire)."""
        return self.counters.get_int(C.MAP_OUTPUT_MATERIALIZED_BYTES)

    @property
    def map_output_records(self) -> int:
        return self.counters.get_int(C.MAP_OUTPUT_RECORDS)

    @property
    def disk_read_bytes(self) -> int:
        """Local disk reads (spills/merges/staging) — the paper's metric."""
        return self.counters.get_int(C.DISK_READ_BYTES)

    @property
    def disk_write_bytes(self) -> int:
        """Local disk writes (spills/merges/staging) — the paper's metric."""
        return self.counters.get_int(C.DISK_WRITE_BYTES)

    @property
    def hdfs_read_bytes(self) -> int:
        """Distributed-FS input reads (identical across strategies)."""
        return self.counters.get_int(C.HDFS_READ_BYTES)

    @property
    def hdfs_write_bytes(self) -> int:
        """Distributed-FS output writes (identical across strategies)."""
        return self.counters.get_int(C.HDFS_WRITE_BYTES)

    @property
    def shuffle_bytes(self) -> int:
        return self.counters.get_int(C.SHUFFLE_TRANSFER_BYTES)

    @property
    def cpu_seconds(self) -> float:
        return self.counters.total_cpu_seconds()

    def runtime(self, cluster: ClusterModel | None = None) -> RuntimeEstimate:
        """Simulated runtime under ``cluster`` (default: paper cluster)."""
        model = cluster if cluster is not None else ClusterModel()
        return model.estimate(
            self.map_task_costs,
            self.reduce_task_costs,
            self.shuffle_bytes_per_reducer,
        )

    def measured_runtime(
        self, cluster: ClusterModel | None = None
    ) -> RuntimeEstimate:
        """Simulated runtime from *measured* per-attempt wall times.

        Uses the event log's real task durations (instead of the
        analytic per-task cost model) scheduled over the cluster's
        slots; see :meth:`ClusterModel.estimate_from_events`.
        """
        model = cluster if cluster is not None else ClusterModel()
        return model.estimate_from_events(self.events)


class LocalJobRunner:
    """Executes a job on in-memory splits, faithfully accounted.

    The runner is a thin facade: executor choice here, task-graph
    execution in the :class:`~repro.mr.scheduler.JobScheduler`.

    ``executor`` is an :class:`~repro.mr.executor.Executor` instance
    whose lifetime the caller owns.  When omitted, each run makes its
    own: a :class:`~repro.mr.executor.ParallelExecutor` of
    :func:`~repro.mr.executor.default_jobs` workers when that count is
    above 1, else a :class:`~repro.mr.executor.SerialExecutor`.
    """

    def __init__(
        self,
        executor: Executor | None = None,
        fault_policy: FaultPolicy | None = None,
        tracer: Tracer | NullTracer | None = None,
        clock: Any = None,
        sleep: Any = None,
    ):
        self._executor = executor
        self._fault_policy = fault_policy
        self._tracer = tracer
        # Injectable time sources, handed to the scheduler so tests can
        # drive timeouts/backoff/speculation with a deterministic clock.
        self._clock = clock
        self._sleep = sleep

    def run(
        self,
        job: JobConf,
        splits: Sequence[Iterable[Record]],
        keep_output_encoding: bool = False,
    ) -> JobResult:
        """Run ``job`` over ``splits`` (one map task per split).

        ``keep_output_encoding`` keeps the reduce tasks' encoding of the
        output on the result (:meth:`JobResult.encoded_output`); a
        pipeline asks for it, and every other caller leaves it off.
        """
        executor = self._executor
        if executor is None:
            jobs = default_jobs()
            executor = ParallelExecutor(jobs) if jobs > 1 else SerialExecutor()
        # Tracer resolution: an explicit tracer wins; otherwise an
        # installed flight recorder turns tracing on for every job run
        # while installed (the bundle's spans.jsonl is what `repro
        # trace` and `repro runs diff` render); otherwise the no-op
        # tracer keeps the run zero-overhead.
        recorder = current_flight_recorder()
        tracer = self._tracer
        if tracer is None and recorder is not None:
            tracer = Tracer()
        scheduler = JobScheduler(
            executor,
            fault_policy=self._fault_policy,
            tracer=tracer,
            clock=self._clock,
            sleep=self._sleep,
        )
        # Pause cyclic GC for the duration of the run: the dataflow
        # allocates heavily in tight loops but builds almost no cycles
        # (tuples/strings/lists freed by refcount), so collector sweeps
        # are pure pause time — the classic batch-runner trade.  A run
        # is bounded, and collection resumes (and catches up on its
        # threshold) as soon as the job finishes.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            result = scheduler.execute(job, splits, keep_output_encoding)
        finally:
            if gc_was_enabled:
                gc.enable()
            if executor is not self._executor:
                executor.close()
        # Zero-cost when no recorder is installed, and observation-only
        # when one is — it reads the finished result, so counters are
        # identical either way.
        if recorder is not None:
            recorder.record_job(job, result, executor)
        return result
