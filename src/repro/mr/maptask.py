"""One map task: drive the mapper over a split, produce final segments.

CPU attribution detail: the engine meters every call into user code
(``setup`` / ``map`` / ``cleanup``) and charges it to
``cpu.map.seconds``.  Emissions made during a metered call are buffered
and only fed to the sort buffer *after* the call returns, so framework
work (partitioning, serialisation, spilling) is charged to its own
counters and never double-counted inside the user-function measurement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.mr import counters as C
from repro.mr import serde
from repro.mr.api import CaptureContext
from repro.mr.buffer import MapOutputBuffer
from repro.mr.config import JobConf
from repro.mr.counters import Counters
from repro.mr.segment import SegmentPayload, export_segment
from repro.mr.split import SizedSplit
from repro.mr.storage import LocalStore
from repro.obs.trace import SpanRecord, current_tracer

#: Emissions accumulate across map calls and flush to the sort buffer
#: once this many are pending.  Size is a latency/locality trade only —
#: flush points never affect counters (spill checks run per record
#: inside ``collect_batch``).
_BATCH_FLUSH_RECORDS = 512


@dataclass
class MapTaskResult:
    """Output and measurements of one finished map task.

    The result is self-contained and picklable: the final map-output
    segments travel as :class:`~repro.mr.segment.SegmentPayload` byte
    buffers rather than as handles into the task's (ephemeral) local
    store, so a result can cross an executor's process boundary.
    """

    task_id: str
    #: Final map-output payloads by partition (detached segment bytes).
    segments: dict[int, SegmentPayload]
    #: Task-local counters (the engine folds them into the job totals).
    counters: Counters
    #: Phase spans recorded while the task ran (empty unless traced);
    #: ship back picklable across executors like the segment payloads.
    spans: list[SpanRecord] = field(default_factory=list)

    @property
    def cpu_seconds(self) -> float:
        return self.counters.total_cpu_seconds()

    @property
    def disk_read_bytes(self) -> int:
        return self.counters.get_int(C.DISK_READ_BYTES)

    @property
    def disk_write_bytes(self) -> int:
        return self.counters.get_int(C.DISK_WRITE_BYTES)

    @property
    def output_bytes(self) -> int:
        """Bytes this task contributes to the shuffle."""
        return sum(seg.size_bytes for seg in self.segments.values())


class MapTask:
    """Executes the (possibly Anti-Combining-wrapped) mapper on one split."""

    def __init__(self, job: JobConf, task_id: str):
        self._job = job
        self.task_id = task_id

    def run(
        self,
        split: Iterable[tuple[Any, Any]],
        counters: Counters | None = None,
    ) -> MapTaskResult:
        """Run the task.  ``counters`` may be supplied by the caller so
        partially-accumulated work is observable even when the task
        raises (failed-attempt CPU attribution)."""
        job = self._job
        tracer = current_tracer()
        counters = counters if counters is not None else Counters()
        store = LocalStore(counters, node=self.task_id)
        pending: list[tuple[Any, Any]] = []
        # A capture context: ``write`` appends the pair directly and
        # ``write_all`` extends the pending list at C level — no lambda
        # frame on the once-per-emitted-record path.
        context = CaptureContext(
            counters=counters,
            sink=pending.append,
            partitioner=job.partitioner,
            num_partitions=job.num_reducers,
            task_id=self.task_id,
            store=store,
        )
        buffer = MapOutputBuffer(job, store, context, self.task_id)

        def flush_pending() -> None:
            if not pending:
                return
            with tracer.span(
                "map.batch.flush",
                category="map",
                records=len(pending),
            ):
                buffer.collect_batch(pending)
            pending.clear()

        mapper = job.make_mapper()
        with tracer.span("map.phase.setup", category="map"):
            _, cost = job.cost_meter.measure(mapper.setup, context)
            counters.add(C.CPU_MAP_SECONDS, cost)
            flush_pending()
        with tracer.span("map.phase.map", category="map") as map_span:
            # Input-byte accounting sums ints, which is exact under
            # regrouping.  A sized split carries its length; any other
            # is sized record by record as it is read (the scheduler
            # writes that count back onto an unsized ``SizedSplit`` once
            # the attempt finishes).  The mapper is metered per call —
            # user CPU is measured, never batched away.
            records = 0
            input_scratch = bytearray()
            encode_kv_into = serde.encode_kv_into
            measure = job.cost_meter.measure
            mapper_map = mapper.map
            values = counters.raw()
            sized = (
                isinstance(split, SizedSplit)
                and split.encoded_bytes is not None
            )
            if sized and len(split) != split.sized_records:
                raise ValueError(
                    f"the split of {self.task_id} has {len(split)} records "
                    f"but was sized at {split.sized_records}: a split is "
                    "immutable once cut"
                )
            input_bytes = split.encoded_bytes if sized else 0
            for key, value in split:
                records += 1
                if not sized:
                    input_scratch.clear()
                    input_bytes += encode_kv_into(input_scratch, key, value)
                _, cost = measure(mapper_map, key, value, context)
                values[C.CPU_MAP_SECONDS] += cost
                if len(pending) >= _BATCH_FLUSH_RECORDS:
                    flush_pending()
            values[C.MAP_INPUT_RECORDS] += records
            values[C.MAP_INPUT_BYTES] += input_bytes
            # Reading the split from the distributed file system.
            values[C.HDFS_READ_BYTES] += input_bytes
            flush_pending()
            map_span.set(input_records=records)
        with tracer.span("map.phase.cleanup", category="map"):
            _, cost = job.cost_meter.measure(mapper.cleanup, context)
            counters.add(C.CPU_MAP_SECONDS, cost)
            flush_pending()

        with tracer.span("map.phase.merge", category="map") as merge_span:
            segments = buffer.finalize()
            merge_span.set(
                spills=buffer.spill_count,
                output_bytes=sum(
                    seg.size_bytes for seg in segments.values()
                ),
            )
        # Detach the final segments from the task's store: the store
        # (and its spill files) dies with the task, only the payloads
        # and counters survive — and both pickle.
        return MapTaskResult(
            task_id=self.task_id,
            segments={
                partition: export_segment(segment, self.task_id)
                for partition, segment in segments.items()
            },
            counters=counters,
        )
