"""One map task: drive the mapper over a split, produce final segments.

CPU attribution detail: the engine meters every call into user code
(``setup`` / ``map`` / ``cleanup``) and charges it to
``cpu.map.seconds``; ``map`` calls are metered a batch of input records
at a time (:meth:`~repro.mr.cost.CostMeter.measure_each`).  Emissions
made during metered calls are buffered and only fed to the sort buffer
*after* the batch returns, so framework work (partitioning,
serialisation, spilling) is charged to its own counters and never
double-counted inside the user-function measurement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from operator import length_hint
from typing import Any, Iterable, Iterator

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
#: once this many are pending; a metered batch of map calls ends there.
#: Size is a latency/locality trade only — flush points never affect
#: the analytic counters (spill checks run per record inside
#: ``collect_batch``), though each flush is one metered partition pass.
_BATCH_FLUSH_RECORDS = 512


def _until_flush(
    calls: Iterator[tuple[Any, Any]], pending: list
) -> Iterator[tuple[Any, Any]]:
    """``calls`` up to and including the one after which ``pending``
    holds a flush's worth of emissions; the rest stay in ``calls``."""
    for call in calls:
        yield call
        if len(pending) >= _BATCH_FLUSH_RECORDS:
            return


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
            # is sized record by record before the first Map call, out
            # of the metered batches (the scheduler writes that count
            # back onto an unsized ``SizedSplit`` once the attempt
            # finishes).  The mapper is metered a batch of calls at a
            # time — each call's own cost under a deterministic meter,
            # one clock interval per batch under the real one — and a
            # batch ends at the call after which the emissions pending
            # reach a flush, so flushes fall where a per-call loop put
            # them and the metered partition passes are the same ones.
            input_scratch = bytearray()
            encode_kv_into = serde.encode_kv_into
            measure_each = job.cost_meter.measure_each
            charge = partial(counters.add, C.CPU_MAP_SECONDS)
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
            if not isinstance(split, list):
                split = list(split)
            if not sized:
                for key, value in split:
                    input_scratch.clear()
                    input_bytes += encode_kv_into(input_scratch, key, value)
            calls = iter(split)
            while length_hint(calls):
                measure_each(
                    mapper_map, _until_flush(calls, pending), context, charge
                )
                flush_pending()
            records = len(split)
            values[C.MAP_INPUT_RECORDS] += records
            values[C.MAP_INPUT_BYTES] += input_bytes
            # Reading the split from the distributed file system.
            values[C.HDFS_READ_BYTES] += input_bytes
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
