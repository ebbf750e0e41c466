"""One reduce task: fetch, merge, group, reduce.

Reproduces the reduce side of Hadoop 1.x (paper Figure 2): map-output
segments for this partition are fetched over the (accounted) network,
staged on local disk when they exceed the reduce buffer, merged into a
single sorted stream, grouped with the grouping comparator, and fed to
the Reduce function in ascending key order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Sequence

from repro.mr import counters as C
from repro.mr import serde
from repro.mr.api import CaptureContext
from repro.mr.config import JobConf
from repro.mr.cost import GROUP_CALLS_PER_BATCH, chunked
from repro.mr.counters import Counters
from repro.mr.merge import group_runs, merge_runs
from repro.mr.segment import Segment, SegmentPayload, merge_pass
from repro.mr.storage import LocalStore
from repro.obs.trace import SpanRecord, current_tracer


@dataclass
class ReduceTaskResult:
    """Output and measurements of one finished reduce task.

    Self-contained and picklable, like
    :class:`~repro.mr.maptask.MapTaskResult`.
    """

    task_id: str
    partition: int
    output: list[tuple[Any, Any]]
    counters: Counters
    #: Map-side charges incurred on behalf of the map tasks: the serve
    #: reads that ship each map-output segment to this reduce task are
    #: disk reads on the *map* node (as in Hadoop), so they are kept
    #: out of this task's own counters and folded into the job totals
    #: separately by the engine.
    serve_counters: Counters = field(default_factory=Counters)
    #: Phase spans recorded while the task ran (empty unless traced).
    spans: list[SpanRecord] = field(default_factory=list)
    #: ``output`` encoded back to back, unframed (``reduce.output.bytes``
    #: is its length), and each record's size in it; encoded only when
    #: asked for (``ReduceTask.run``'s ``keep_encoding``), else None.
    output_encoding: tuple[bytearray, list[int]] | None = None

    @property
    def cpu_seconds(self) -> float:
        return self.counters.total_cpu_seconds()

    @property
    def shuffle_bytes(self) -> int:
        return self.counters.get_int(C.SHUFFLE_TRANSFER_BYTES)


class ReduceTask:
    """Executes the (possibly Anti-Combining-wrapped) reducer."""

    def __init__(self, job: JobConf, partition: int):
        self._job = job
        self.partition = partition
        self.task_id = f"reduce{partition}"

    def run(
        self,
        map_segments: Sequence[SegmentPayload],
        counters: Counters | None = None,
        keep_encoding: bool = False,
    ) -> ReduceTaskResult:
        """Run the task; ``counters`` may be caller-supplied so partial
        work stays observable when the task raises.  The output is
        sized, not encoded, to count its bytes; ``keep_encoding``
        encodes it onto the result, for a pipeline to materialize the
        output from."""
        job = self._job
        tracer = current_tracer()
        counters = counters if counters is not None else Counters()
        store = LocalStore(counters, node=self.task_id)
        # Map-output payloads are adopted into a serve store whose reads
        # charge ``serve_counters`` — the map-side disk reads of the
        # shuffle's serve phase, reported back to the engine separately.
        serve_counters = Counters()
        serve_store = LocalStore(serve_counters, node=f"{self.task_id}/serve")
        segments = [
            payload.to_segment(serve_store) for payload in map_segments
        ]
        output: list[tuple[Any, Any]] = []
        # A capture context: ``write`` appends the pair to ``output``
        # itself, no closure frame per output record.  The output byte
        # and record counters (all integers, exact under summing) are
        # settled once after cleanup, from an exact size of the whole
        # task output.
        context = CaptureContext(
            counters=counters,
            sink=output.append,
            partitioner=job.partitioner,
            num_partitions=job.num_reducers,
            task_id=self.task_id,
            partition=self.partition,
            store=store,
        )

        with tracer.span(
            "reduce.phase.fetch", category="reduce"
        ) as fetch_span:
            segments = self._fetch(segments, counters, store)
            fetch_span.set(
                segments=len(segments),
                shuffle_bytes=counters.get_int(C.SHUFFLE_TRANSFER_BYTES),
            )
        merged = self._merge_fetched(segments, counters, store)

        reducer = job.make_reducer()
        _, cost = job.cost_meter.measure(reducer.setup, context)
        counters.add(C.CPU_REDUCE_SECONDS, cost)
        with tracer.span(
            "reduce.phase.reduce", category="reduce"
        ) as reduce_span:
            groups = 0
            # Accumulate the integer group counters locally (exact
            # under summing), outside the metered batches of
            # ``reducer.reduce`` calls.
            grouped = group_runs(merged, job.effective_grouping_comparator)
            values_map = counters.raw()
            measure_each = job.cost_meter.measure_each
            charge = partial(counters.add, C.CPU_REDUCE_SECONDS)
            reduce_fn = reducer.reduce
            input_records = 0
            for batch in chunked(grouped, GROUP_CALLS_PER_BATCH):
                keys, value_lists = zip(*batch)
                groups += len(batch)
                input_records += sum(map(len, value_lists))
                measure_each(
                    reduce_fn,
                    zip(keys, map(iter, value_lists)),
                    context,
                    charge,
                )
            values_map[C.REDUCE_INPUT_GROUPS] += groups
            values_map[C.REDUCE_INPUT_RECORDS] += input_records
            reduce_span.set(groups=groups)
        # Cleanup gets its own span: the AntiReducer drains the whole
        # remaining Shared structure here (paper Fig. 8's final drain).
        with tracer.span("reduce.phase.cleanup", category="reduce"):
            _, cost = job.cost_meter.measure(reducer.cleanup, context)
            counters.add(C.CPU_REDUCE_SECONDS, cost)

        # Settle the deferred output accounting.  Only a pipeline uses
        # the output's bytes; every other job needs just their count.
        output_encoding = None
        if keep_encoding:
            encoded = bytearray()
            output_encoding = (encoded, serde.encode_kv_batch(encoded, output))
            output_bytes = len(encoded)
        else:
            output_bytes = serde.kv_batch_size(output)
        if output:
            values_map = counters.raw()
            values_map[C.REDUCE_OUTPUT_RECORDS] += len(output)
            values_map[C.REDUCE_OUTPUT_BYTES] += output_bytes
            # Final output goes to the distributed file system.
            values_map[C.HDFS_WRITE_BYTES] += output_bytes

        return ReduceTaskResult(
            task_id=self.task_id,
            partition=self.partition,
            output=output,
            counters=counters,
            serve_counters=serve_counters,
            output_encoding=output_encoding,
        )

    # -- shuffle fetch ---------------------------------------------------
    def _fetch(
        self,
        map_segments: list[Segment],
        counters: Counters,
        store: LocalStore,
    ) -> list[Segment]:
        """Transfer this partition's segments from the map-side disks.

        Reading a segment from the serve store charges the shuffle's
        *map-side* serve read (the read happens on the map node, as in
        Hadoop — accounted via ``serve_counters``); the transfer itself
        and any local staging are charged here.  Fetched data larger
        than ``reduce_buffer_bytes`` is staged on this task's local
        disk before merging.
        """
        job = self._job
        total_bytes = sum(seg.size_bytes for seg in map_segments)
        counters.add(C.SHUFFLE_TRANSFER_BYTES, total_bytes)
        counters.add(C.REDUCE_MERGE_SEGMENTS, len(map_segments))
        if total_bytes <= job.reduce_buffer_bytes:
            # Fits in the reduce task's memory: merge straight from the
            # fetched buffers (the serve read is the only disk I/O).
            return list(map_segments)
        staged: list[Segment] = []
        for index, seg in enumerate(map_segments):
            data = seg.read_bytes()  # serve read, charged map-side
            name = f"{self.task_id}/fetch{index}"
            store.write_file(name, data)
            staged.append(
                Segment(
                    store=store,
                    name=name,
                    partition=self.partition,
                    record_count=seg.record_count,
                    raw_bytes=seg.raw_bytes,
                    codec=seg.codec,
                )
            )
        return staged

    # -- merging ---------------------------------------------------------
    def _merge_fetched(
        self,
        segments: list[Segment],
        counters: Counters,
        store: LocalStore,
    ) -> list[tuple[Any, Any]]:
        """Merge the fetched runs into one sorted, materialised run.

        Charge order per pass: the merge cost first, then each run's
        scan charges in run order.
        """
        job = self._job
        intermediate = 0
        segments = list(segments)
        tracer = current_tracer()
        # Multi-pass merge mirroring Hadoop's io.sort.factor behaviour.
        # No user code runs at these passes, so they move the stored
        # records as they are (``merge_pass``, charged as the map side's).
        while len(segments) > job.merge_factor:
            batch = segments[: job.merge_factor]
            segments = segments[job.merge_factor :]
            with tracer.span(
                "reduce.merge.pass",
                category="reduce",
                pass_index=intermediate,
                runs=len(batch),
            ):
                name = f"{self.task_id}/merge{intermediate}"
                intermediate += 1
                segments.append(
                    merge_pass(
                        job, counters, batch, store, name, self.partition
                    )
                )
        # The last merge feeds the Reduce function, so it decodes.
        total_records = sum(seg.record_count for seg in segments)
        counters.add(
            C.CPU_FRAMEWORK_SECONDS,
            job.framework_cost_model.merge_cost(
                total_records, max(len(segments), 1)
            ),
        )
        return merge_runs(
            [seg.read_records(job, counters) for seg in segments],
            job.comparator,
        )
