"""The map-side sort buffer: collect, spill, combine, merge.

This reproduces the Hadoop 1.x map task internals the paper builds on
(Figure 2 and Section 5):

* Map output is collected into an in-memory buffer.
* When the buffer fills (``JobConf.sort_buffer_bytes``), the records are
  partitioned, sorted per partition, run through the spill-time
  Combiner (if any), compressed with the map-output codec, and written
  to local disk as one *spill* (a set of per-partition segments).
* When the task finishes, spills are merged per partition — preserving
  sort order — into the final map-output segments that the shuffle will
  transfer.  A single spill needs no merge (Hadoop renames it); multiple
  spills are merged in passes of at most ``merge_factor`` runs, with the
  Combiner reapplied at the final merge when there are at least
  ``MIN_SPILLS_FOR_COMBINE`` spills (Hadoop's
  ``min.num.spills.for.combine``).

Every byte written or read and every comparison performed is charged to
the task's counters, which is how the paper's disk/CPU columns are
reproduced.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import partial
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator

from repro.mr import counters as C
from repro.mr import serde
from repro.mr.api import Context
from repro.mr.config import JobConf
from repro.mr.cost import GROUP_CALLS_PER_BATCH, chunked
from repro.mr.merge import group_runs, merge_runs
from repro.mr.segment import Segment, merge_pass, persist_segment
from repro.mr.storage import LocalStore
from repro.obs.trace import current_tracer

#: Minimum number of spills before the Combiner also runs at the final
#: merge (matches Hadoop's min.num.spills.for.combine default).
MIN_SPILLS_FOR_COMBINE = 3

EmitFn = Callable[[Any, Any], None]

#: A buffered record's partition.
_PARTITION = itemgetter(0)


class CombineRunner:
    """Runs the job's Combiner over one partition's sorted group stream.

    One fresh combiner instance is created per (spill, partition), with
    ``setup``/``cleanup`` bracketing the groups — the protocol a
    stateful combiner (notably the spill-time Anti-Combiner) relies on.
    """

    def __init__(self, job: JobConf, context: Context):
        self._job = job
        self._context = context

    def run(
        self,
        partition: int,
        groups: Iterable[tuple[Any, list[Any]]],
        emit: EmitFn,
    ) -> None:
        job = self._job
        counters = self._context.counters
        combiner = job.make_combiner()
        if combiner is None:
            raise RuntimeError("CombineRunner requires a configured combiner")

        def counted_emit(key: Any, value: Any) -> None:
            counters.add(C.COMBINE_OUTPUT_RECORDS)
            emit(key, value)

        cctx = self._context.with_sink(counted_emit, partition=partition)
        meter = job.cost_meter
        charge = partial(counters.add, C.CPU_COMBINE_SECONDS)
        _, cost = meter.measure(combiner.setup, cctx)
        charge(cost)
        # Input records are counted outside the metered batches.
        for batch in chunked(groups, GROUP_CALLS_PER_BATCH):
            keys, value_lists = zip(*batch)
            counters.add(C.COMBINE_INPUT_RECORDS, sum(map(len, value_lists)))
            meter.measure_each(
                combiner.reduce,
                zip(keys, map(iter, value_lists)),
                cctx,
                charge,
            )
        # The spill-time AntiCombiner's cleanup drains Shared, running
        # the user's Combine on every group left there.
        _, cost = meter.measure(combiner.cleanup, cctx)
        charge(cost)


class MapOutputBuffer:
    """Collects map output, spilling sorted runs to the task's disk."""

    def __init__(
        self,
        job: JobConf,
        store: LocalStore,
        context: Context,
        task_id: str,
    ):
        if context.partitions is None:
            raise ValueError("the map-output buffer needs the task's Partitioner")
        self._job = job
        self._store = store
        self._context = context
        self._task_id = task_id
        #: Buffered records: ``(partition, key, value, payload)`` with
        #: the collect-time serialisation cached when payloads are
        #: kept, ``(partition, key, value)`` otherwise.
        self._records: list[tuple] = []
        self._buffered_bytes = 0
        self._spills: list[dict[int, Segment]] = []
        self._combine_runner = (
            CombineRunner(job, context) if job.combiner is not None else None
        )
        # The collect-time payload is only worth keeping when segments
        # will contain exactly the collected records: a spill-time
        # combiner rewrites them, so caching bytes would be dead weight.
        self._keep_payloads = self._combine_runner is None
        self._scratch = bytearray()
        self._finalized = False

    # -- collection ------------------------------------------------------
    def collect(self, key: Any, value: Any) -> None:
        """Accept one map-output record (the Context sink)."""
        self.collect_batch([(key, value)])

    def collect_batch(self, pairs: list) -> None:
        """Accept a batch of map-output records, in order.

        One run-oriented encode and one metered partition pass serve
        the whole batch.  The analytic charges are added per record
        *in record order* — the ``cpu.framework.seconds`` accumulator
        starts from the counter's running value and is written back at
        every spill boundary, so the float sums do not depend on the
        batching — and the spill trigger is checked per record, so
        spills land on the same record either way.  The partition pass
        does show the batching: it is one charge to
        ``cpu.partition.seconds`` per batch, so under a deterministic
        meter that counter counts batches.  Where the map task cuts
        them is pinned by ``tests/test_maptask.py``'s
        ``test_flushes_where_each_call_would``.
        """
        if self._finalized:
            raise RuntimeError("map output buffer already finalized")
        if not pairs:
            return
        job = self._job
        counters = self._context.counters
        num_reducers = job.num_reducers
        partitions, cost = job.cost_meter.measure(
            self._context.partitions.of_records, pairs
        )
        counters.add(C.CPU_PARTITION_SECONDS, cost)

        keep = self._keep_payloads
        scratch = self._scratch
        scratch.clear()
        sizes = serde.encode_kv_batch(scratch, pairs)
        raw = bytes(scratch) if keep else b""

        model = job.framework_cost_model
        # serialize_cost(size) is exactly ``rate * size``; inline the
        # multiply (same operands, same order — bit-identical) to skip
        # a method call per record.
        serialize_rate = model.serialize_sec_per_byte
        record_charge = model.record_cost(1)
        values = counters.raw()
        output_records = 0
        output_bytes = 0
        framework = values[C.CPU_FRAMEWORK_SECONDS]
        buffered = self._buffered_bytes
        limit_bytes = job.sort_buffer_bytes
        limit_records = job.sort_record_limit
        records = self._records
        append = records.append
        offset = 0

        def flush_accumulators() -> None:
            values[C.CPU_FRAMEWORK_SECONDS] = framework
            values[C.MAP_OUTPUT_RECORDS] += output_records
            values[C.MAP_OUTPUT_BYTES] += output_bytes
            self._buffered_bytes = buffered

        for pair, partition, size in zip(pairs, partitions, sizes):
            if not 0 <= partition < num_reducers:
                flush_accumulators()
                raise ValueError(
                    f"partitioner returned {partition} for key "
                    f"{pair[0]!r}, outside [0, {num_reducers})"
                )
            if keep:
                end = offset + size
                append((partition, pair[0], pair[1], raw[offset:end]))
                offset = end
            else:
                append((partition, pair[0], pair[1]))
            output_records += 1
            output_bytes += size
            framework += serialize_rate * size + record_charge
            buffered += size
            if buffered >= limit_bytes or len(records) >= limit_records:
                flush_accumulators()
                output_records = 0
                output_bytes = 0
                self._spill()
                records = self._records
                append = records.append
                buffered = 0
                framework = values[C.CPU_FRAMEWORK_SECONDS]
        flush_accumulators()

    # -- spilling --------------------------------------------------------
    def _sorted_by_partition(
        self, records: list[tuple]
    ) -> Iterator[tuple[int, list[tuple]]]:
        """Sort records by (partition, key); yield per-partition slices.

        The yielded lists hold the buffer's record tuples; callers pick
        the fields they need.  The buffer is sorted stably on the
        partition, an int, each partition's bounds are bisected, and
        each slice is sorted on the key alone, under the comparator's
        ``record_key(1)``.  Two stable sorts give the order one stable
        sort on ``(partition, key)`` would (ties stay in buffer order),
        and the sort-cost charge depends only on the record count.
        """
        job = self._job
        sort_key = job.comparator.record_key(1)
        records.sort(key=_PARTITION)
        self._context.counters.add(
            C.CPU_FRAMEWORK_SECONDS,
            job.framework_cost_model.sort_cost(len(records)),
        )
        start = 0
        total = len(records)
        while start < total:
            partition = records[start][0]
            end = bisect_left(
                records, partition + 1, start, total, key=_PARTITION
            )
            chunk = records[start:end]
            chunk.sort(key=sort_key)
            yield partition, chunk
            start = end

    def _apply_combiner(
        self,
        partition: int,
        records: list[tuple[Any, Any]],
    ) -> list[tuple[Any, Any]]:
        """Run the spill-time combiner over sorted ``records``."""
        assert self._combine_runner is not None
        combined: list[tuple[Any, Any]] = []
        groups = group_runs(records, self._job.effective_grouping_comparator)
        self._combine_runner.run(
            partition, groups, lambda k, v: combined.append((k, v))
        )
        return combined

    def _segment_from_chunk(
        self, name: str, partition: int, chunk: list[tuple]
    ) -> Segment:
        """Write one partition's sorted buffer slice as a segment."""
        if self._combine_runner is not None:
            pairs = [(rec[1], rec[2]) for rec in chunk]
            combined = self._apply_combiner(partition, pairs)
            return self._write_segment(name, partition, combined)
        return self._write_segment_payloads(name, partition, chunk)

    def _write_segment(
        self,
        name: str,
        partition: int,
        records: list[tuple[Any, Any]],
    ) -> Segment:
        """Serialise, compress (metered) and persist one segment."""
        buf = bytearray()
        serde.append_records(buf, records)
        return self._persist_segment(name, partition, bytes(buf), len(records))

    def _write_segment_payloads(
        self,
        name: str,
        partition: int,
        chunk: list[tuple],
    ) -> Segment:
        """Persist a segment from records carrying cached payloads.

        ``chunk`` holds 4-tuple buffer records whose last field is the
        collect-time serialisation; framing them yields byte-identical
        segment data to re-encoding the keys and values.
        """
        buf = bytearray()
        write_varint = serde.write_varint
        extend = buf.extend
        for record in chunk:
            payload = record[3]
            write_varint(buf, len(payload))
            extend(payload)
        return self._persist_segment(name, partition, bytes(buf), len(chunk))

    def _persist_segment(
        self, name: str, partition: int, raw: bytes, count: int
    ) -> Segment:
        return persist_segment(
            self._job,
            self._context.counters,
            self._store,
            name,
            partition,
            raw,
            count,
        )

    def _spill(self) -> None:
        """Sort, combine and write the buffered records as one spill."""
        if not self._records:
            return
        counters = self._context.counters
        spill_index = len(self._spills)
        counters.add(C.MAP_SPILLS)
        counters.add(C.MAP_SPILLED_RECORDS, len(self._records))
        with current_tracer().span(
            "map.spill",
            category="map",
            spill=spill_index,
            records=len(self._records),
        ):
            segments: dict[int, Segment] = {}
            for partition, chunk in self._sorted_by_partition(
                self._records
            ):
                name = f"{self._task_id}/spill{spill_index}/p{partition}"
                segments[partition] = self._segment_from_chunk(
                    name, partition, chunk
                )
        self._spills.append(segments)
        self._records = []
        self._buffered_bytes = 0

    # -- finalisation ----------------------------------------------------
    def _merge_partition(
        self,
        partition: int,
        segments: list[Segment],
        apply_combine: bool,
    ) -> Segment:
        """Merge sorted runs of one partition into the final segment."""
        with current_tracer().span(
            "map.merge",
            category="map",
            partition=partition,
            runs=len(segments),
        ):
            return self._merge_partition_inner(
                partition, segments, apply_combine
            )

    def _merge_partition_inner(
        self,
        partition: int,
        segments: list[Segment],
        apply_combine: bool,
    ) -> Segment:
        job = self._job
        counters = self._context.counters
        store = self._store
        intermediate = 0
        # Multi-pass merge when there are more runs than the merge
        # factor.  No user code runs at these passes, so they move the
        # stored records as they are (``merge_pass``).
        while len(segments) > job.merge_factor:
            batch, segments = segments[: job.merge_factor], segments[job.merge_factor:]
            name = f"{self._task_id}/inter{intermediate}/p{partition}"
            intermediate += 1
            segments.append(
                merge_pass(job, counters, batch, store, name, partition)
            )
            for seg in batch:
                seg.delete()

        name = f"{self._task_id}/out/p{partition}"
        if apply_combine:
            final = self._combine_merge(partition, segments, name)
        else:
            final = merge_pass(job, counters, segments, store, name, partition)
        for seg in segments:
            seg.delete()
        return final

    def _combine_merge(
        self, partition: int, segments: list[Segment], name: str
    ) -> Segment:
        """The final merge the Combiner runs at: the one map-side merge
        that decodes values, because user code needs them as objects.
        Charged as :func:`merge_pass` is."""
        assert self._combine_runner is not None
        job = self._job
        counters = self._context.counters
        total_records = sum(seg.record_count for seg in segments)
        counters.add(
            C.CPU_FRAMEWORK_SECONDS,
            job.framework_cost_model.merge_cost(total_records, len(segments)),
        )
        merged = merge_runs(
            [seg.read_records(job, counters) for seg in segments],
            job.comparator,
        )
        records: list[tuple[Any, Any]] = []
        groups = group_runs(merged, job.effective_grouping_comparator)
        self._combine_runner.run(
            partition, groups, lambda k, v: records.append((k, v))
        )
        return self._write_segment(name, partition, records)

    def finalize(self) -> dict[int, Segment]:
        """Flush and merge everything; return final segments by partition."""
        if self._finalized:
            raise RuntimeError("map output buffer already finalized")
        self._finalized = True
        counters = self._context.counters
        job = self._job

        if not self._spills:
            # Everything fits in memory: sort, combine, write final
            # output directly (a single disk write, like Hadoop).
            segments: dict[int, Segment] = {}
            for partition, chunk in self._sorted_by_partition(self._records):
                name = f"{self._task_id}/out/p{partition}"
                segments[partition] = self._segment_from_chunk(
                    name, partition, chunk
                )
            self._records = []
            self._buffered_bytes = 0
            self._record_materialized(segments)
            return segments

        self._spill()  # flush the tail of the buffer
        if len(self._spills) == 1:
            # Single spill: Hadoop renames it to the final output.
            segments = self._spills[0]
            self._record_materialized(segments)
            return segments

        apply_combine = (
            self._combine_runner is not None
            and len(self._spills) >= MIN_SPILLS_FOR_COMBINE
        )
        by_partition: dict[int, list[Segment]] = {}
        for spill in self._spills:
            for partition, segment in spill.items():
                by_partition.setdefault(partition, []).append(segment)
        segments = {
            partition: self._merge_partition(partition, runs, apply_combine)
            for partition, runs in sorted(by_partition.items())
        }
        self._record_materialized(segments)
        return segments

    def _record_materialized(self, segments: dict[int, Segment]) -> None:
        total = sum(seg.size_bytes for seg in segments.values())
        self._context.counters.add(C.MAP_OUTPUT_MATERIALIZED_BYTES, total)

    @property
    def spill_count(self) -> int:
        return len(self._spills)
