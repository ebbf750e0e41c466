"""The traced run: a layer walk with the benchmark's own spans.

``src/`` carries no benchmark hooks, so the per-layer numbers come from
driving each layer's public functions by hand and timing the calls:

* the **walk** executes every variant's job the way the scheduler does —
  ``MapTask(job, id).run(split)`` per split, a shuffle plan, then
  ``ReduceTask(job, p).run(payloads)`` per partition, counters folded in
  the scheduler's order — serially and without the scheduler;
* the **feeds** hand each isolated layer (``serde``, ``MapOutputBuffer``,
  ``merge_runs``, the codec, ``Shared``, ``AntiMapper.map``, the
  executor's ``submit_many``, ``DatasetStore``) the real intermediate
  data captured from the previous step.

The walk is only worth reading if it is the same program: its output and
exact counters must equal ``LocalJobRunner.run``'s for the same job, and
that check is an operation like any other.
"""

from __future__ import annotations

import gc
import shutil
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.core.shared import Shared
from repro.experiments.common import paused_gc
from repro.mr import JobConf, JobResult, LocalJobRunner, ParallelExecutor, split_records
from repro.mr import counters as C
from repro.mr import serde
from repro.mr.api import CaptureContext
from repro.mr.buffer import MapOutputBuffer
from repro.mr.counters import Counters
from repro.mr.maptask import MapTask, MapTaskResult
from repro.mr.merge import merge_runs
from repro.mr.reducetask import ReduceTask
from repro.mr.storage import LocalStore
from repro.obs.flightrecorder import (
    FlightRecorder,
    clear_flight_recorder,
    set_flight_recorder,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.run_store import RunStore
from repro.obs.trace import Tracer
from repro.pipeline.dataset import Dataset, DatasetStore
from repro.workloads.pagerank import split_graph

from spans import SpanRecorder
from workloads import (
    ADAPTIVE,
    ORIGINAL,
    JobWorkload,
    Ops,
    Outcome,
    PagerankPipeline,
    Variant,
    echo,
    exact_counters,
    output_digest,
    rank_vector,
    run_iteration,
)

#: MapTask's own flush granularity; the buffer feed mimics it.
_BATCH_RECORDS = 512
#: Echo round trips per traced iteration.
_ROUNDTRIPS = 10

SIX_JOBS = frozenset(
    {
        "qs_prefix",
        "qs_combine_gzip",
        "theta_join",
        "sort_passthrough",
        "pagerank_pipeline",
        "qs_pool2",
    }
)
ALL = SIX_JOBS | {"service_closed_loop"}

#: Which workloads exercise which layer metrics (by name prefix).  A
#: workload reports 0 for every other declared layer metric: the
#: contract wants every name on every run, and 0 reads "layer not
#: exercised here".
APPLIES: dict[str, frozenset[str]] = {
    "mr.serde.": SIX_JOBS,
    "mr.maptask.": SIX_JOBS,
    "mr.buffer.": SIX_JOBS,
    "mr.merge.": SIX_JOBS,
    "mr.reducetask.": SIX_JOBS,
    "mr.scheduler.": SIX_JOBS,
    "mr.disk.": SIX_JOBS,
    "core.": SIX_JOBS,
    "mr.compress.": frozenset({"qs_combine_gzip"}),
    "mr.executor.": frozenset({"qs_pool2"}),
    "mr.shm.": frozenset({"qs_pool2"}),
    "pipeline.": frozenset({"pagerank_pipeline"}),
    "obs.trace.": frozenset({"qs_prefix"}),
    "obs.flightrecorder.": frozenset({"qs_prefix"}),
    "obs.jobservice.": frozenset({"service_closed_loop"}),
    "obs.run_store.": frozenset({"service_closed_loop"}),
    "obs.server.": frozenset({"service_closed_loop"}),
    "bench.host_speed_x": SIX_JOBS,
    "bench.": ALL,
}


def applies(metric: str, workload: str) -> bool:
    for prefix, workloads in APPLIES.items():
        if metric.startswith(prefix):
            return workload in workloads
    raise KeyError(f"layer metric {metric!r} matches no APPLIES prefix")


@dataclass
class WalkedJob:
    """One job driven by hand: what the scheduler would have folded."""

    result: JobResult
    map_results: list[MapTaskResult]


def walk_job(
    rec: SpanRecorder, job: JobConf, splits: list[list], variant: str
) -> WalkedJob:
    map_results = []
    for index, split in enumerate(splits):
        with rec.span("mr.maptask", variant=variant, task=f"map{index}"):
            map_results.append(MapTask(job, f"map{index}").run(split))
    plan = [
        [r.segments[partition] for r in map_results if partition in r.segments]
        for partition in range(job.num_reducers)
    ]
    reduce_results = []
    for partition in range(job.num_reducers):
        with rec.span("mr.reducetask", variant=variant, task=f"reduce{partition}"):
            reduce_results.append(ReduceTask(job, partition).run(plan[partition]))
    with rec.span("walk.fold", variant=variant):
        # The scheduler's fold order: map tasks, reduce tasks, then the
        # shuffle's map-side serve reads.
        metrics = MetricsRegistry()
        for result in map_results:
            metrics.merge_counters(result.counters)
        for result in reduce_results:
            metrics.merge_counters(result.counters)
        for result in reduce_results:
            metrics.merge_counters(result.serve_counters)
        folded = JobResult(
            job_name=job.name,
            outputs_by_partition={r.partition: r.output for r in reduce_results},
            counters=metrics.job_counters(),
        )
    return WalkedJob(folded, map_results)


def walk_variant(
    rec: SpanRecorder, workload: JobWorkload, variant: Variant
) -> list[WalkedJob]:
    """Walk one variant: one job, or PageRank's chained jobs."""
    with rec.span("walk", variant=variant.name), paused_gc():
        if not isinstance(workload, PagerankPipeline):
            return [walk_job(rec, variant.job, workload.splits, variant.name)]
        # ``run_pagerank``'s loop, which the pipeline is bit-identical to.
        records = list(workload.graph)
        walked = []
        for _ in range(workload.sizes["iterations"]):
            splits = split_records(records, num_splits=workload.sizes["num_splits"])
            walked.append(walk_job(rec, variant.job, splits, variant.name))
            records = walked[-1].result.output
        return walked


def check_walk(
    ops: Ops, workload: JobWorkload, variant: Variant, walked: list[WalkedJob], real: Outcome
) -> None:
    """The walk must be the same program as the real run."""
    label = f"{workload.name}: layer walk of {variant.name}"
    ops.check(
        [exact_counters(job.result) for job in walked] == real.counters,
        f"{label}: exact counters differ from LocalJobRunner.run",
    )
    final = walked[-1].result
    if isinstance(workload, PagerankPipeline):
        witness: Any = rank_vector(final.output)
    else:
        witness = output_digest(final)
    ops.check(
        workload.witnesses_match(real.witness, witness),
        f"{label}: output differs from LocalJobRunner.run",
    )


def _task_context(job: JobConf, task_id: str) -> tuple[CaptureContext, list, Counters]:
    counters = Counters()
    emitted: list = []
    context = CaptureContext(
        counters=counters,
        sink=emitted.append,
        partitioner=job.partitioner,
        num_partitions=job.num_reducers,
        task_id=task_id,
        store=LocalStore(counters, node=task_id),
    )
    return context, emitted, counters


def _drive_mapper(job: JobConf, split: list, task_id: str) -> list:
    """Run the job's mapper class over a split; return what it emitted."""
    context, emitted, _ = _task_context(job, task_id)
    mapper = job.make_mapper()
    mapper.setup(context)
    for key, value in split:
        mapper.map(key, value, context)
    mapper.cleanup(context)
    return emitted


def _sum(walked: list[WalkedJob], counter: str) -> int:
    return sum(job.result.counters.get_int(counter) for job in walked)


def _wave_seconds(result: JobResult, kind: str) -> float:
    times = [event.t_seconds for event in result.events if event.kind == kind]
    return max(times) - min(times) if times else 0.0


class LayerRun:
    """The traced run of one job workload."""

    def __init__(self, workload: JobWorkload, rec: SpanRecorder, ops: Ops, scratch: Path):
        self.workload = workload
        self.rec = rec
        self.ops = ops
        self.scratch = scratch
        self.baseline: dict[str, Outcome] | None = None
        self.samples: list[dict[str, float]] = []

    # -- one traced iteration ----------------------------------------------
    def iteration(self, index: int) -> None:
        workload, rec = self.workload, self.rec
        rec.trace = f"{workload.name}#{index}"
        with rec.span("iteration"):
            with rec.span("reference"):
                outcomes = run_iteration(
                    workload, self.ops, self.baseline, keep_results=True
                )
            if self.baseline is None:
                self.baseline = outcomes
            walks: dict[str, list[WalkedJob]] = {}
            for variant in workload.variants:
                if not variant.timed:
                    continue  # a reference leg re-runs a job already walked
                with rec.span("gc"):
                    gc.collect()
                walks[variant.name] = walk_variant(rec, workload, variant)
                with rec.span("oracle", variant=variant.name):
                    check_walk(
                        self.ops, workload, variant, walks[variant.name],
                        outcomes[variant.name],
                    )
            with rec.span("feeds"):
                values = self._feeds(outcomes, walks)
        values.update(self._from_spans(rec.trace, outcomes, walks))
        self.samples.append(values)

    def _from_spans(
        self,
        trace: str,
        outcomes: dict[str, Outcome],
        walks: dict[str, list[WalkedJob]],
    ) -> dict[str, float]:
        self_times = self.rec.self_times()
        spans = [span for span in self.rec.spans if span.trace == trace]

        def own(name: str, **attrs: Any) -> float:
            return sum(
                self_times[span.span_id]
                for span in spans
                if span.name == name
                and all(span.attrs.get(k) == v for k, v in attrs.items())
            )

        def real_seconds(names: Any) -> float:
            return sum(outcomes[name].wall_s for name in names)

        original, adaptive = walks[ORIGINAL], walks[ADAPTIVE]
        map_in = _sum(original, C.MAP_INPUT_RECORDS)
        original_bytes = _sum(original, C.MAP_OUTPUT_MATERIALIZED_BYTES)
        adaptive_bytes = _sum(adaptive, C.MAP_OUTPUT_MATERIALIZED_BYTES)
        reexecutions = _sum(adaptive, C.ANTI_REDUCE_MAP_REEXECUTIONS)
        reduce_original = own("mr.reducetask", variant=ORIGINAL)
        values = {
            "mr.maptask.busy_s": own("mr.maptask", variant=ORIGINAL),
            "mr.maptask.records_in": map_in,
            "mr.maptask.records_out": _sum(original, C.MAP_OUTPUT_RECORDS),
            "mr.maptask.output_bytes": original_bytes,
            "mr.reducetask.busy_s": reduce_original,
            "mr.reducetask.groups": _sum(original, C.REDUCE_INPUT_GROUPS),
            "mr.reducetask.records_in": _sum(original, C.REDUCE_INPUT_RECORDS),
            "mr.disk.bytes": _sum(original, C.DISK_READ_BYTES)
            + _sum(original, C.DISK_WRITE_BYTES),
            "mr.disk.adaptive_bytes": _sum(adaptive, C.DISK_READ_BYTES)
            + _sum(adaptive, C.DISK_WRITE_BYTES),
            "core.anti_mapper.encode_s": own("core.anti_mapper") - own("mr.mapper"),
            "core.anti_mapper.plain_records": _sum(adaptive, C.ANTI_PLAIN_RECORDS),
            "core.anti_mapper.eager_records": _sum(adaptive, C.ANTI_EAGER_RECORDS),
            "core.anti_mapper.lazy_records": _sum(adaptive, C.ANTI_LAZY_RECORDS),
            "core.anti_mapper.bytes_saved_ratio": 1.0 - adaptive_bytes / original_bytes,
            "core.anti_reducer.busy_s": own("mr.reducetask", variant=ADAPTIVE)
            - reduce_original,
            "core.anti_reducer.map_reexecutions": reexecutions,
            "core.anti_reducer.reexec_per_map_call": reexecutions / map_in,
            "core.shared.add_s": own("core.shared.add"),
            "core.shared.pop_s": own("core.shared.pop"),
            "mr.buffer.collect_s": own("mr.buffer.collect"),
            "mr.buffer.finalize_s": own("mr.buffer.finalize"),
            "mr.serde.encode_s": own("mr.serde.encode"),
            "mr.serde.decode_s": own("mr.serde.decode"),
            "mr.merge.merge_s": own("mr.merge"),
            "bench.trace_overhead_x": sum(
                span.duration for span in spans if span.name == "walk"
            )
            / real_seconds(walks),
            "bench.host_speed_x": statistics.median(
                outcome.host_speed for outcome in outcomes.values()
            ),
        }
        # Scheduler, from the real run's event log: the two waves (first
        # START to last end of a kind) and what is left of the job wall
        # outside them — set-up, shuffle plan, counter fold, metrics.
        # (Summing per-attempt durations instead would overcount: the
        # serial executor runs an attempt inside ``submit`` and logs its
        # FINISH only when the whole wave is collected.)
        primary = outcomes[ORIGINAL]
        map_wave = sum(_wave_seconds(result, "map") for result in primary.results)
        reduce_wave = sum(_wave_seconds(result, "reduce") for result in primary.results)
        values["mr.scheduler.map_wave_s"] = map_wave
        values["mr.scheduler.reduce_wave_s"] = reduce_wave
        values["mr.scheduler.overhead_s"] = (
            sum(primary.job_walls_s) - map_wave - reduce_wave
        )
        values["mr.scheduler.attempts_failed"] = sum(
            len(result.events.failures()) + len(result.events.timeouts())
            for outcome in outcomes.values()
            for result in outcome.results
        )
        if self.workload.name == "qs_pool2":
            values["mr.executor.pool_start_s"] = own("mr.executor.pool_start")
            values.update(primary.extra)  # the mr.shm.* gauges
            # The same jobs, serial wall over pool wall.  On one CPU a
            # pool cannot beat serial: 0 stands for "unresolved".
            values["mr.executor.pool_speedup_x"] = (
                real_seconds(set(outcomes) - set(walks)) / real_seconds(walks)
                if self.workload.pool.max_workers > 1
                else 0.0
            )
        if self.workload.name == "qs_combine_gzip":
            values["mr.compress.compress_s"] = own("mr.compress.compress")
            values["mr.compress.decompress_s"] = own("mr.compress.decompress")
        if isinstance(self.workload, PagerankPipeline):
            stage_s = sum(primary.job_walls_s)
            values["pipeline.stage_s"] = stage_s
            values["pipeline.overhead_s"] = primary.extra["pipeline_seconds"] - stage_s
            values["pipeline.dataset.encode_misses"] = primary.extra["encode_misses"]
            values["pipeline.dataset.encode_hits"] = primary.extra["encode_hits"]
            values["pipeline.dataset.encoded_bytes"] = primary.extra["encoded_bytes"]
        return values

    # -- the isolated layer feeds -------------------------------------------
    def _feeds(
        self, outcomes: dict[str, Outcome], walks: dict[str, list[WalkedJob]]
    ) -> dict[str, float]:
        workload, rec = self.workload, self.rec
        original_job = workload.variant(ORIGINAL).job
        adaptive_job = workload.variant(ADAPTIVE).job
        if isinstance(workload, PagerankPipeline):
            splits = split_records(
                list(workload.graph), num_splits=workload.sizes["num_splits"]
            )
        else:
            splits = workload.splits
        first = walks[ORIGINAL][0]
        values: dict[str, float] = {}

        with paused_gc():
            # Mapper alone vs the AntiMapper wrapped around it.
            emissions = []
            for index, split in enumerate(splits):
                with rec.span("mr.mapper", task=f"map{index}"):
                    emissions.append(_drive_mapper(original_job, split, f"map{index}"))
            for index, split in enumerate(splits):
                with rec.span("core.anti_mapper", task=f"map{index}"):
                    _drive_mapper(adaptive_job, split, f"map{index}")

            # Sort buffer: the mapper's real emissions, MapTask's batching.
            spills = spilled_records = materialized = 0
            for index, emitted in enumerate(emissions):
                task_id = f"map{index}"
                context, _, counters = _task_context(original_job, task_id)
                buffer = MapOutputBuffer(original_job, context.store, context, task_id)
                collect_batch = getattr(buffer, "collect_batch", None)
                with rec.span("mr.buffer.collect", task=task_id):
                    for start in range(0, len(emitted), _BATCH_RECORDS):
                        chunk = emitted[start : start + _BATCH_RECORDS]
                        if collect_batch is not None:
                            collect_batch(chunk)
                        else:
                            for key, value in chunk:
                                buffer.collect(key, value)
                with rec.span("mr.buffer.finalize", task=task_id):
                    buffer.finalize()
                spills += buffer.spill_count
                spilled_records += counters.get_int(C.MAP_SPILLED_RECORDS)
                materialized += counters.get_int(C.MAP_OUTPUT_MATERIALIZED_BYTES)
            values["mr.buffer.spills"] = spills
            values["mr.buffer.spilled_records"] = spilled_records
            self.ops.check(
                materialized
                == first.result.counters.get_int(C.MAP_OUTPUT_MATERIALIZED_BYTES),
                f"{workload.name}: buffer feed wrote {materialized} map output "
                "bytes, the walk's MapTask another number",
            )

            # Codec, serde and merge over the walk's real map output.
            codec_on = original_job.map_output_codec is not None
            raw_bytes = stored_bytes = encoded_bytes = segments = 0
            partitions: list[list] = []
            for partition in range(original_job.num_reducers):
                runs = []
                for result in first.map_results:
                    payload = result.segments.get(partition)
                    if payload is None:
                        continue
                    data = payload.data
                    if codec_on:
                        with rec.span("mr.compress.decompress"):
                            raw = payload.codec.decompress(data)
                        with rec.span("mr.compress.compress"):
                            payload.codec.compress(raw)
                    else:
                        raw = data
                    raw_bytes += len(raw)
                    stored_bytes += len(data)
                    with rec.span("mr.serde.decode"):
                        runs.append(serde.decode_stream(raw))
                segments += len(runs)
                with rec.span("mr.merge", partition=partition):
                    merged = merge_runs(runs, original_job.comparator)
                scratch = bytearray()
                with rec.span("mr.serde.encode"):
                    serde.encode_kv_batch(scratch, merged)
                encoded_bytes += len(scratch)
                partitions.append(merged)
            values["mr.serde.bytes"] = encoded_bytes
            values["mr.merge.segments"] = segments
            if codec_on:
                values["mr.compress.ratio"] = raw_bytes / stored_bytes

            # Shared: the largest partition of Original's map output,
            # sized as the AdaptiveSH job configures it.
            records = max(partitions, key=len)
            counters = Counters()
            shared = Shared(
                original_job.comparator,
                original_job.effective_grouping_comparator,
                LocalStore(counters, node="feed/shared"),
                counters,
                memory_limit_bytes=adaptive_job.anti.shared_memory_bytes,
                merge_threshold=adaptive_job.anti.shared_merge_threshold,
            )
            with rec.span("core.shared.add"):
                for key, value in records:
                    shared.add(key, value)
            with rec.span("core.shared.pop"):
                while not shared.is_empty():
                    shared.pop_min_key_values()
            values["core.shared.spills"] = shared.spill_count
            values["core.shared.spilled_bytes"] = counters.get_int(
                C.ANTI_SHARED_SPILLED_BYTES
            )

        if workload.name == "qs_pool2":
            values.update(self._feed_executor(first))
        if isinstance(workload, PagerankPipeline):
            structure, _ = split_graph(workload.graph)
            store = DatasetStore()
            dataset = Dataset(0, "structure")
            store.put(dataset, structure)
            with rec.span("pipeline.dataset", read="miss"):
                store.read(dataset)
            with rec.span("pipeline.dataset", read="hit"):
                store.read(dataset)
        if workload.name == "qs_prefix":
            values.update(self._feed_observers(adaptive_job, outcomes[ADAPTIVE]))
        return values

    def _feed_executor(self, first: WalkedJob) -> dict[str, float]:
        workload, rec = self.workload, self.rec
        width = workload.pool.max_workers
        with rec.span("mr.executor.pool_start"):
            pool = ParallelExecutor(width)
            for future in pool.submit_many(echo, [(i,) for i in range(width)]):
                future.result()
        with rec.span("mr.executor.pool_close"):
            pool.close()
        payload = next(iter(first.map_results[0].segments.values()))
        trips = []
        for _ in range(_ROUNDTRIPS):
            with rec.span("mr.executor.roundtrip", bytes=payload.size_bytes) as span:
                for future in workload.pool.submit_many(echo, [(payload,)]):
                    future.result()
            trips.append(span.duration)
        return {"mr.executor.roundtrip_ms": statistics.median(trips) * 1000.0}

    def _feed_observers(self, job: JobConf, plain: Outcome) -> dict[str, float]:
        """One AdaptiveSH job under a Tracer / a FlightRecorder vs neither."""
        workload, rec = self.workload, self.rec

        def timed_run(span_name: str, **runner_kwargs: Any) -> float:
            gc.collect()
            with rec.span(span_name) as span:
                LocalJobRunner(executor=workload.serial, **runner_kwargs).run(
                    job, workload.splits
                )
            return span.duration

        traced = timed_run("obs.trace", tracer=Tracer())
        ledger = self.scratch / "recorder-ledger"
        recorder = FlightRecorder(RunStore(ledger), kind="bench", name="e2e")
        set_flight_recorder(recorder)
        try:
            recorded = timed_run("obs.flightrecorder")
        finally:
            clear_flight_recorder()
            recorder.finalize()
            shutil.rmtree(ledger, ignore_errors=True)
        return {
            "obs.trace.overhead_x": traced / plain.wall_s,
            "obs.flightrecorder.overhead_x": recorded / plain.wall_s,
        }

    # -- the run's result ----------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Median over the traced iterations of every sampled value."""
        return {
            name: statistics.median(sample[name] for sample in self.samples)
            for name in self.samples[0]
        }

    def span_coverage(self) -> float:
        """Share of the traced iteration walls that child spans account for."""
        own = self.rec.self_times()
        roots = [span for span in self.rec.spans if span.name == "iteration"]
        wall = sum(span.duration for span in roots)
        return 1.0 - sum(own[span.span_id] for span in roots) / wall
