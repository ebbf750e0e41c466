"""The :class:`Pipeline` facade and its execution driver.

A pipeline is declared as a dataflow graph — sources, driver-side
transforms, MapReduce jobs, convergence loops — over named datasets,
then executed with :meth:`Pipeline.run`:

* stages are scheduled **topologically**; stages of one wave are
  mutually independent and MapReduce stages among them may run
  **concurrently** (``max_concurrent_stages``) on driver threads, each
  job using the engine's executor resolution (so a shared process pool
  serves parallel branches);
* every dataset crossing a stage boundary is **materialized** through
  the content-addressed :class:`~repro.pipeline.dataset.DatasetStore`,
  so loop-invariant inputs are serde-encoded exactly once;
* :meth:`Pipeline.iterate` runs a body that declares a fresh sub-graph
  per iteration until a convergence policy says stop;
* the run is ledgered end to end: ``pipeline.stage.*`` spans, a
  pipeline :class:`~repro.obs.metrics.MetricsRegistry`, and per-stage
  counter roll-ups folded — in deterministic stage order — into the
  :class:`~repro.pipeline.result.PipelineResult`.

Determinism contract: stage results, counter folds, dataset ledgers
and loop iteration counts are identical across ``max_concurrent_stages``
settings and engine executors (wall-clock timings excepted), because
every fold happens in declaration order, never completion order.
"""

from __future__ import annotations

import itertools
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Mapping, Sequence

from repro.mr.config import JobConf
from repro.mr.engine import LocalJobRunner
from repro.mr.split import split_records
from repro.obs.metrics import MetricsRegistry
from repro.obs.flightrecorder import current_flight_recorder
from repro.obs.trace import SpanRecord
from repro.pipeline.convergence import resolve_until
from repro.pipeline.dataset import Dataset, DatasetStore
from repro.pipeline.graph import (
    LOOP,
    MAPREDUCE,
    SOURCE,
    TRANSFORM,
    JobGraph,
    PipelineError,
    Stage,
)
from repro.pipeline.result import PipelineResult, StageResult

Record = tuple[Any, Any]
#: ``body(sub_pipeline, loop_vars, iteration) -> new loop_vars``.
LoopBody = Callable[["Pipeline", dict[str, Dataset], int], Mapping[str, Dataset]]

#: Stage/dataset ids are allocated process-wide, so a handle from one
#: pipeline can never collide with (and silently stand in for) another
#: pipeline's dataset — consuming a foreign handle fails validation
#: instead.  Only the relative order within one pipeline matters.
_GLOBAL_IDS = itertools.count()


def _as_datasets(inputs: Dataset | Sequence[Dataset]) -> list[Dataset]:
    if isinstance(inputs, Dataset):
        return [inputs]
    datasets = list(inputs)
    if not datasets:
        raise PipelineError("a stage needs at least one input dataset")
    for dataset in datasets:
        if not isinstance(dataset, Dataset):
            raise PipelineError(
                f"stage inputs must be Dataset handles, got {dataset!r}"
            )
    return datasets


class Pipeline:
    """Builder + runner of one dataflow graph.

    ``runner`` is the :class:`~repro.mr.engine.LocalJobRunner` every
    MapReduce stage goes through (fault policy, retries, speculation
    and executor resolution all apply per stage); default: a fresh
    runner with default resolution.  ``max_concurrent_stages`` > 1 lets
    independent MapReduce branches of one wave run concurrently.
    """

    def __init__(
        self,
        name: str = "pipeline",
        runner: LocalJobRunner | None = None,
        max_concurrent_stages: int = 1,
        _ids: Any = None,
        _prefix: str = "",
    ):
        if max_concurrent_stages < 1:
            raise PipelineError("max_concurrent_stages must be >= 1")
        self.name = name
        self._runner = runner
        self._max_concurrent = max_concurrent_stages
        self._ids = _ids if _ids is not None else _GLOBAL_IDS
        self._prefix = _prefix
        self._graph = JobGraph(name)

    # -- declaration -----------------------------------------------------
    def _qualify(self, name: str) -> str:
        if not name:
            raise PipelineError("stage/dataset names must be non-empty")
        return self._prefix + name

    def _dataset(self, name: str, producer: int) -> Dataset:
        return Dataset(next(self._ids), self._qualify(name), producer)

    def source(
        self, name: str, records: Sequence[Record]
    ) -> Dataset:
        """Declare a literal input dataset."""
        stage_id = next(self._ids)
        output = self._dataset(name, stage_id)
        self._graph.add_stage(
            Stage(
                stage_id,
                self._qualify(name),
                SOURCE,
                inputs=[],
                outputs=[output],
                records=list(records),
            )
        )
        return output

    def transform(
        self,
        name: str,
        fn: Callable[..., Any],
        inputs: Dataset | Sequence[Dataset],
        outputs: Sequence[str] | None = None,
    ) -> Dataset | tuple[Dataset, ...]:
        """Declare a driver-side transform over whole datasets.

        ``fn`` receives one record list per input dataset.  With the
        default single output it returns the output records (the
        dataset takes the stage's name); with ``outputs`` naming
        several datasets it returns a sequence of record lists in that
        order, and a tuple of handles is returned.
        """
        datasets = _as_datasets(inputs)
        stage_id = next(self._ids)
        if outputs is None:
            outs = [self._dataset(name, stage_id)]
        else:
            if not outputs:
                raise PipelineError("outputs must name at least one dataset")
            outs = [self._dataset(out, stage_id) for out in outputs]
        self._graph.add_stage(
            Stage(
                stage_id,
                self._qualify(name),
                TRANSFORM,
                inputs=datasets,
                outputs=outs,
                fn=fn,
            )
        )
        return outs[0] if outputs is None else tuple(outs)

    def mapreduce(
        self,
        name: str,
        job: JobConf,
        inputs: Dataset | Sequence[Dataset],
        num_splits: int = 8,
    ) -> Dataset:
        """Declare one MapReduce job over the concatenated inputs.

        The stage's input records are the input datasets' records in
        declaration order, split with
        :func:`~repro.mr.split.split_records`; the output dataset is
        the job's reduce output in partition order (exactly
        ``JobResult.output``).
        """
        if not isinstance(job, JobConf):
            raise PipelineError(
                f"mapreduce stage {name!r} needs a JobConf, got {job!r}"
            )
        if num_splits < 1:
            raise PipelineError("num_splits must be >= 1")
        datasets = _as_datasets(inputs)
        stage_id = next(self._ids)
        output = self._dataset(name, stage_id)
        self._graph.add_stage(
            Stage(
                stage_id,
                self._qualify(name),
                MAPREDUCE,
                inputs=datasets,
                outputs=[output],
                job=job,
                num_splits=num_splits,
            )
        )
        return output

    def iterate(
        self,
        name: str,
        body: LoopBody,
        state: Mapping[str, Dataset],
        until: Any,
    ) -> dict[str, Dataset]:
        """Declare a convergence loop.

        ``state`` maps loop-variable names to their initial datasets.
        Each iteration, ``body(sub, vars, iteration)`` declares stages
        on the fresh sub-pipeline ``sub`` (stage/dataset names are
        auto-qualified ``loop[i].*``) and returns the next iteration's
        datasets for every loop variable.  Datasets from the enclosing
        scope (e.g. a loop-invariant graph structure) may be consumed
        freely — their materialization is cached across iterations.

        ``until`` is an iteration count or a policy from
        :mod:`repro.pipeline.convergence`.  Returns stable handles to
        the final value of every loop variable.
        """
        if not state:
            raise PipelineError("iterate() needs at least one loop variable")
        policy = resolve_until(until)
        for var, dataset in state.items():
            if not isinstance(dataset, Dataset):
                raise PipelineError(
                    f"loop variable {var!r} must be bound to a Dataset"
                )
        if getattr(policy, "needs_records", False):
            if policy.watch not in state:
                raise PipelineError(
                    f"until= watches unknown loop variable "
                    f"{policy.watch!r}; have: {sorted(state)}"
                )
        stage_id = next(self._ids)
        outputs = {
            var: self._dataset(f"{name}.{var}", stage_id) for var in state
        }
        self._graph.add_stage(
            Stage(
                stage_id,
                self._qualify(name),
                LOOP,
                inputs=list(state.values()),
                outputs=list(outputs.values()),
                body=body,
                state=dict(state),
                until=policy,
            )
        )
        return outputs

    # -- execution -------------------------------------------------------
    def run(self) -> PipelineResult:
        """Execute the graph; see the module docstring for semantics."""
        runner = (
            self._runner if self._runner is not None else LocalJobRunner()
        )
        metrics = MetricsRegistry()
        store = DatasetStore(metrics)
        execution = _Execution(
            runner, store, metrics, self._ids, self._max_concurrent
        )
        started = time.perf_counter()
        stage_results = execution.run_graph(self._graph)
        seconds = time.perf_counter() - started

        # Fold every job's counters in stage (declaration/iteration)
        # order — never completion order — so totals are reproducible
        # across concurrency settings and executors.
        for stage in stage_results:
            if stage.job_result is not None:
                metrics.merge_counters(stage.job_result.counters)
        metrics.gauge(
            "pipeline.stages.executed", "Stages executed by this run"
        ).set(len(stage_results))

        result = PipelineResult(
            name=self.name,
            stages=stage_results,
            counters=metrics.job_counters(),
            metrics=metrics,
            datasets=store.infos(),
            outputs=store.records_by_name(),
            loop_iterations=execution.loop_iterations,
            spans=execution.spans,
            seconds=seconds,
        )
        recorder = current_flight_recorder()
        if recorder is not None:
            # Stage jobs were already recorded one by one through the
            # engine hook; this entry adds the pipeline-level ledger
            # and the stage timeline.
            recorder.record_pipeline(self.name, result)
        return result


class _Execution:
    """Mutable state of one pipeline run, shared across sub-graphs."""

    def __init__(
        self,
        runner: LocalJobRunner,
        store: DatasetStore,
        metrics: MetricsRegistry,
        ids: Any,
        max_concurrent: int,
    ):
        self.runner = runner
        self.store = store
        self.metrics = metrics
        self.ids = ids
        self.max_concurrent = max_concurrent
        self.loop_iterations: dict[str, int] = {}
        self.spans: list[SpanRecord] = []
        self._epoch = time.perf_counter()
        self._stage_wall = metrics.histogram(
            "pipeline.stage.wall.seconds", "Wall seconds per stage"
        )
        self._stages_total = metrics.counter(
            "pipeline.stages.total", "Stages executed (loop bodies count)"
        )
        self._jobs_total = metrics.counter(
            "pipeline.jobs.total", "MapReduce jobs executed"
        )
        self._loops_total = metrics.counter(
            "pipeline.loop.iterations", "Loop iterations executed"
        )

    def _now(self) -> float:
        return time.perf_counter() - self._epoch

    # -- graph scheduling ------------------------------------------------
    def run_graph(self, graph: JobGraph) -> list[StageResult]:
        """Run one graph wave by wave; results in declaration order."""
        graph.validate(self.store.has)
        results: list[StageResult] = []
        for wave in graph.topo_order():
            # MapReduce stages of one wave are independent jobs; fan
            # them out on driver threads when concurrency is enabled.
            # Loops and transforms run inline on the driver thread
            # (loops schedule their own sub-graphs recursively).
            parallel = (
                [s for s in wave if s.kind == MAPREDUCE]
                if self.max_concurrent > 1 and len(wave) > 1
                else []
            )
            inline = [s for s in wave if s not in parallel]
            buckets: dict[int, list[StageResult]] = {}
            if parallel:
                with ThreadPoolExecutor(
                    max_workers=min(self.max_concurrent, len(parallel))
                ) as pool:
                    futures = {
                        stage.stage_id: pool.submit(self._run_stage, stage)
                        for stage in parallel
                    }
                    for stage in inline:
                        buckets[stage.stage_id] = self._run_stage(stage)
                    for stage_id, future in futures.items():
                        buckets[stage_id] = future.result()
            else:
                for stage in inline:
                    buckets[stage.stage_id] = self._run_stage(stage)
            for stage in wave:
                results.extend(buckets[stage.stage_id])
        return results

    # -- stage execution -------------------------------------------------
    def _run_stage(self, stage: Stage) -> list[StageResult]:
        if stage.kind == LOOP:
            return self._run_loop(stage)
        started = self._now()
        result = StageResult(
            name=stage.name, kind=stage.kind, started_at=started
        )
        if stage.kind == SOURCE:
            assert stage.records is not None
            self.store.put(stage.outputs[0], stage.records)
            result.records_out = len(stage.records)
        elif stage.kind == TRANSFORM:
            self._run_transform(stage, result)
        elif stage.kind == MAPREDUCE:
            self._run_mapreduce(stage, result)
        else:  # pragma: no cover - construction prevents this
            raise PipelineError(f"unknown stage kind {stage.kind!r}")
        result.seconds = self._now() - started
        self._record_stage(stage, result)
        return [result]

    def _run_transform(self, stage: Stage, result: StageResult) -> None:
        assert stage.fn is not None
        inputs = [self.store.read(dataset) for dataset in stage.inputs]
        produced = stage.fn(*inputs)
        if len(stage.outputs) == 1:
            produced = [produced]
        else:
            produced = list(produced)
            if len(produced) != len(stage.outputs):
                raise PipelineError(
                    f"transform {stage.name!r} returned "
                    f"{len(produced)} outputs, declared "
                    f"{len(stage.outputs)}"
                )
        for dataset, records in zip(stage.outputs, produced):
            records = (
                records if isinstance(records, list) else list(records)
            )
            self.store.put(dataset, records)
            result.records_out += len(records)

    def _run_mapreduce(self, stage: Stage, result: StageResult) -> None:
        assert stage.job is not None and stage.num_splits is not None
        records: list[Record] = []
        sizes: list[int] = []
        for dataset in stage.inputs:
            dataset_records, dataset_sizes = self.store.read_sized(dataset)
            records.extend(dataset_records)
            sizes.extend(dataset_sizes)
        # Each split carries its encoded length, cut from the inputs'
        # encodings, so map tasks charge input bytes without encoding.
        splits = split_records(
            records, num_splits=stage.num_splits, sizes=sizes
        )
        job_result = self.runner.run(
            stage.job, splits, keep_output_encoding=True
        )
        # The reduce tasks' encoding of the output becomes the dataset's
        # materialization: the store never encodes it again.
        self.store.put(
            stage.outputs[0], job_result.output, job_result.encoded_output()
        )
        result.job_result = job_result
        result.counters = job_result.counters
        result.records_out = len(job_result.output)
        self._jobs_total.add()

    def _run_loop(self, stage: Stage) -> list[StageResult]:
        assert stage.body is not None and stage.state is not None
        policy = stage.until
        started = self._now()
        loop_vars = dict(stage.state)
        previous: dict[str, list[Record]] | None = None
        nested: list[StageResult] = []
        iteration = 0
        while True:
            iteration += 1
            sub = Pipeline(
                name=f"{stage.name}[{iteration}]",
                _ids=self.ids,
                _prefix=f"{stage.name}[{iteration}].",
            )
            next_vars = stage.body(sub, dict(loop_vars), iteration)
            if set(next_vars) != set(loop_vars):
                raise PipelineError(
                    f"loop {stage.name!r} body returned variables "
                    f"{sorted(next_vars)}, expected {sorted(loop_vars)}"
                )
            nested.extend(self.run_graph(sub._graph))
            loop_vars = dict(next_vars)
            self._loops_total.add()
            if getattr(policy, "needs_records", False):
                current = {
                    var: self.store.peek(dataset)
                    for var, dataset in loop_vars.items()
                }
            else:
                current = {}
            if policy.done(iteration, previous, current):
                break
            previous = current if current else None
        # Bind the loop's stable output handles to the final iteration's
        # datasets — an alias, so no re-encode is charged.
        by_var = dict(zip(stage.state, stage.outputs))
        for var, output in by_var.items():
            self.store.alias(output, loop_vars[var])
        summary = StageResult(
            name=stage.name,
            kind=LOOP,
            started_at=started,
            seconds=self._now() - started,
            iterations=iteration,
        )
        self.loop_iterations[stage.name] = iteration
        self._record_stage(stage, summary)
        return nested + [summary]

    def _record_stage(self, stage: Stage, result: StageResult) -> None:
        self._stages_total.add()
        self._stage_wall.observe(result.seconds)
        self.spans.append(
            SpanRecord(
                name=f"pipeline.stage.{result.name}",
                start=result.started_at,
                duration=result.seconds,
                category="pipeline",
                attrs={
                    "kind": result.kind,
                    "records_out": result.records_out,
                    **(
                        {"iterations": result.iterations}
                        if result.kind == LOOP
                        else {}
                    ),
                },
            )
        )
