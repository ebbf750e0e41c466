"""The job graph: stages as nodes, named datasets as edges.

A :class:`JobGraph` is a static DAG assembled by the
:class:`~repro.pipeline.api.Pipeline` facade.  Stage kinds:

* ``source`` — literal records, injected by the driver program;
* ``transform`` — a driver-side Python function over whole datasets
  (the glue between jobs: re-keying, joining state, normalising);
* ``mapreduce`` — one MapReduce job run through the engine, its input
  split from the concatenated input datasets;
* ``loop`` — a convergence loop whose body builds a fresh sub-graph
  per iteration (see :meth:`~repro.pipeline.api.Pipeline.iterate`).

A stage can only consume datasets that already exist when it is
declared, so declaration order is a topological order: the pipeline
runs the stages in it, and results, counter folds and ledgers are
reproducible on every executor.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

from repro.mr.config import JobConf
from repro.pipeline.dataset import Dataset

SOURCE = "source"
TRANSFORM = "transform"
MAPREDUCE = "mapreduce"
LOOP = "loop"


class PipelineError(ValueError):
    """Raised for malformed pipelines (duplicate names, bad wiring)."""


class Stage:
    """One node of the graph.  Payload fields depend on ``kind``."""

    def __init__(
        self,
        stage_id: int,
        name: str,
        kind: str,
        inputs: Sequence[Dataset],
        outputs: Sequence[Dataset],
        *,
        records: Sequence[tuple] | None = None,
        fn: Callable[..., Any] | None = None,
        job: JobConf | None = None,
        num_splits: int | None = None,
        body: Callable[..., Mapping[str, Dataset]] | None = None,
        state: Mapping[str, Dataset] | None = None,
        until: Any = None,
    ):
        self.stage_id = stage_id
        self.name = name
        self.kind = kind
        self.inputs = list(inputs)
        self.outputs = list(outputs)
        self.records = records
        self.fn = fn
        self.job = job
        self.num_splits = num_splits
        self.body = body
        self.state = dict(state) if state is not None else None
        self.until = until

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Stage({self.stage_id}, {self.name!r}, {self.kind})"


class JobGraph:
    """The stages and datasets of one pipeline (or loop iteration)."""

    def __init__(self, name: str = "pipeline"):
        self.name = name
        self.stages: list[Stage] = []
        self._stage_names: set[str] = set()
        self._dataset_names: set[str] = set()
        #: Dataset ids produced by a stage of *this* graph.
        self._produced: dict[int, Stage] = {}

    # -- construction ----------------------------------------------------
    def add_stage(self, stage: Stage) -> Stage:
        if stage.name in self._stage_names:
            raise PipelineError(
                f"duplicate stage name {stage.name!r} in {self.name!r}"
            )
        for dataset in stage.outputs:
            if dataset.name in self._dataset_names:
                raise PipelineError(
                    f"duplicate dataset name {dataset.name!r} "
                    f"in {self.name!r}"
                )
        self._stage_names.add(stage.name)
        for dataset in stage.outputs:
            self._dataset_names.add(dataset.name)
            self._produced[dataset.dataset_id] = stage
        self.stages.append(stage)
        return stage

    def producer_of(self, dataset: Dataset) -> Stage | None:
        """The stage of this graph producing ``dataset`` (``None`` for
        external inputs, e.g. an outer-scope dataset used in a loop)."""
        return self._produced.get(dataset.dataset_id)

    def validate(self, available: Callable[[Dataset], bool]) -> None:
        """Check every external input is resolvable.

        ``available`` answers whether a dataset not produced by this
        graph already exists (outer scope / previous loop iteration).
        """
        for stage in self.stages:
            for dataset in stage.inputs:
                if dataset.dataset_id in self._produced:
                    continue
                if not available(dataset):
                    raise PipelineError(
                        f"stage {stage.name!r} consumes unknown dataset "
                        f"{dataset.name!r}"
                    )
