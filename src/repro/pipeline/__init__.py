"""Dataflow pipelines over the MapReduce engine.

Declare a DAG of sources, transforms, MapReduce jobs and convergence
loops over named datasets; run it stage by stage in declaration order,
with content-addressed dataset materialization and an end-to-end
counter/span ledger.  See :class:`Pipeline` for the facade and DESIGN.md §10
for the model.
"""

from repro.pipeline.api import Pipeline
from repro.pipeline.convergence import (
    FixedIterations,
    ResidualThreshold,
    max_value_delta,
)
from repro.pipeline.dataset import Dataset, DatasetInfo, DatasetStore
from repro.pipeline.graph import JobGraph, PipelineError, Stage
from repro.pipeline.result import PipelineResult, StageResult

__all__ = [
    "Pipeline",
    "FixedIterations",
    "ResidualThreshold",
    "max_value_delta",
    "Dataset",
    "DatasetInfo",
    "DatasetStore",
    "JobGraph",
    "PipelineError",
    "Stage",
    "PipelineResult",
    "StageResult",
]
