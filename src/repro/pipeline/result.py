"""Pipeline run results: the per-stage and whole-run ledgers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.mr.counters import Counters
from repro.mr.engine import JobResult
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import SpanRecord
from repro.pipeline.dataset import DatasetInfo


@dataclass
class StageResult:
    """What one executed stage produced and cost."""

    name: str
    kind: str
    #: Wall-clock seconds of the stage on the pipeline timeline.
    seconds: float = 0.0
    #: Offset of the stage start since pipeline start.
    started_at: float = 0.0
    #: The engine result, for ``mapreduce`` stages only.
    job_result: JobResult | None = None
    #: Stage-level counter roll-up (the job's counters for a
    #: ``mapreduce`` stage; empty otherwise).
    counters: Counters = field(default_factory=Counters)
    #: Records written to the stage's output datasets.
    records_out: int = 0
    #: Iterations executed, for ``loop`` stages only.
    iterations: int = 0


@dataclass
class PipelineResult:
    """Everything one pipeline run produced, measured and cached.

    ``stages`` lists every executed stage in deterministic (declaration
    /iteration) order — loop bodies contribute one entry per stage per
    iteration, labelled ``loop[i].stage``.  ``counters`` is the fold of
    every MapReduce stage's job counters in that same order, so
    aggregates are reproducible across executors.  ``metrics``
    additionally carries the pipeline-level ledger: dataset encode
    hits/misses, content dedup, stage walls.
    """

    name: str
    stages: list[StageResult] = field(default_factory=list)
    #: Fold of all MapReduce stages' job counters, in stage order.
    counters: Counters = field(default_factory=Counters)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    #: Ledger of every dataset, keyed by qualified name.
    datasets: dict[str, DatasetInfo] = field(default_factory=dict)
    #: Records of every dataset, keyed by qualified name.
    outputs: dict[str, list] = field(default_factory=dict)
    #: Iterations executed per loop stage (qualified name).
    loop_iterations: dict[str, int] = field(default_factory=dict)
    #: ``pipeline.stage.*`` spans on the pipeline timeline.
    spans: list[SpanRecord] = field(default_factory=list)
    #: Total wall seconds of the run.
    seconds: float = 0.0

    def job_results(self) -> list[JobResult]:
        """Every MapReduce stage's :class:`JobResult`, in stage order."""
        return [
            stage.job_result
            for stage in self.stages
            if stage.job_result is not None
        ]

    def dataset(self, name: str) -> list:
        """Records of the dataset with the given qualified name."""
        try:
            return self.outputs[name]
        except KeyError:
            known = ", ".join(sorted(self.outputs))
            raise KeyError(
                f"no dataset named {name!r}; known: {known}"
            ) from None

    def stage(self, name: str) -> StageResult:
        """The stage result with the given qualified name."""
        for stage in self.stages:
            if stage.name == name:
                return stage
        known = ", ".join(s.name for s in self.stages)
        raise KeyError(f"no stage named {name!r}; known: {known}")

    # -- cache ledger convenience ---------------------------------------
    @property
    def encode_misses(self) -> int:
        return int(
            self.metrics.counter_values().get(
                "pipeline.dataset.encode.misses", 0
            )
        )

    @property
    def encode_hits(self) -> int:
        return int(
            self.metrics.counter_values().get(
                "pipeline.dataset.encode.hits", 0
            )
        )

    def summary(self) -> dict[str, Any]:
        """One-line ledger for experiment notes and logs."""
        return {
            "stages": len(self.stages),
            "jobs": len(self.job_results()),
            "encode_misses": self.encode_misses,
            "encode_hits": self.encode_hits,
            "loop_iterations": dict(self.loop_iterations),
            "seconds": round(self.seconds, 6),
        }
