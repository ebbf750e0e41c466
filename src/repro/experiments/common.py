"""Shared measurement plumbing for the experiment drivers."""

from __future__ import annotations

import gc
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

from repro.core.config import Strategy
from repro.core.transform import enable_anti_combining
from repro.mr import counters as C
from repro.mr.config import JobConf
from repro.mr.engine import JobResult, LocalJobRunner
from repro.mr.executor import Executor
from repro.mr.runtime_model import ClusterModel


@contextmanager
def paused_gc() -> Iterator[None]:
    """Pause cyclic GC for a whole multi-job experiment sweep.

    The engine already pauses collection inside each job run; pausing
    across the sweep also skips the catch-up collections *between*
    jobs, which rescan every retained ``JobResult`` output graph and
    dominate collector time in a strategy-sweep driver.  Collection
    resumes (and catches up once) when the sweep finishes.
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@dataclass
class MeasuredRun:
    """The paper-reported quantities of one job execution."""

    name: str
    map_output_bytes: int
    map_output_records: int
    disk_read_bytes: int
    disk_write_bytes: int
    shuffle_bytes: int
    cpu_seconds: float
    runtime_seconds: float
    shared_spills: int
    result: JobResult

    @classmethod
    def from_result(
        cls,
        name: str,
        result: JobResult,
        cluster: ClusterModel | None = None,
    ) -> "MeasuredRun":
        return cls(
            name=name,
            map_output_bytes=result.map_output_bytes,
            map_output_records=result.map_output_records,
            disk_read_bytes=result.disk_read_bytes,
            disk_write_bytes=result.disk_write_bytes,
            shuffle_bytes=result.shuffle_bytes,
            cpu_seconds=result.cpu_seconds,
            runtime_seconds=result.runtime(cluster).total_seconds,
            shared_spills=result.counters.get_int(C.ANTI_SHARED_SPILLS),
            result=result,
        )


def measure_job(
    name: str,
    job: JobConf,
    splits: Sequence[Iterable[tuple[Any, Any]]],
    cluster: ClusterModel | None = None,
    runner: LocalJobRunner | None = None,
    executor: Executor | None = None,
) -> MeasuredRun:
    """Run one job and capture the quantities the paper reports.

    ``executor`` is the backend for this measurement; when omitted,
    :class:`LocalJobRunner` runs the job on the ``--jobs``/``REPRO_JOBS``
    default.  The measured byte/record quantities are identical across
    backends; only wall-clock concurrency differs.
    """
    if runner is None:
        runner = LocalJobRunner(executor=executor)
    result = runner.run(job, splits)
    return MeasuredRun.from_result(name, result, cluster)


def strategy_variants(
    job: JobConf,
    threshold_t: float = math.inf,
    use_map_combiner: bool = False,
    include_pure: bool = True,
    **anti_kwargs: Any,
) -> dict[str, JobConf]:
    """The four configurations every figure compares.

    Returns ``{"Original": ..., "EagerSH": ..., "LazySH": ...,
    "AdaptiveSH": ...}`` (the pure strategies only when
    ``include_pure``), all sharing the original job's black boxes.
    """
    variants: dict[str, JobConf] = {"Original": job}
    if include_pure:
        variants["EagerSH"] = enable_anti_combining(
            job,
            strategy=Strategy.EAGER,
            use_map_combiner=use_map_combiner,
            **anti_kwargs,
        )
        variants["LazySH"] = enable_anti_combining(
            job,
            strategy=Strategy.LAZY,
            use_map_combiner=use_map_combiner,
            **anti_kwargs,
        )
    variants["AdaptiveSH"] = enable_anti_combining(
        job,
        strategy=Strategy.ADAPTIVE,
        threshold_t=threshold_t,
        use_map_combiner=use_map_combiner,
        **anti_kwargs,
    )
    return variants
