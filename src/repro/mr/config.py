"""Job configuration (the simulator's ``JobConf``).

A job bundles the user's black boxes (mapper/reducer/combiner factories
and a partitioner) with the framework knobs Hadoop exposes: number of
reduce tasks, sort-buffer size, merge factor, map-output compression
codec, and comparators.  Two extra knobs belong to the simulator: the
CPU :class:`~repro.mr.cost.CostMeter` and the analytic
:class:`~repro.mr.cost.FrameworkCostModel`.

Mapper/reducer/combiner are given as zero-argument *factories* (usually
just the class) because, like Hadoop, the engine instantiates one fresh
instance per task.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.mr.api import Combiner, HashPartitioner, Mapper, Partitioner, Reducer
from repro.mr.comparators import Comparator, default_comparator
from repro.mr.compress import get_codec
from repro.mr.cost import CostMeter, FrameworkCostModel, PerfCounterMeter

MapperFactory = Callable[[], Mapper]
ReducerFactory = Callable[[], Reducer]
CombinerFactory = Callable[[], Combiner]


#: Per-record accounting overhead in the sort buffer — Hadoop 1.x keeps
#: 16 bytes of metadata per record in the kvbuffer, so jobs with many
#: tiny records spill on record count, not data volume.  Anti-Combining's
#: record-count reduction buys proportionally more buffer headroom, which
#: is the paper's WordCount disk-I/O effect.
SORT_RECORD_OVERHEAD_BYTES = 16


class JobConfError(ValueError):
    """Raised for invalid job configurations."""


@dataclass
class JobConf:
    """Complete configuration of one MapReduce job."""

    mapper: MapperFactory
    reducer: ReducerFactory
    combiner: CombinerFactory | None = None
    partitioner: Partitioner = field(default_factory=HashPartitioner)
    num_reducers: int = 1
    name: str = "job"

    #: Sort (key) comparator; reduce calls happen in this order.
    comparator: Comparator = default_comparator
    #: Grouping comparator deciding which consecutive keys share one
    #: reduce call (secondary sort); defaults to the sort comparator.
    grouping_comparator: Comparator | None = None

    #: Map-output compression codec name (see repro.mr.compress).
    map_output_codec: str | None = None

    #: Map-side sort buffer capacity in (serialised) bytes — Hadoop's
    #: io.sort.mb.  A spill is triggered when the buffer fills.
    sort_buffer_bytes: int = 8 * 1024 * 1024
    #: Fraction of the sort buffer reserved for per-record metadata
    #: (:data:`SORT_RECORD_OVERHEAD_BYTES` a record) — Hadoop 1.x's
    #: io.sort.record.percent (default 0.05).
    #: The buffer spills when EITHER region fills, so jobs with many
    #: tiny records hit the record-count ceiling first.
    sort_record_percent: float = 0.05
    #: Maximum number of runs merged at once — Hadoop's io.sort.factor.
    merge_factor: int = 10
    #: Reduce-side memory for fetched map output; if the fetched
    #: segments exceed this, they are staged on local disk before the
    #: merge (and the extra disk traffic is accounted).
    reduce_buffer_bytes: int = 8 * 1024 * 1024

    #: Attempts per task before the job fails (1 = fail fast, no
    #: retry — Hadoop's ``mapred.map.max.attempts`` analogue).
    max_task_attempts: int = 1
    #: Wall-clock budget of one task attempt, in seconds; an attempt
    #: exceeding it is cancelled (or abandoned, if already running) and
    #: retried like a failure, with a TIMEOUT event in the job's event
    #: log — Hadoop's ``mapred.task.timeout`` analogue.  ``None``
    #: disables timeouts.  Only asynchronous executors can time out;
    #: the serial executor completes every attempt inline.
    task_timeout_seconds: float | None = None
    #: Base delay before re-running a failed/timed-out attempt.  The
    #: delay doubles per retry of the same task (attempt 2 waits the
    #: base, attempt 3 twice that, ...), so a systematically failing
    #: task backs off exponentially and deterministically.  0 retries
    #: immediately (the historical behaviour).
    retry_backoff_seconds: float = 0.0
    #: Launch speculative backup attempts for stragglers (Hadoop's
    #: ``mapred.*.tasks.speculative.execution``).  The first attempt to
    #: finish wins; the loser is killed and its counters discarded, so
    #: analytic counters stay bit-identical with speculation on or off.
    speculative_execution: bool = False
    #: A wave must be at least this fraction complete before backups
    #: launch (enough finished tasks to estimate a typical duration).
    speculative_quantile: float = 0.75
    #: A running attempt is a straggler when it has run longer than
    #: this multiple of the median successful duration in its wave.
    speculative_slack: float = 2.0

    #: CPU meter wrapping user-function calls.
    cost_meter: CostMeter = field(default_factory=PerfCounterMeter)
    #: Analytic charges for framework work (sort/serialise/stream).
    framework_cost_model: FrameworkCostModel = field(
        default_factory=FrameworkCostModel
    )

    #: Anti-Combining configuration; installed by
    #: :func:`repro.core.transform.enable_anti_combining`.  ``None``
    #: means the job runs unmodified.
    anti: Any = None

    def __post_init__(self) -> None:
        if self.num_reducers < 1:
            raise JobConfError("num_reducers must be >= 1")
        if self.sort_buffer_bytes < 1024:
            raise JobConfError("sort_buffer_bytes must be >= 1 KiB")
        if self.merge_factor < 2:
            raise JobConfError("merge_factor must be >= 2")
        if not 0 < self.sort_record_percent <= 1:
            raise JobConfError("sort_record_percent must be in (0, 1]")
        if not callable(self.mapper):
            raise JobConfError("mapper must be a zero-argument factory")
        if not callable(self.reducer):
            raise JobConfError("reducer must be a zero-argument factory")
        if self.combiner is not None and not callable(self.combiner):
            raise JobConfError("combiner must be a zero-argument factory or None")
        if self.max_task_attempts < 1:
            raise JobConfError("max_task_attempts must be >= 1")
        if (
            self.task_timeout_seconds is not None
            and self.task_timeout_seconds <= 0
        ):
            raise JobConfError(
                "task_timeout_seconds must be > 0 (or None to disable)"
            )
        if self.retry_backoff_seconds < 0:
            raise JobConfError("retry_backoff_seconds must be >= 0")
        if not 0 < self.speculative_quantile <= 1:
            raise JobConfError("speculative_quantile must be in (0, 1]")
        if self.speculative_slack < 1:
            raise JobConfError("speculative_slack must be >= 1")
        # Fail fast on unknown codec names.
        get_codec(self.map_output_codec)

    @property
    def sort_record_limit(self) -> int:
        """Record-count spill ceiling from the metadata region size."""
        capacity = self.sort_buffer_bytes * self.sort_record_percent
        return max(1, int(capacity / SORT_RECORD_OVERHEAD_BYTES))

    @property
    def effective_grouping_comparator(self) -> Comparator:
        """Grouping comparator, defaulting to the sort comparator."""
        if self.grouping_comparator is not None:
            return self.grouping_comparator
        return self.comparator

    def make_mapper(self) -> Mapper:
        """Fresh mapper instance for one task."""
        return self.mapper()

    def make_reducer(self) -> Reducer:
        """Fresh reducer instance for one task."""
        return self.reducer()

    def make_combiner(self) -> Combiner | None:
        """Fresh combiner instance, or ``None`` if the job has none."""
        return self.combiner() if self.combiner is not None else None

    def get_partition(self, key: Any) -> int:
        """Partition assignment for ``key`` in this job."""
        return self.partitioner.get_partition(key, self.num_reducers)

    def clone(self, **changes: Any) -> "JobConf":
        """A copy of this configuration with ``changes`` applied."""
        return replace(self, **changes)
