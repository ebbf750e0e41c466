"""Runtime bundle shared by the Anti-Combining wrapper classes.

The syntactic transformation (paper Section 6.1) replaces the job's
mapper/reducer/combiner factories with wrappers.  Those wrappers need
the *original* black boxes plus a snapshot of the job's partitioning
and ordering configuration; :class:`AntiRuntime` carries exactly that,
captured once at transform time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.core.config import AntiCombiningConfig
from repro.mr import fastpath
from repro.mr.api import Combiner, Mapper, Partitioner, Reducer
from repro.mr.comparators import Comparator
from repro.mr.cost import CostMeter


@dataclass(frozen=True)
class AntiRuntime:
    """Everything the Anti wrappers need from the original job."""

    mapper_factory: Callable[[], Mapper]
    reducer_factory: Callable[[], Reducer]
    combiner_factory: Callable[[], Combiner] | None
    partitioner: Partitioner
    num_reducers: int
    comparator: Comparator
    grouping_comparator: Comparator
    meter: CostMeter
    config: AntiCombiningConfig

    def partition_memo(self) -> "PartitionMemo":
        """A fresh per-task key→partition lookup."""
        return PartitionMemo(
            self.partitioner.get_partition,
            self.num_reducers,
            memoise=fastpath.batch_enabled(),
        )


#: Cap on a :class:`PartitionMemo` (cleared, not evicted, when full —
#: the key sets of one task are usually far smaller).
_PARTITION_MEMO_LIMIT = 1 << 16


class PartitionMemo(dict):
    """Partition lookups for whole emission batches of one task.

    The batched tier memoises key→partition across calls, which is
    legal under the tier's deterministic-partitioner assumption (the
    same one LazySH decoding rests on).  The calls it skips are
    unmetered framework work — the AntiMapper's metered first-record
    probe never goes through here — so the memo is pure wall time.
    Hits are plain ``dict`` subscripts; only misses reach Python code.
    """

    __slots__ = ("_get_partition", "_num_reducers", "_memoise")

    def __init__(
        self,
        get_partition: Callable[[Any, int], int],
        num_reducers: int,
        memoise: bool,
    ):
        super().__init__()
        self._get_partition = get_partition
        self._num_reducers = num_reducers
        self._memoise = memoise

    def __missing__(self, key: Any) -> int:
        partition = self._get_partition(key, self._num_reducers)
        if len(self) >= _PARTITION_MEMO_LIMIT:
            self.clear()
        self[key] = partition
        return partition

    def of_records(self, records: list[tuple[Any, Any]]) -> list[int]:
        """The partition of every ``(key, value)`` record, in order."""
        if self._memoise:
            try:
                return [self[record[0]] for record in records]
            except TypeError:  # an unhashable key: ask for each record
                pass
        get_partition = self._get_partition
        num_reducers = self._num_reducers
        return [get_partition(record[0], num_reducers) for record in records]
