"""Runtime bundle shared by the Anti-Combining wrapper classes.

The syntactic transformation (paper Section 6.1) replaces the job's
mapper/reducer/combiner factories with wrappers.  Those wrappers need
the *original* black boxes plus a snapshot of the job's partitioning
and ordering configuration; :class:`AntiRuntime` carries exactly that,
captured once at transform time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.config import AntiCombiningConfig
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
