"""Anti-Combining configuration: the paper's parameters ``T`` and ``C``.

``T`` (Section 6.1) bounds the CPU cost of LazySH re-execution:
``T = 0`` forces EagerSH everywhere (safe under non-determinism),
``T = inf`` lets the size-based choice run free.  ``C`` (Section 6.2)
controls whether the program's Combiner still runs in the map phase;
regardless of ``C``, the Combiner can be used inside ``Shared`` during
the reduce phase (Section 5, "Using Combine in the Reduce Phase").
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class Strategy(enum.Enum):
    """Which encodings the AntiMapper may use.

    ``EAGER`` and ``LAZY`` are the pure strategies the paper plots
    separately in Figure 9; ``ADAPTIVE`` is the per-call, per-partition
    cost/size-based choice of Figure 7 (AdaptiveSH).
    """

    EAGER = "eager"
    LAZY = "lazy"
    ADAPTIVE = "adaptive"


@dataclass(frozen=True)
class AntiCombiningConfig:
    """All knobs of the Anti-Combining transformation."""

    #: The runtime cost threshold ``T`` in seconds.  If the estimated
    #: re-execution cost ``(map_cost + partition_cost) * num_partitions``
    #: of a Map call exceeds ``T``, LazySH is disabled for that call.
    threshold_t: float = math.inf

    #: The flag ``C``: keep the original Combiner in the map phase.
    #: ``False`` (the paper's usual setting when the Combiner is weak)
    #: removes it from the map phase but still allows it in ``Shared``.
    use_map_combiner: bool = False

    #: Apply the original Combiner inside ``Shared`` during the reduce
    #: phase (paper Section 5) — only relevant if the job has one.
    use_shared_combiner: bool = True

    #: Encoding strategy (pure EagerSH / pure LazySH / AdaptiveSH).
    strategy: Strategy = Strategy.ADAPTIVE

    #: Memory budget of the reduce-side ``Shared`` structure before it
    #: spills sorted runs to local disk.
    shared_memory_bytes: int = 4 * 1024 * 1024

    #: Merge the spill runs of ``Shared`` when their number exceeds
    #: this threshold (mirrors the map phase's merge factor).
    shared_merge_threshold: int = 10

    def __post_init__(self) -> None:
        if self.threshold_t < 0:
            raise ValueError("threshold_t must be >= 0")
        if self.shared_memory_bytes < 1024:
            raise ValueError("shared_memory_bytes must be >= 1 KiB")
        if self.shared_merge_threshold < 2:
            raise ValueError("shared_merge_threshold must be >= 2")

    @property
    def lazy_allowed(self) -> bool:
        """Whether LazySH may ever be chosen under this configuration."""
        if self.strategy is Strategy.EAGER:
            return False
        if self.strategy is Strategy.LAZY:
            return True
        return self.threshold_t > 0
