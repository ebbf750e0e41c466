"""The syntactic program transformation (paper Section 6.1).

``enable_anti_combining`` is the reproduction of the paper's rewrite:
it changes *only the statements that set the mapper, reducer and
combiner classes* of a job — replacing them with the Anti wrappers that
hold the original classes as black boxes — and records the
Anti-Combining parameters (``T``, ``C``, strategy, Shared sizing) on
the job.  The MapReduce engine itself is never modified, exactly as the
paper requires ("our approach can be implemented without modifying the
MapReduce environment itself").
"""

from __future__ import annotations

import math
from functools import partial

from repro.core.anti_combiner import AntiCombiner
from repro.core.anti_mapper import AntiMapper
from repro.core.anti_reducer import AntiReducer
from repro.core.config import AntiCombiningConfig, Strategy
from repro.core.runtime import AntiRuntime
from repro.mr.config import JobConf


def enable_anti_combining(
    job: JobConf,
    threshold_t: float = math.inf,
    use_map_combiner: bool = False,
    strategy: Strategy = Strategy.ADAPTIVE,
    use_shared_combiner: bool = True,
    shared_memory_bytes: int = 4 * 1024 * 1024,
    shared_merge_threshold: int = 10,
) -> JobConf:
    """Return an Anti-Combining-enabled copy of ``job``.

    Parameters mirror the paper: ``threshold_t`` is the re-execution
    cost bound ``T`` in seconds (``0`` disables LazySH, ``inf`` allows
    free choice); ``use_map_combiner`` is the flag ``C`` (keep the
    original Combiner in the map phase); ``strategy`` can force the
    pure EagerSH / LazySH variants plotted in Figure 9.

    The original job object is left untouched, so both versions can run
    side by side in one experiment.
    """
    if job.anti is not None:
        raise ValueError("job already has Anti-Combining enabled")
    config = AntiCombiningConfig(
        threshold_t=threshold_t,
        use_map_combiner=use_map_combiner,
        use_shared_combiner=use_shared_combiner,
        strategy=strategy,
        shared_memory_bytes=shared_memory_bytes,
        shared_merge_threshold=shared_merge_threshold,
    )
    runtime = AntiRuntime(
        mapper_factory=job.mapper,
        reducer_factory=job.reducer,
        combiner_factory=job.combiner,
        partitioner=job.partitioner,
        num_reducers=job.num_reducers,
        comparator=job.comparator,
        grouping_comparator=job.effective_grouping_comparator,
        meter=job.cost_meter,
        config=config,
    )

    # partial (not lambda): the factories must pickle so transformed
    # jobs can run on the process executor.
    combiner = None
    if job.combiner is not None and use_map_combiner:
        combiner = partial(AntiCombiner, runtime)

    return job.clone(
        mapper=partial(AntiMapper, runtime),
        reducer=partial(AntiReducer, runtime),
        combiner=combiner,
        anti=config,
        name=f"{job.name}+anti[{strategy.value}]",
    )
