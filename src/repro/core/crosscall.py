"""Cross-call Anti-Combining: the paper's stated future work.

Section 9: *"In our future work, we plan to explore extensions that
allow optimization not only for the input of a single Map call, but
also across all Map calls in the same map task."*

This module implements that extension for EagerSH.  The
:class:`CrossCallAntiMapper` buffers the original Map output of many
consecutive Map calls (bounded by a byte window) and groups records by
value *across calls* before encoding, so e.g. two occurrences of the
same query in one Query-Suggestion split share their value component
even though they came from different Map calls.

Only EagerSH can cross call boundaries: a LazySH record stands for one
Map *input*, which is inherently per-call.  Decoding is unchanged —
EagerSH records are position-independent, so the stock
:class:`~repro.core.anti_reducer.AntiReducer` handles the output, and
the transformation remains purely syntactic.

The correctness requirement is the same as for per-call EagerSH: the
representative key is the minimal key of its group, so every other key
is decoded into ``Shared`` before its Reduce call runs.
"""

from __future__ import annotations

from functools import partial
from typing import Any

from repro.core import encoding
from repro.core.anti_mapper import _value_group_id
from repro.core.anti_reducer import AntiReducer
from repro.core.config import AntiCombiningConfig, Strategy
from repro.core.runtime import AntiRuntime
from repro.mr import counters as C
from repro.mr import serde
from repro.mr.api import Context, Mapper
from repro.mr.config import JobConf

#: Default window: how many (serialised) bytes of original Map output
#: are buffered before the cross-call groups are encoded and flushed.
DEFAULT_WINDOW_BYTES = 64 * 1024


class CrossCallAntiMapper(Mapper):
    """EagerSH encoding over a sliding window of Map calls."""

    def __init__(self, runtime: AntiRuntime, window_bytes: int):
        if window_bytes < 1024:
            raise ValueError("window_bytes must be >= 1 KiB")
        self._runtime = runtime
        self._window_bytes = window_bytes
        #: Orders ``(key, ...)`` records by the job's sort comparator.
        self._order = runtime.comparator.record_key(0)
        self._o_mapper: Mapper | None = None
        # partition -> value_id -> (value, [keys...])
        self._groups: dict[int, dict[Any, tuple[Any, list]]] = {}
        self._buffered_bytes = 0

    # -- lifecycle -------------------------------------------------------
    def setup(self, context: Context) -> None:
        if context.partitions is None:
            raise ValueError("the AntiMapper needs the task's Partitioner")
        self._o_mapper = self._runtime.mapper_factory()
        self._absorb(self._o_mapper.setup, context)

    def cleanup(self, context: Context) -> None:
        assert self._o_mapper is not None
        self._absorb(self._o_mapper.cleanup, context)
        self._flush(context)

    def map(self, key: Any, value: Any, context: Context) -> None:
        assert self._o_mapper is not None, "setup() was not called"
        self._absorb(self._o_mapper.map, context, key, value)
        if self._buffered_bytes >= self._window_bytes:
            self._flush(context)

    # -- windowed grouping -------------------------------------------------
    def _absorb(self, hook, context: Context, *args: Any) -> None:
        """Run one original-mapper hook; window what it emits."""
        emitted: list[tuple[Any, Any]] = []
        hook(*args, context.with_capture(emitted))
        partitions = context.partitions.of_records(emitted)
        for (out_key, out_value), partition in zip(emitted, partitions):
            groups = self._groups.setdefault(partition, {})
            value_id = _value_group_id(out_value)
            group = groups.get(value_id)
            if group is not None:
                group[1].append(out_key)
                self._buffered_bytes += serde.approx_size(out_key)
            else:
                groups[value_id] = (out_value, [out_key])
                self._buffered_bytes += serde.approx_kv_size(
                    out_key, out_value
                )

    def _flush(self, context: Context) -> None:
        """Encode and emit every buffered group, in key order."""
        comparator = self._runtime.comparator
        counters = context.counters
        for partition in sorted(self._groups):
            encoded: list[tuple[Any, Any]] = []
            for out_value, keys in self._groups[partition].values():
                ordered = comparator.sorted(keys)
                rep_key, other_keys = ordered[0], ordered[1:]
                if other_keys:
                    component = encoding.eager_value(other_keys, out_value)
                    counters.add(C.ANTI_EAGER_RECORDS)
                else:
                    component = encoding.plain_value(out_value)
                    counters.add(C.ANTI_PLAIN_RECORDS)
                encoded.append((rep_key, component))
            encoded.sort(key=self._order)
            for rep_key, component in encoded:
                context.write(rep_key, component)
        self._groups = {}
        self._buffered_bytes = 0


def enable_cross_call_anti_combining(
    job: JobConf,
    window_bytes: int = DEFAULT_WINDOW_BYTES,
    use_shared_combiner: bool = True,
    shared_memory_bytes: int = 4 * 1024 * 1024,
) -> JobConf:
    """Enable the cross-call (task-scoped) EagerSH extension on ``job``.

    Like :func:`~repro.core.transform.enable_anti_combining`, the
    rewrite is purely syntactic; the reduce side uses the standard
    AntiReducer.  The map-phase Combiner is always removed (``C = 0``):
    it would decode and re-sort the window's groups anyway.
    """
    if job.anti is not None:
        raise ValueError("job already has Anti-Combining enabled")
    if window_bytes < 1024:
        raise ValueError("window_bytes must be >= 1 KiB")
    config = AntiCombiningConfig(
        strategy=Strategy.EAGER,
        threshold_t=0.0,
        use_map_combiner=False,
        use_shared_combiner=use_shared_combiner,
        shared_memory_bytes=shared_memory_bytes,
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
    return job.clone(
        mapper=partial(CrossCallAntiMapper, runtime, window_bytes),
        reducer=partial(AntiReducer, runtime),
        combiner=None,
        anti=config,
        name=f"{job.name}+anti[cross-call]",
    )
