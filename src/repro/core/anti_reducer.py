"""The AntiReducer: decoding and ordered re-delivery (Alg. 2/4, Fig. 8).

The AntiReducer wraps the original reducer.  For every reduce call on a
representative key it:

1. drains ``Shared`` of any groups that sort strictly before the
   current key (the paper's repeat-until loop), running the original
   Reduce on each;
2. decodes every incoming value component into ``Shared`` — EagerSH
   records expand into their key/value pairs, LazySH records re-execute
   the original Map and keep only the outputs assigned to this
   partition;
3. pops the current key's (fully decoded) group from ``Shared`` and
   runs the original Reduce on it.

When ``Shared`` is idle (nothing stored, no Combiner folding inside it)
and every component of the group is PLAIN, steps 1–3 have nothing to
drain, merge or reorder: the group takes the PLAIN lane at the top of
:meth:`DecodeLoop.process_group` and its values go straight to the
original Reduce, in arrival order, exactly as the add/pop round trip
would deliver them.

``cleanup`` drains whatever is left in ``Shared`` (keys that only ever
appeared inside encoded value components) before calling the original
reducer's ``cleanup``.

:class:`DecodeLoop` implements these steps generically so the
spill-time Anti-Combiner (:mod:`repro.core.anti_combiner`) can reuse
them with the original Combiner as the target.
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator

from repro.core import encoding
from repro.core.runtime import AntiRuntime
from repro.core.shared import Shared
from repro.mr import counters as C
from repro.mr import serde
from repro.mr.api import Context, Mapper, Reducer
from repro.obs.trace import current_tracer

ReduceFn = Callable[[Any, Iterator[Any], Context], None]


class DecodeError(RuntimeError):
    """Decoding failed — usually a non-deterministic Map with LazySH."""


def _discard_sink(key: Any, value: Any) -> None:
    """Swallow emissions from lifecycle hooks of helper instances."""


#: The payload of a ``PlainValue`` (its only field), extracted at C level.
_plain_payload = itemgetter(0)


class DecodeLoop:
    """The shared decode/drain machinery of AntiReducer and AntiCombiner."""

    def __init__(
        self,
        runtime: AntiRuntime,
        context: Context,
        target: ReduceFn,
        shared_prefix: str,
    ):
        if context.store is None:
            raise DecodeError("decoding requires a task-local store")
        if context.partition is None:
            raise DecodeError("decoding requires the task's partition number")
        self._runtime = runtime
        self._context = context
        self._target = target
        self._partition = context.partition
        self._tracer = current_tracer()
        # A private original-mapper instance for LazySH re-execution
        # (paper Fig. 8: "Decoding for LazySH calls o_mapper.map").
        self._o_mapper: Mapper = runtime.mapper_factory()
        self._o_mapper.setup(context.with_sink(_discard_sink))
        combiner = None
        if (
            runtime.combiner_factory is not None
            and runtime.config.use_shared_combiner
        ):
            combiner = runtime.combiner_factory()
            combiner.setup(context.with_sink(_discard_sink))
        self._shared_combiner = combiner
        self._memory_limit = runtime.config.shared_memory_bytes
        if context.partitions is None:
            raise DecodeError("decoding requires the task's Partitioner")
        self._reexec_buffer: list[tuple[Any, Any]] = []
        self._reexec_capture: Context | None = None
        self._counts: dict[str, float] = {}
        self.shared = Shared(
            comparator=runtime.comparator,
            grouping_comparator=runtime.grouping_comparator,
            store=context.store,
            counters=context.counters,
            memory_limit_bytes=self._memory_limit,
            merge_threshold=runtime.config.shared_merge_threshold,
            combiner=combiner,
            combine_context=context if combiner is not None else None,
            name_prefix=shared_prefix,
        )

    # -- the three steps ---------------------------------------------------
    def drain_below(self, key: Any, context: Context) -> None:
        """Reduce every Shared group sorting strictly before ``key``."""
        target = self._target
        for rep_key, values in self.shared.pop_groups(key):
            target(rep_key, iter(values), context)

    def decode_values(
        self, rep_key: Any, values: Iterable[Any], context: Context
    ) -> None:
        """Decode one group's encoded value components into Shared.

        The whole group decode — including every ``Shared.add`` insert
        it performs — is one ``shared.decode`` span, so per-record
        inserts are aggregated rather than traced individually.
        """
        shared = self.shared
        components = 0
        # The tag dispatch is inlined (one ``type`` check per component
        # instead of a ``tag_of`` call plus payload accessors); the
        # malformed-eager validation ``tag_of`` performs is kept.
        plain, eager, lazy = (
            encoding.PlainValue, encoding.EagerValue, encoding.LazyValue
        )
        # A run of PLAIN components enters ``Shared`` as one batch, in
        # its place in the component order (so every pair is inserted,
        # and the memory limit tested, in the order it always was).
        plain_run: list[Any] = []
        with self._tracer.span(
            "shared.decode", category="shared"
        ) as span:
            for component in values:
                components += 1
                kind = type(component)
                if kind is plain:
                    plain_run.append(component[0])
                    continue
                if plain_run:
                    shared.add_pairs(zip(repeat(rep_key), plain_run))
                    plain_run = []
                if kind is eager:
                    other_keys = component.other_keys
                    if not isinstance(other_keys, list):
                        raise encoding.EncodingError(
                            f"malformed eager value: {component!r}"
                        )
                    shared.add_group(rep_key, other_keys, component.value)
                elif kind is lazy:
                    self._reexecute_map(
                        component.input_key, component.input_value, context
                    )
                else:
                    raise encoding.EncodingError(
                        f"not an encoded value component: {component!r}"
                    )
            if plain_run:
                shared.add_pairs(zip(repeat(rep_key), plain_run))
            span.set(components=components)

    def _reexecute_map(
        self, input_key: Any, input_value: Any, context: Context
    ) -> None:
        """Run the original Map, keeping this partition's outputs."""
        # One capture context and emission buffer per loop, reused
        # across re-executions (drained into Shared before returning),
        # and the live counter mapping, counted on without a frame.
        emitted = self._reexec_buffer
        emitted.clear()
        capture = self._reexec_capture
        if capture is None or capture.counters is not context.counters:
            capture = context.with_capture(emitted)
            self._reexec_capture = capture
            self._counts = context.counters.raw()
        self._o_mapper.map(input_key, input_value, capture)
        self._counts[C.ANTI_REDUCE_MAP_REEXECUTIONS] += 1
        mine = context.partitions.records_in(emitted, self._partition)
        if not mine:
            raise DecodeError(
                "LazySH re-execution produced no record for partition "
                f"{self._partition}; the Map or Partition function is "
                "non-deterministic — set T=0 (Strategy.EAGER) for this job"
            )
        self.shared.add_pairs(mine)

    def reduce_current(self, rep_key: Any, context: Context) -> None:
        """Run the target on the current (decoded) group."""
        # Everything below ``rep_key`` was drained before the decode,
        # which adds nothing below it: its group is all there is to pop.
        groups = self.shared.pop_groups(rep_key, inclusive=True)
        if len(groups) == 1:
            popped_key, decoded = groups[0]
            if self._runtime.grouping_comparator.cmp(popped_key, rep_key) == 0:
                self._target(popped_key, iter(decoded), context)
                return
        raise DecodeError(
            f"decoded group for key {rep_key!r} is missing; the Map "
            "or Partition function is non-deterministic"
        )

    def process_group(
        self, rep_key: Any, values: Iterator[Any], context: Context
    ) -> None:
        """Steps 1–3 for one incoming encoded group."""
        shared = self.shared
        if self._shared_combiner is None and shared.idle:
            # The PLAIN lane.  ``Shared`` is idle, so nothing sorts
            # before this key, and PLAIN components would come back
            # from add -> peek -> pop as they went in.  The lane only
            # establishes that the group is all PLAIN and that the
            # running size ``Shared.add`` keeps stays within the memory
            # budget; it never touches ``Shared``.  Anything else
            # (another encoding, a malformed component, a record that
            # would spill, an empty group) sends the whole group down
            # the general path, to spill and fail where it always did.
            components = [*values]
            plain = encoding.PlainValue
            # Sized as ``serde.approx_kv_size`` sizes a pair (its exact
            # ``str`` case inline, and an ``int`` key's), the key once
            # for the group.
            approx_size = serde.approx_size
            key_kind = type(rep_key)
            if key_kind is str:
                key_size = 2 + len(rep_key)
            elif key_kind is int:
                key_size = 1 + (rep_key.bit_length() + 7) // 7
            else:
                key_size = approx_size(rep_key)
            room = self._memory_limit
            for component in components:
                if type(component) is not plain:
                    break
                value = component[0]
                room -= key_size + (
                    2 + len(value)
                    if type(value) is str
                    else approx_size(value)
                )
                if room < 0:
                    break
            else:
                if components:
                    if self._tracer.enabled:
                        # Still one span per group; nothing was decoded
                        # into ``Shared``, so it has no duration.
                        with self._tracer.span(
                            "shared.decode",
                            category="shared",
                            components=len(components),
                        ):
                            pass
                    self._target(
                        rep_key, map(_plain_payload, components), context
                    )
                    return
            values = components
        self.drain_below(rep_key, context)
        self.decode_values(rep_key, values, context)
        self.reduce_current(rep_key, context)

    def drain_all(self, context: Context) -> None:
        """Reduce every remaining Shared group (task cleanup)."""
        for rep_key, values in self.shared.drain():
            self._target(rep_key, iter(values), context)
        self._o_mapper.cleanup(context.with_sink(_discard_sink))
        if self._shared_combiner is not None:
            self._shared_combiner.cleanup(context.with_sink(_discard_sink))


class AntiReducer(Reducer):
    """Drop-in replacement for the original reducer class (Fig. 8)."""

    def __init__(self, runtime: AntiRuntime):
        self._runtime = runtime
        self._o_reducer: Reducer | None = None
        self._loop: DecodeLoop | None = None

    def setup(self, context: Context) -> None:
        self._o_reducer = self._runtime.reducer_factory()
        self._o_reducer.setup(context)
        self._loop = DecodeLoop(
            runtime=self._runtime,
            context=context,
            target=self._o_reducer.reduce,
            shared_prefix=f"{context.task_id}/shared",
        )
        # The task calls ``reduce`` once per group: from here on it is
        # the loop's method itself, not a frame that forwards to it.
        self.reduce = self._loop.process_group  # type: ignore[method-assign]

    def reduce(self, key: Any, values: Iterator[Any], context: Context) -> None:
        assert self._loop is not None, "setup() was not called"
        self._loop.process_group(key, values, context)

    def cleanup(self, context: Context) -> None:
        assert self._loop is not None and self._o_reducer is not None
        self._loop.drain_all(context)
        self._o_reducer.cleanup(context)
