"""The AntiMapper: per-call, per-partition adaptive encoding (Fig. 7).

The AntiMapper wraps the original mapper as a black box.  Each ``map``
call runs the original Map through an intercepting context, measures
its cost and the cost of partitioning its output, and then encodes the
output per partition:

* **Strategy EAGER** — always EagerSH (group by value within the
  partition; one record per group).
* **Strategy LAZY** — always LazySH (one record per partition holding
  the Map input).
* **Strategy ADAPTIVE** — the paper's rule: if
  ``(map_cost + partition_cost) * num_partitions > T`` the call is too
  expensive to re-execute, so EagerSH is used everywhere; otherwise,
  per partition, whichever of the EagerSH encoding and the LazySH
  record is smaller (in serialised bytes) wins.

EagerSH groups with no sharing degenerate to PLAIN records — the
original record plus an encoding tag (paper Section 6.1: "the original
program's unencoded output is a special case of EagerSH").

A Map call that emitted exactly one record has one partition, one
value group and nothing to share, so it skips the bucketing and
grouping: it is PLAIN or LAZY by the size comparison the general path
ends in.  Where even that comparison has a known answer — EagerSH, or
an output value that *is* one half of the Map input — the record takes
the PLAIN lane at the top of ``map``: tagged and written, nothing else.

CPU accounting note: the engine meters the whole (wrapped) ``map``
call, so everything here — the original Map, the partition calls, the
grouping — is charged to map CPU exactly once.  The internal meter
measurements feed only the threshold decision, and are taken only when
that decision is open (AdaptiveSH with a finite ``T``).
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Any

from repro.core.config import Strategy
from repro.core.encoding import EagerValue, LazyValue, PlainValue
from repro.core.runtime import AntiRuntime
from repro.mr import counters as C
from repro.mr import serde
from repro.mr.api import Context, Mapper

#: The key of a ``(key, value)`` record, extracted at C level.
_record_key = itemgetter(0)


def _value_group_id(value: Any) -> Any:
    """Dictionary identity for grouping records *by value*.

    Values must group together exactly when their serialised forms are
    identical.  Plain ``==`` is too coarse in Python (``1 == 1.0 ==
    True`` but they serialise differently), so ints and bools are keyed
    by ``(type, value)``; strings/bytes are safe as-is; everything else
    falls back to the serialised bytes — containers, unhashables, and
    floats, whose ``0.0 == -0.0`` hides two different encodings.
    """
    kind = type(value)
    if kind is str or kind is bytes:
        return value
    if kind is int or kind is bool:
        return (kind, value)
    return serde.encode(value)


def _table_entry(value: Any, values: dict) -> list:
    """A value's entry in its Map call's value table, on an ``id`` miss.

    The table maps ``id(value)`` to ``[size, group id]``, each filled in
    the first time a partition asks for it (``0``/``None`` until then):
    ``1 +`` :func:`serde.approx_size` of the value (its tag byte
    included) and its :func:`_value_group_id`.  It lives for one call,
    whose emission buffer keeps every value in it alive, so no id can
    come to stand for another object.  An exact tuple is also filed
    under the ids of its items, so a tuple rebuilt around the very same
    items (PageRank's ``(RANK, contribution)`` per out-edge) finds the
    entry there: identical items encode to identical bytes
    (``serde.same_items``).
    """
    if type(value) is tuple:
        items = tuple(map(id, value))
        entry = values.get(items)
        if entry is not None:
            return entry
        entry = values[items] = [0, None]
    else:
        entry = [0, None]
    values[id(value)] = entry
    return entry


class AntiMapper(Mapper):
    """Drop-in replacement for the original mapper class."""

    def __init__(self, runtime: AntiRuntime):
        self._runtime = runtime
        self._o_mapper: Mapper | None = None
        #: Orders ``(key, ...)`` records by the job's sort comparator.
        self._order = runtime.comparator.record_key(0)
        config = runtime.config
        self._strategy = config.strategy
        # The two cost measurements per call feed nothing but the
        # threshold rule, so they are taken only when ``T`` can bind.
        self._metered = (
            config.strategy is Strategy.ADAPTIVE
            and config.threshold_t != math.inf
        )
        # The PLAIN lane (in ``map``) takes the unmetered single
        # emissions whose PLAIN-vs-LAZY answer needs no sizing: all of
        # them under EagerSH, the identity ones under AdaptiveSH.
        lane = not self._metered
        self._lane_always = lane and config.strategy is Strategy.EAGER
        self._lane_identity = lane and config.strategy is Strategy.ADAPTIVE
        #: Whether an unmetered call may use LazySH: the strategy alone
        #: decides.
        self._lazy_unmetered = config.strategy is not Strategy.EAGER
        self._emit_buffer: list[tuple[Any, Any]] = []
        self._capture: Context | None = None
        self._counts: dict[str, float] = {}

    # -- lifecycle -------------------------------------------------------
    def setup(self, context: Context) -> None:
        if context.partitions is None:
            raise ValueError("the AntiMapper needs the task's Partitioner")
        self._o_mapper = self._runtime.mapper_factory()
        self._passthrough(self._o_mapper.setup, context)

    def cleanup(self, context: Context) -> None:
        assert self._o_mapper is not None
        self._passthrough(self._o_mapper.cleanup, context)

    def _passthrough(self, fn, context: Context) -> None:
        """Run a lifecycle hook, forwarding any emissions as PLAIN.

        Records emitted outside a ``map`` call (e.g. by the in-mapper
        combining pattern's ``cleanup``) have no sharing context, so
        they are tagged PLAIN and passed through unencoded.
        """
        emitted: list[tuple[Any, Any]] = []
        capture = context.with_sink(lambda k, v: emitted.append((k, v)))
        fn(capture)
        for key, value in emitted:
            context.counters.add(C.ANTI_PLAIN_RECORDS)
            context.write(key, PlainValue(value))

    # -- the adaptive map ------------------------------------------------
    def map(self, key: Any, value: Any, context: Context) -> None:
        assert self._o_mapper is not None, "setup() was not called"
        runtime = self._runtime
        # One capture context and emission buffer per task, reused
        # across map calls (the buffer is drained into per-partition
        # lists below before the next call can run).
        emitted = self._emit_buffer
        emitted.clear()
        capture = self._capture
        if capture is None or capture.counters is not context.counters:
            capture = context.with_capture(emitted)
            self._capture = capture
            self._counts = context.counters.raw()
        metered = self._metered
        call_cost = 0.0  # measured below when metered
        if metered:
            _, map_cost = runtime.meter.measure(
                self._o_mapper.map, key, value, capture
            )
        else:
            self._o_mapper.map(key, value, capture)
            if len(emitted) == 1:
                out_key, out_value = emitted[0]
                if self._lane_always or (
                    self._lane_identity
                    and (out_value is key or out_value is value)
                ):
                    # The PLAIN lane.  An output that is one half of
                    # the input (identity and swap maps) is smaller
                    # than the LAZY payload by the other half, whatever
                    # either measures.  Counted on the live counter
                    # mapping and built as the tuple it is: what
                    # ``counters.add`` and ``PlainValue(...)`` do,
                    # without their frames.
                    self._counts[C.ANTI_PLAIN_RECORDS] += 1
                    context.write(
                        out_key, tuple.__new__(PlainValue, (out_value,))
                    )
                    return
        if not emitted:
            return

        if metered:
            # The getPartition cost is measured on the first call and
            # extrapolated, exactly the granularity of Figure 7's
            # "cost of partition call".
            first_partition, single_cost = runtime.meter.measure(
                context.partitioner.get_partition,
                emitted[0][0],
                context.num_partitions,
            )
            call_cost = map_cost + single_cost * len(emitted)
        if len(emitted) == 1:
            self._encode_single(
                context, key, value, emitted[0],
                self._lazy_allowed(call_cost, 1)
                if metered
                else self._lazy_unmetered,
            )
            return

        # Partition the original output.
        if metered:
            partitions = [first_partition]
            partitions += context.partitions.of_records(emitted[1:])
        else:
            partitions = context.partitions.of_records(emitted)
        by_partition: dict[int, list[tuple[Any, Any]]] = {}
        for record, partition in zip(emitted, partitions):
            if partition in by_partition:
                by_partition[partition].append(record)
            else:
                by_partition[partition] = [record]

        lazy_allowed = (
            self._lazy_allowed(call_cost, len(by_partition))
            if metered
            else self._lazy_unmetered
        )
        # The LazySH component is the same for every partition of the
        # call: build it (and, for the size comparison, size it) once —
        # ``approx_size`` of a ``LazyValue`` is its tag byte plus its
        # two fields.
        lazy_component = (
            tuple.__new__(LazyValue, (key, value)) if lazy_allowed else None
        )
        lazy_size = (
            1 + serde.approx_kv_size(key, value)
            if lazy_allowed and self._strategy is Strategy.ADAPTIVE
            else 0
        )
        # The call's value table (see ``_table_entry``): every
        # partition reads a value's size and group id from it.
        values: dict = {}
        for partition in sorted(by_partition):
            self._encode_partition(
                context,
                by_partition[partition],
                values,
                lazy_component,
                lazy_size,
            )

    def _lazy_allowed(self, call_cost: float, num_partitions: int) -> bool:
        """Whether a metered Map call may use LazySH (Figure 7's
        threshold).

        ``call_cost`` is the measured Map call plus its partition
        calls; LazySH would re-execute both once per partition.
        """
        reexecution_cost = call_cost * num_partitions
        return reexecution_cost <= self._runtime.config.threshold_t

    def _encode_single(
        self,
        context: Context,
        input_key: Any,
        input_value: Any,
        record: tuple[Any, Any],
        lazy_allowed: bool,
    ) -> None:
        """Encode a Map call's only output record: PLAIN or LAZY.

        Both records carry the same key and the same tag byte, so the
        size comparison reduces to the payloads; a tie is LAZY, where
        the general path sends it.
        """
        out_key, out_value = record
        lazy = lazy_allowed
        if lazy and self._strategy is Strategy.ADAPTIVE:
            plain_size = serde.approx_size(out_value)
            lazy_size = serde.approx_kv_size(input_key, input_value)
            lazy = lazy_size <= plain_size
        if lazy:
            context.counters.add(C.ANTI_LAZY_RECORDS)
            context.write(out_key, LazyValue(input_key, input_value))
        else:
            context.counters.add(C.ANTI_PLAIN_RECORDS)
            context.write(out_key, PlainValue(out_value))

    def _encode_partition(
        self,
        context: Context,
        records: list[tuple[Any, Any]],
        values: dict,
        lazy_component: LazyValue | None,
        lazy_size: int,
    ) -> None:
        """Emit the chosen encoding of one partition's output records.

        ``values`` is the call's value table; ``lazy_component`` is
        ``None`` when LazySH is not allowed for this call (Strategy
        EAGER, or the threshold rule said no).
        """
        if lazy_component is None:
            self._emit_eager(context, self._group_by_value(records, values))
            return
        # The partition's minimal key (no frame per record when the
        # order is natural).
        min_key = min(records, key=self._order)[0]
        if self._strategy is Strategy.ADAPTIVE:
            # AdaptiveSH: EagerSH wins if its (estimated) serialised
            # size stays under the LazySH record's.  (Sizes here are
            # ``serde.approx_size``, its ``str`` and ``int`` cases
            # inline.)
            kind = type(min_key)
            if kind is str:
                key_size = 2 + len(min_key)
            elif kind is int:
                key_size = 1 + (min_key.bit_length() + 7) // 7
            else:
                key_size = serde.approx_size(min_key)
            groups = self._group_by_value(
                records, values, key_size + lazy_size
            )
            if groups is not None:
                self._emit_eager(context, groups)
                return
        self._counts[C.ANTI_LAZY_RECORDS] += 1
        context.write(min_key, lazy_component)

    def _group_by_value(
        self,
        records: list[tuple[Any, Any]],
        values: dict,
        budget: int | None = None,
    ) -> list[tuple[Any, list[Any]]] | None:
        """Group one partition's records by value (Algorithm 1's table).

        Returns the ``(value, keys)`` groups in first-seen order; values
        group by their serialised bytes, so unhashable values work.  A
        ``str`` value is its own group id and is sized inline; any other
        value's size and group id come from the call's value table
        ``values``, so a value fanned out over several partitions is
        sized and serialised once.

        ``budget`` is the size the EagerSH encoding must stay *under*
        (AdaptiveSH).  That size — ``approx_size`` of the records
        :meth:`_emit_eager` would write — is the sum of every key, a
        tag byte plus the value per group, and a two-byte key-list
        header per group of several keys, so it is taken off the budget
        from the group table, before any component exists.  All terms
        are positive: once the budget is used up no later term can
        bring it back, and the groups come back as ``None`` without
        another value being serialised or sized — after the first one
        when the keys and one value already fill it, as in a fan-out
        of distinct values no smaller than the Map input.
        """
        first_key, first_value = records[0]
        entry = (
            None
            if type(first_value) is str
            else values.get(id(first_value))
            or _table_entry(first_value, values)
        )
        if budget is not None:
            if entry is None:
                size = 3 + len(first_value)
            else:
                size = entry[0]
                if not size:
                    size = entry[0] = 1 + serde.approx_size(first_value)
            budget -= serde.approx_size_sum(map(_record_key, records), size)
            if budget <= 0:
                return None
        keys = [first_key]
        if len(records) == 1:
            return [(first_value, keys)]
        if entry is None:
            group_id = first_value
        else:
            group_id = entry[1]
            if group_id is None:
                group_id = entry[1] = _value_group_id(first_value)
        table = {group_id: (first_value, keys)}
        # A record carrying the very object the previous one carried
        # (one tuple fanned out to many keys), or a tuple rebuilt around
        # the very same items (PageRank's ``(RANK, contribution)`` per
        # out-edge), joins its group without being serialised again:
        # identical items encode to identical bytes.
        prev_value = first_value
        for out_key, out_value in records[1:]:
            if out_value is not prev_value and not serde.same_items(
                out_value, prev_value
            ):
                if type(out_value) is str:
                    entry = None
                    group_id = out_value
                else:
                    entry = values.get(id(out_value)) or _table_entry(
                        out_value, values
                    )
                    group_id = entry[1]
                    if group_id is None:
                        group_id = entry[1] = _value_group_id(out_value)
                group = table.get(group_id)
                if group is None:
                    if budget is not None:
                        if entry is None:
                            budget -= 3 + len(out_value)
                        else:
                            size = entry[0]
                            if not size:
                                size = entry[0] = 1 + serde.approx_size(
                                    out_value
                                )
                            budget -= size
                        if budget <= 0:
                            return None
                    group = table[group_id] = (out_value, [])
                prev_value, keys = out_value, group[1]
            keys.append(out_key)
        groups = list(table.values())
        if budget is not None:
            budget -= 2 * sum([len(keys) > 1 for _, keys in groups])
            if budget <= 0:
                return None
        return groups

    def _emit_eager(
        self, context: Context, groups: list[tuple[Any, list[Any]]]
    ) -> None:
        """Write one partition's value groups EagerSH-encoded.

        Each group becomes one record keyed by its minimal key,
        carrying the remaining keys in the value component; a group of
        one key is a PLAIN record.  Records go out in
        representative-key order so output is deterministic, in one
        ``write_all``; the values are built as the tuples they are and
        counted on the live counter mapping, as the PLAIN lane does.
        """
        comparator = self._runtime.comparator
        new = tuple.__new__
        encoded: list[tuple[Any, tuple]] = []
        plain = 0
        for out_value, keys in groups:
            if len(keys) == 1:
                plain += 1
                encoded.append((keys[0], new(PlainValue, (out_value,))))
                continue
            ordered = comparator.sorted(keys)
            encoded.append(
                (ordered[0], new(EagerValue, (ordered[1:], out_value)))
            )
        if len(encoded) > 1:
            encoded.sort(key=self._order)
        context.write_all(encoded)
        counts = self._counts
        if plain:
            counts[C.ANTI_PLAIN_RECORDS] += plain
        if plain < len(encoded):
            counts[C.ANTI_EAGER_RECORDS] += len(encoded) - plain
