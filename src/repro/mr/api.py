"""The user-facing MapReduce job API (Hadoop-style).

A MapReduce program supplies:

* a :class:`Mapper` with ``setup`` / ``map`` / ``cleanup``;
* a :class:`Reducer` with ``setup`` / ``reduce`` / ``cleanup``;
* optionally a :class:`Combiner` (a reducer run on map output); and
* a :class:`Partitioner` assigning intermediate keys to reduce tasks.

All four are treated as black boxes by the engine — and, crucially, by
the Anti-Combining transformation (paper Section 6), which wraps rather
than modifies them.

User code interacts with the framework through a :class:`Context`
object, mirroring Hadoop's ``Mapper.Context`` / ``Reducer.Context``:
output goes through ``context.write`` and counters through
``context.counters``.  This indirection is what lets the AntiMapper
*intercept* the original Map's output (Figure 7).
"""

from __future__ import annotations

import zlib
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator

from repro.mr import serde
from repro.mr.counters import Counters


#: Memo for :func:`stable_hash`, keyed ``(type, key)`` and restricted
#: to :func:`exact_key` keys (exact ``str``/``int`` and tuples of them,
#: such as a join's ``("row", record_id)``): for those, ``==`` implies
#: an identical serialised representation, so the cached CRC is exactly
#: what a fresh encode would produce.  (``(1,)`` and ``(True,)`` compare
#: equal but encode differently; ``(True,)`` is not admitted.)
_HASH_MEMO: dict = {}
_HASH_MEMO_LIMIT = 1 << 17

#: The scalar types for which ``==`` implies identical serialised bytes.
_EXACT_TYPES = frozenset((str, int))


def exact_key(key: Any) -> bool:
    """An exact ``str`` or ``int``, or a tuple of those: a key for which
    ``==`` implies identical bytes, unlike ``1 == 1.0 == True``."""
    kind = type(key)
    return (
        kind is str
        or kind is int
        or (kind is tuple and set(map(type, key)) <= _EXACT_TYPES)
    )


def stable_hash(key: Any) -> int:
    """Deterministic, process-independent 32-bit hash of a key.

    Python's builtin ``hash`` is randomised per process for strings, so
    the simulator hashes the serialised representation instead — the
    moral equivalent of Hadoop hashing the Writable bytes.
    """
    kind = type(key)
    if kind is str or kind is int or (kind is tuple and exact_key(key)):
        memo_key = (kind, key)
        cached = _HASH_MEMO.get(memo_key)
        if cached is None:
            cached = zlib.crc32(serde.encode(key))
            if len(_HASH_MEMO) >= _HASH_MEMO_LIMIT:
                _HASH_MEMO.clear()
            _HASH_MEMO[memo_key] = cached
        return cached
    return zlib.crc32(serde.encode(key))


class Context:
    """Channel between user code and the framework.

    ``write`` forwards each emitted key/value pair to the sink callback
    installed by the framework (the map-output buffer, the spill
    writer, or the job-output collector).
    """

    # Contexts are created per re-executed Map call on the LazySH
    # decode path and ``write`` runs once per emitted record — slots
    # keep both allocation and attribute dispatch cheap.
    __slots__ = (
        "counters",
        "_sink",
        "partitioner",
        "num_partitions",
        "task_id",
        "partition",
        "store",
        "partitions",
    )

    def __init__(
        self,
        counters: Counters,
        sink: Callable[[Any, Any], None],
        partitioner: "Partitioner | None" = None,
        num_partitions: int = 1,
        task_id: str = "",
        partition: int | None = None,
        store: Any = None,
    ):
        self.counters = counters
        self._sink = sink
        self.partitioner = partitioner
        self.num_partitions = num_partitions
        self.task_id = task_id
        #: For reduce contexts: the partition number of this reduce task
        #: (used by LazySH decoding to filter re-executed Map output).
        self.partition = partition
        #: The task's local disk (a LocalStore); the Shared structure
        #: spills here (paper Section 5).
        self.store = store
        #: The key→partition memo of this partitioner and reducer count
        #: in this process (``None`` without a Partitioner): every task
        #: and every context derived with ``with_sink`` / ``with_capture``
        #: reads the same dict, so the map-output buffer, the Anti
        #: wrappers, a spill-time combiner and the LazySH decoder ask the
        #: Partitioner about a key once and cannot disagree on the answer.
        self.partitions: PartitionMemo | None = (
            None
            if partitioner is None
            else PartitionMemo.of(partitioner, num_partitions)
        )

    def write(self, key: Any, value: Any) -> None:
        """Emit one output record."""
        self._sink(key, value)

    # Alias used throughout the paper's pseudo-code.
    emit = write

    def write_all(self, pairs: Iterable[tuple[Any, Any]]) -> None:
        """Emit a sequence of ``(key, value)`` records.

        Equivalent to calling :meth:`write` once per pair; capture
        contexts override this with a single list ``extend``, so
        mappers with precomputed emission runs (e.g. a prefix
        expansion) skip the per-record call chain entirely.
        """
        sink = self._sink
        for key, value in pairs:
            sink(key, value)

    def get_partition(self, key: Any) -> int:
        """Partition assignment for ``key`` under this job's Partitioner."""
        if self.partitioner is None:
            raise RuntimeError("context has no partitioner")
        return self.partitioner.get_partition(key, self.num_partitions)

    def with_sink(
        self,
        sink: Callable[[Any, Any], None],
        partition: int | None = None,
    ) -> "Context":
        """A copy of this context writing to a different sink.

        ``partition`` overrides the context's partition number, which
        matters to partition-aware consumers such as the spill-time
        Anti-Combiner.
        """
        return self._derive(Context, sink, partition)

    def with_capture(self, buffer: list) -> "CaptureContext":
        """A copy of this context appending ``(key, value)`` pairs to
        ``buffer``.

        Equivalent to ``with_sink(lambda k, v: buffer.append((k, v)))``
        but ``write`` appends directly — one call per emitted record
        instead of three (write → lambda → append) on the interception
        paths that run once per original-Map output record.
        """
        return self._derive(CaptureContext, buffer.append, None)

    def _derive(self, kind: type, sink: Any, partition: int | None) -> Any:
        """A ``kind`` context of the same task: same fields, same
        partition memo (not a fresh one), another sink."""
        derived = kind.__new__(kind)
        derived.counters = self.counters
        derived._sink = sink
        derived.partitioner = self.partitioner
        derived.num_partitions = self.num_partitions
        derived.task_id = self.task_id
        derived.partition = self.partition if partition is None else partition
        derived.store = self.store
        derived.partitions = self.partitions
        return derived


class CaptureContext(Context):
    """A context whose sink is a list's bound ``append``."""

    __slots__ = ()

    def write(self, key: Any, value: Any) -> None:
        """Emit one output record (appended as a ``(key, value)`` pair)."""
        self._sink((key, value))

    emit = write

    def write_all(self, pairs: Iterable[tuple[Any, Any]]) -> None:
        """Emit a sequence of pairs with one C-level ``extend``."""
        self._sink.__self__.extend(pairs)


class Mapper:
    """Base mapper: identity (emits its input unchanged)."""

    def setup(self, context: Context) -> None:
        """Called once per task before the first ``map`` call."""

    def map(self, key: Any, value: Any, context: Context) -> None:
        context.write(key, value)

    def cleanup(self, context: Context) -> None:
        """Called once per task after the last ``map`` call."""


class Reducer:
    """Base reducer: identity (emits each value under its key)."""

    def setup(self, context: Context) -> None:
        """Called once per task before the first ``reduce`` call."""

    def reduce(self, key: Any, values: Iterator[Any], context: Context) -> None:
        for value in values:
            context.write(key, value)

    def cleanup(self, context: Context) -> None:
        """Called once per task after the last ``reduce`` call."""


class Combiner(Reducer):
    """A Combiner is a Reducer run on map output (paper Section 6.1)."""


class Partitioner:
    """Assigns an intermediate key to a reduce task."""

    def get_partition(self, key: Any, num_partitions: int) -> int:
        raise NotImplementedError


_first = itemgetter(0)

#: Cap on a key → partition memo (cleared, not evicted, when full —
#: the key sets of one job are usually smaller).
_PARTITION_MEMO_LIMIT = 1 << 16


class PartitionMemo(dict):
    """Key→partition lookups for whole emission batches.

    Key→partition assignments of :func:`exact_key` keys are memoised,
    which is legal because the Partitioner must be deterministic (the
    same assumption LazySH decoding rests on).  The calls it skips are
    framework work, never the AntiMapper's metered first-record probe.
    Hits are plain ``dict`` subscripts; only misses reach Python code.
    A memo never crosses a process boundary: pickled or copied, it
    arrives empty.
    """

    __slots__ = ("_get_partition", "_num_reducers")

    def __init__(
        self,
        get_partition: Callable[[Any, int], int],
        num_reducers: int,
    ):
        super().__init__()
        self._get_partition = get_partition
        self._num_reducers = num_reducers

    @classmethod
    def of(cls, partitioner: "Partitioner", num_reducers: int) -> "PartitionMemo":
        """This process's memo of ``partitioner`` at ``num_reducers``.

        It lives on the partitioner instance, so every task of a job and
        every later job with the same partitioner read one dict.  A
        partitioner without an instance ``__dict__`` gets a fresh memo
        per call; a shallow copy, whose attribute still holds the
        original's memos, starts a dict of its own.
        """
        state = getattr(partitioner, "__dict__", None)
        if state is None:
            return cls(partitioner.get_partition, num_reducers)
        memos = state.setdefault("_partition_memos", {})
        memo = memos.get(num_reducers)
        if memo is not None:
            if getattr(memo._get_partition, "__self__", None) is partitioner:
                return memo
            memos = state["_partition_memos"] = {}
        memo = memos[num_reducers] = cls(partitioner.get_partition, num_reducers)
        return memo

    def __reduce__(self) -> tuple:
        return type(self), (self._get_partition, self._num_reducers)

    def __missing__(self, key: Any) -> int:
        partition = self._get_partition(key, self._num_reducers)
        if len(self) >= _PARTITION_MEMO_LIMIT:
            self.clear()
        self[key] = partition
        return partition

    def of_records(self, records: list[tuple[Any, Any]]) -> list[int]:
        """The partition of every ``(key, value)`` record, in order: from
        the memo for a batch of :func:`exact_key` keys, else each asked."""
        keys = list(map(_first, records))
        if set(map(type, keys)) <= _EXACT_TYPES or all(map(exact_key, keys)):
            return list(map(self.__getitem__, keys))
        get_partition = self._get_partition
        num_reducers = self._num_reducers
        return [get_partition(key, num_reducers) for key in keys]

    def records_in(
        self, records: list[tuple[Any, Any]], partition: int
    ) -> list[tuple[Any, Any]]:
        """The records whose key is assigned to ``partition``, in order:
        an :func:`exact_key` key's from the memo, any other's asked."""
        ask, n = self._get_partition, self._num_reducers
        return [
            record
            for record in records
            if (
                self[key]
                if type(key := record[0]) in _EXACT_TYPES or exact_key(key)
                else ask(key, n)
            )
            == partition
        ]


class HashPartitioner(Partitioner):
    """The default partitioner: stable hash modulo task count.

    It holds no memo: the framework asks it through the one
    :class:`PartitionMemo` of this instance and reducer count.
    """

    def get_partition(self, key: Any, num_partitions: int) -> int:
        return stable_hash(key) % num_partitions


class KeyFieldPartitioner(Partitioner):
    """Partitions on a derived field of the key.

    ``field_fn`` extracts the part of the key that should determine the
    partition (e.g. the first element of a composite key for secondary
    sort).
    """

    def __init__(self, field_fn: Callable[[Any], Any]):
        self._field_fn = field_fn

    def get_partition(self, key: Any, num_partitions: int) -> int:
        return stable_hash(self._field_fn(key)) % num_partitions


def run_reducer_on_group(
    reducer: Reducer,
    key: Any,
    values: Iterable[Any],
    context: Context,
) -> list[tuple[Any, Any]]:
    """Run one reduce call, collecting its emissions into a list.

    Convenience used by spill-time combining and by tests.
    """
    collected: list[tuple[Any, Any]] = []
    capture = context.with_sink(lambda k, v: collected.append((k, v)))
    reducer.reduce(key, iter(values), capture)
    return collected
