"""The reduce-task-level ``Shared`` data structure (paper Section 5).

``Shared`` carries decoded key/value pairs from the Reduce call that
decoded them to the later Reduce calls that need them.  It maintains:

* a **min-heap** over keys, so ``peek_min_key`` is O(1) and pops happen
  in ascending key order (Reduce-call order);
* an **in-memory hash table** mapping keys to their value lists;
* **sorted spill runs** on the task's local disk: when the memory
  budget is exceeded, the in-memory content is drained in key order to
  a run, and runs are merged when their number exceeds the merge
  threshold — mirroring the map phase's spill/merge machinery.  Because
  pops always take the *minimal* key, runs are only ever read by
  buffered sequential scans, never random access.

When the job has a Combiner, ``Shared`` can fold values per key as they
are added ("Using Combine in the Reduce Phase"), which shrinks memory
and often avoids spilling entirely — the effect Table 2's
``AdaptiveSH-CB`` row reports.

Keys are identified by value (hashable keys directly, unhashable ones
by their serialised bytes), so any serialisable key works; key *order*
always comes from the job's sort comparator and key *grouping* from the
grouping comparator (Section 6.1's grouping comparator requirement).
The grouping comparator must be a consistent coarsening of the sort
comparator — and keys that compare equal with ``==`` must be
grouping-equal — as in Hadoop.
"""

from __future__ import annotations

import heapq
from itertools import repeat
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator

from repro.mr import counters as C
from repro.mr import serde
from repro.mr.api import Combiner, Context
from repro.mr.comparators import Comparator
from repro.mr.counters import Counters
from repro.mr.merge import merge_runs
from repro.mr.storage import LocalStore, SpillWriter
from repro.obs.trace import current_tracer


#: "No previous pair" marker for ``add_pairs``' same-object tests.
_NOTHING = object()


class _Entry:
    """In-memory state for one key."""

    __slots__ = ("key", "values", "nbytes")

    def __init__(self, key: Any, values: list, nbytes: int):
        self.key = key
        self.values = values
        self.nbytes = nbytes


class _Run:
    """Sequential reader over one sorted spill run, with a head record."""

    def __init__(self, records: Iterator[tuple[Any, Any]], name: str):
        self._records = records
        self.name = name
        self._head: tuple[Any, Any] | None = None
        self._advance()

    def _advance(self) -> None:
        self._head = next(self._records, None)

    @property
    def head(self) -> tuple[Any, Any] | None:
        return self._head

    @property
    def exhausted(self) -> bool:
        return self._head is None

    def pop_group(
        self, rep_key: Any, group_key: Callable[[tuple], Any]
    ) -> list[tuple[Any, Any]]:
        """Pop all leading records grouping-equal to ``rep_key``.

        ``group_key`` is the grouping comparator's ``record_key(0)``:
        ``not (a < b or a > b)`` on its keys is the comparator's 0.
        """
        rep = group_key((rep_key,))
        popped: list[tuple[Any, Any]] = []
        while self._head is not None:
            head = group_key(self._head)
            if head < rep or head > rep:
                break
            popped.append(self._head)
            self._advance()
        return popped

    def drain(self) -> Iterator[tuple[Any, Any]]:
        """Yield every remaining record (used when merging runs)."""
        while self._head is not None:
            record = self._head
            self._advance()
            yield record


class Shared:
    """Decoded-record buffer shared by all Reduce calls of one task."""

    def __init__(
        self,
        comparator: Comparator,
        grouping_comparator: Comparator,
        store: LocalStore,
        counters: Counters,
        memory_limit_bytes: int = 4 * 1024 * 1024,
        merge_threshold: int = 10,
        combiner: Combiner | None = None,
        combine_context: Context | None = None,
        name_prefix: str = "shared",
        combine_batch_size: int = 16,
    ):
        if combiner is not None and combine_context is None:
            raise ValueError("a combiner requires a combine_context")
        if combine_batch_size < 2:
            raise ValueError("combine_batch_size must be >= 2")
        self._comparator = comparator
        self._grouping = grouping_comparator
        self._store = store
        self._counters = counters
        self._memory_limit = memory_limit_bytes
        self._merge_threshold = merge_threshold
        self._combiner = combiner
        self._combine_context = combine_context
        self._combine_batch_size = combine_batch_size
        self._name_prefix = name_prefix
        self._key_fn: Callable[[Any], Any] = comparator.key_fn()
        #: Sort and group keys of ``(key, ...)`` records (run heads).
        self._order = comparator.record_key(0)
        self._group_key = grouping_comparator.record_key(0)
        # With a natural sort comparator the heap holds raw keys (a
        # cmp_to_key wrapper around the natural cmp orders and ties
        # exactly like the key itself, so heap pop order is identical),
        # else cmp_to_key wrappers (``.obj`` is the key): nothing else
        # lets ``heapq`` order a custom comparator.  With natural
        # grouping too, ``pop_groups`` drains the heap in one frame.
        self._fast_keys = comparator.is_natural
        self._fast_group = grouping_comparator.is_natural
        self._heap: list[Any] = []
        self._table: dict[Any, _Entry] = {}
        self._mem_bytes = 0
        self._runs: list[_Run] = []
        #: Nothing stored, in memory or in a run — ``is_empty()``, kept
        #: as a plain attribute by every insert and pop because
        #: ``DecodeLoop.process_group`` reads it once per group.
        self.idle = True
        self._spill_count = 0
        self._spilled_records = 0
        # Captured once: Shared lives and dies inside one task attempt,
        # whose body activated the tracer (or left the no-op default).
        self._tracer = current_tracer()

    # -- inserting -------------------------------------------------------
    def add(self, key: Any, value: Any) -> None:
        """Store one decoded pair (paper's ``Shared.add``)."""
        self.add_pairs(((key, value),))

    def add_group(self, rep_key: Any, other_keys: list, value: Any) -> None:
        """Insert one decoded EagerSH group: ``value`` under every key.

        Exactly ``add(rep_key, value)`` followed by ``add(k, value)``
        for each ``k`` in ``other_keys``.
        """
        self.add_pairs(zip((rep_key, *other_keys), repeat(value)))

    def add_pairs(self, pairs: Iterable[tuple[Any, Any]]) -> None:
        """``add`` every pair in order: the one insert loop.

        A decoded batch costs one frame of ours, not one per pair, and
        behaves exactly like that many ``add`` calls: each pair is
        sized as ``serde.approx_kv_size`` sizes it (the ``str`` case
        and an ``int`` key inline; consecutive pairs carrying the very
        same key or value object, or a value tuple of the very same
        items — a PLAIN run, one Map output fanned out to many keys —
        size it once), and the memory limit is tested after every pair,
        so a spill lands on the same pair however the pairs were
        batched.
        """
        table = self._table
        heap = self._heap
        memory_limit = self._memory_limit
        # (Few locals: ``add`` pays this prologue for a batch of one.)
        prev_key = prev_value = _NOTHING
        for key, value in pairs:
            if key is not prev_key:
                prev_key = key
                key_kind = type(key)
                if key_kind is str:
                    key_size = 2 + len(key)
                elif key_kind is int:
                    key_size = 1 + (key.bit_length() + 7) // 7
                else:
                    key_size = serde.approx_size(key)
            if value is not prev_value:
                if type(value) is str:
                    value_size = 2 + len(value)
                elif not serde.same_items(value, prev_value):
                    value_size = serde.approx_size(value)
                prev_value = value
            size = key_size + value_size
            # Single-hash lookup: probe the table with the raw key
            # (``dict.get`` raises TypeError for an unhashable key,
            # which is then identified by its serialised bytes).
            try:
                entry = table.get(key)
                key_id = key
            except TypeError:
                key_id = serde.encode(key)
                entry = table.get(key_id)
            self._mem_bytes += size
            if entry is None:
                table[key_id] = _Entry(key, [value], size)
                heapq.heappush(
                    heap, key if self._fast_keys else self._key_fn(key)
                )
            else:
                entry.values.append(value)
                entry.nbytes += size
                if (
                    self._combiner is not None
                    and len(entry.values) >= self._combine_batch_size
                ):
                    self._combine_entry(entry)
            if self._mem_bytes > memory_limit:
                if self._combiner is not None:
                    # Combine everything first; that alone often frees
                    # enough memory to avoid the spill (Section 5).
                    self._combine_all()
                if self._mem_bytes > memory_limit:
                    self._spill()
        self.idle = not heap and not self._runs

    def _combine_entry(self, entry: _Entry) -> None:
        """Fold one entry's value list with the original Combiner.

        If the Combiner emits exactly one record whose key stays in the
        same group, the entry keeps the single combined value;
        otherwise the raw values are kept (the Combiner contract was
        violated, so combining is skipped for safety).  Folding runs in
        batches rather than per add — like Hadoop's in-memory combine —
        so the Combiner cost stays amortised.
        """
        assert self._combine_context is not None
        if len(entry.values) < 2:
            return
        emitted: list[tuple[Any, Any]] = []
        capture = self._combine_context.with_sink(
            lambda k, v: emitted.append((k, v))
        )
        self._combiner.reduce(entry.key, iter(entry.values), capture)
        if (
            len(emitted) != 1
            or self._grouping.cmp(emitted[0][0], entry.key) != 0
        ):
            return
        old_bytes = entry.nbytes
        entry.values = [emitted[0][1]]
        entry.nbytes = serde.approx_kv_size(entry.key, entry.values[0])
        self._mem_bytes += entry.nbytes - old_bytes

    def _combine_all(self) -> None:
        """Fold every multi-value entry (pre-spill compaction)."""
        for entry in self._table.values():
            if len(entry.values) > 1:
                self._combine_entry(entry)

    # -- reading ---------------------------------------------------------
    def peek_min_key(self) -> Any:
        """The minimal stored key, or ``None`` when empty."""
        if self._fast_keys and not self._runs:
            # Common case (nothing spilled): the heap top is the answer.
            return self._heap[0] if self._heap else None
        # The first minimum of the heap top and the run heads, in that
        # order (``min`` keeps the first of equal keys).
        heads = [run.head for run in self._runs if not run.exhausted]
        if self._heap:
            top = self._heap[0]
            heads.insert(0, (top if self._fast_keys else top.obj,))
        return min(heads, key=self._order)[0] if heads else None

    def pop_min_key_values(self) -> tuple[Any, list]:
        """Remove and return ``(min_key, values)`` for the minimal group.

        All stored keys grouping-equal to the minimal key are removed;
        their values are returned in sort-key order (the order the
        original reduce call would have seen under secondary sort).
        """
        rep_key = self.peek_min_key()
        if rep_key is None:
            raise KeyError("pop_min_key_values on empty Shared")
        return self._pop_group(rep_key)

    def pop_groups(
        self, bound: Any, inclusive: bool = False
    ) -> list[tuple[Any, list]]:
        """Pop, in key order, the groups sorting strictly below ``bound``
        — with ``inclusive``, also the group grouping-equal to it.

        What ``pop_min_key_values`` would return one call at a time
        while ``peek_min_key`` stays on that side of ``bound``.  With
        natural comparators and nothing spilled a group is the heap top
        and its table entry, values as stored, so the whole drain is
        this one frame; a group that has a grouping-equal neighbour in
        the heap, spilled runs and other comparators go through
        :meth:`_pop_group`.
        """
        groups: list[tuple[Any, list]] = []
        heap = self._heap
        if self._fast_keys and self._fast_group and not self._runs:
            table_pop = self._table.pop
            heappop = heapq.heappop
            while heap:
                key = heap[0]
                if not key < bound and (not inclusive or bound < key):
                    break
                # The second-smallest key is one of the root's children.
                size = len(heap)
                if (size > 1 and not key < heap[1]) or (
                    size > 2 and not key < heap[2]
                ):
                    groups.append(self._pop_group(key))
                    continue
                heappop(heap)
                try:  # single-hash pop, mirroring ``add_pairs``' probe
                    entry = table_pop(key)
                except TypeError:
                    entry = table_pop(serde.encode(key))
                self._mem_bytes -= entry.nbytes
                groups.append((key, entry.values))
            self.idle = not heap
            return groups
        grouping_cmp = self._grouping.cmp
        while True:
            min_key = self.peek_min_key()
            if min_key is None:
                break
            order = grouping_cmp(min_key, bound)
            if order > 0 or (order == 0 and not inclusive):
                break
            groups.append(self._pop_group(min_key))
        return groups

    def _pop_group(self, rep_key: Any) -> tuple[Any, list]:
        """Pop the minimal group, ``rep_key`` being ``peek_min_key()``."""
        collected: list[tuple[Any, list]] = []  # (heap key, values)
        heap = self._heap
        table = self._table
        raw = self._fast_keys
        group_key = self._group_key
        rep = group_key((rep_key,))
        while heap:
            top = heap[0]
            key = top if raw else top.obj
            head = group_key((key,))
            if head < rep or head > rep:
                break
            heapq.heappop(heap)
            try:  # single-hash pop, mirroring ``add_pairs``' probe
                entry = table.pop(key)
            except TypeError:
                entry = table.pop(serde.encode(key))
            self._mem_bytes -= entry.nbytes
            collected.append((top, entry.values))
        for run in self._runs:
            for key, value in run.pop_group(rep_key, group_key):
                collected.append((key if raw else self._key_fn(key), [value]))
        if self._runs:
            self._runs = [run for run in self._runs if not run.exhausted]
        self.idle = not heap and not self._runs
        if len(collected) == 1:
            return rep_key, collected[0][1]
        collected.sort(key=itemgetter(0))
        return rep_key, [value for _, group in collected for value in group]

    def drain(self) -> Iterator[tuple[Any, list]]:
        """Pop every remaining group in ascending key order."""
        while not self.is_empty():
            yield self.pop_min_key_values()

    def is_empty(self) -> bool:
        if self._heap:
            return False
        for run in self._runs:
            if not run.exhausted:
                return False
        return True

    def __len__(self) -> int:
        """Number of distinct in-memory keys (spilled keys not counted)."""
        return len(self._table)

    @property
    def spill_count(self) -> int:
        return self._spill_count

    @property
    def spilled_records(self) -> int:
        """Total records written to spill runs (merges not re-counted)."""
        return self._spilled_records

    # -- spilling --------------------------------------------------------
    def _spill(self) -> None:
        """Drain the in-memory table to a sorted run on local disk."""
        if not self._table:
            return
        name = f"{self._name_prefix}/run{self._spill_count}"
        self._spill_count += 1
        with self._tracer.span(
            "shared.spill", category="shared", run=name
        ) as span:
            writer = SpillWriter(self._store, name)
            records = 0
            # Encode each entry's key once and reuse the bytes for
            # every value in the group (byte-identical output).
            encode = serde.encode
            append_parts = writer.append_parts
            table = self._table
            raw = self._fast_keys
            while self._heap:
                key = heapq.heappop(self._heap)
                if not raw:
                    key = key.obj
                try:  # single-hash pop, as in ``add``
                    entry = table.pop(key)
                except TypeError:
                    entry = table.pop(encode(key))
                key_bytes = encode(entry.key)
                for value in entry.values:
                    append_parts(key_bytes, value)
                    records += 1
            spill_file = writer.close()
            span.set(records=records, bytes=spill_file.size_bytes)
        self._spilled_records += records
        self._counters.add(C.ANTI_SHARED_SPILLS)
        self._counters.add(C.ANTI_SHARED_SPILLED_BYTES, spill_file.size_bytes)
        self._counters.add(C.ANTI_SHARED_SPILLED_RECORDS, records)
        self._mem_bytes = 0
        self._runs.append(_Run(spill_file.scan(), name))
        if len(self._runs) > self._merge_threshold:
            self._merge_runs()

    def _merge_runs(self) -> None:
        """Merge all runs into one, mirroring map-side spill merging."""
        name = f"{self._name_prefix}/merge{self._spill_count}"
        with self._tracer.span(
            "shared.run-merge",
            category="shared",
            runs=len(self._runs),
        ):
            writer = SpillWriter(self._store, name)
            runs = [list(run.drain()) for run in self._runs]
            writer.append_batch(merge_runs(runs, self._comparator))
            for run in self._runs:
                self._store.delete_file(run.name)
            spill_file = writer.close()
            self._runs = [_Run(spill_file.scan(), name)]
