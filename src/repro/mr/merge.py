"""K-way merging and key grouping for sorted record streams."""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Iterator

from repro.mr import serde
from repro.mr.comparators import Comparator

_FIRST = itemgetter(0)


def merge_key_fn(comparator: Comparator):
    """The cheapest ``key=`` adapter for merging records under
    ``comparator``.

    Natural order sorts by the raw key (a ``cmp_to_key`` wrapper around
    ``_natural_cmp`` orders and ties exactly like the key itself);
    encoded-bytes order sorts by the serialised key (that comparator
    literally compares encoded bytes).  Both produce the same merge
    order as the generic wrapper — a stable merge breaks ties the same
    way under any of them — while avoiding a wrapper-object allocation
    and a Python ``cmp`` call per comparison.
    """
    if comparator.is_natural:
        return _FIRST
    if comparator.orders_by_encoded_bytes:
        encode = serde.encode
        return lambda record: encode(record[0])
    key_fn = comparator.key_fn()
    return lambda record: key_fn(record[0])


def merge_runs(
    runs: list[list[tuple[Any, Any]]],
    comparator: Comparator,
) -> list[tuple[Any, Any]]:
    """Merge already-sorted runs: concatenate and stable-sort.

    The result is exactly a k-way heap merge (``heapq.merge``) of the
    runs under :func:`merge_key_fn`'s ordering: equal keys keep run
    order, then position within the run — which is concatenation order,
    so a stable sort of the concatenation cannot move them, and
    secondary-sort semantics stay intact.  Timsort's galloping over the
    pre-sorted runs is far cheaper than a Python-level heap walk per
    record (DESIGN.md §11).
    """
    if len(runs) == 1:
        return runs[0]
    merged: list[tuple[Any, Any]] = []
    for run in runs:
        merged.extend(run)
    merged.sort(key=merge_key_fn(comparator))
    return merged


def group_runs(
    records: list[tuple[Any, Any]],
) -> Iterator[tuple[Any, list[Any]]]:
    """Group iteration over a materialised sorted run.

    Natural-grouping twin of :func:`group_by_key` operating on a list:
    group boundaries are found by scanning indices and each group's
    values are built in one comprehension over the run slice.  Callers
    gate on ``grouping_comparator.is_natural`` (equality is the inline
    ``not (a < b or a > b)``, exactly the natural comparator's 0).
    """
    n = len(records)
    i = 0
    while i < n:
        key = records[i][0]
        j = i + 1
        while j < n:
            next_key = records[j][0]
            if next_key < key or next_key > key:
                break
            j += 1
        yield key, [record[1] for record in records[i:j]]
        i = j


def group_by_key(
    records: Iterator[tuple[Any, Any]],
    grouping_comparator: Comparator,
) -> Iterator[tuple[Any, list[Any]]]:
    """Group a sorted record stream into ``(first_key, values)`` runs.

    Consecutive records whose keys compare equal under the grouping
    comparator form one group; the group's representative key is the
    first key seen, matching Hadoop's secondary-sort behaviour.
    """
    current_key: Any = None
    values: list[Any] = []
    have_group = False
    if grouping_comparator.is_natural:
        # ``not (a < b or a > b)`` mirrors ``_natural_cmp`` returning 0
        # (equality under the ordering, not ``__eq__``).
        for key, value in records:
            if have_group and not (key < current_key or key > current_key):
                values.append(value)
            else:
                if have_group:
                    yield current_key, values
                current_key = key
                values = [value]
                have_group = True
        if have_group:
            yield current_key, values
        return
    for key, value in records:
        if have_group and grouping_comparator.cmp(key, current_key) == 0:
            values.append(value)
        else:
            if have_group:
                yield current_key, values
            current_key = key
            values = [value]
            have_group = True
    if have_group:
        yield current_key, values
