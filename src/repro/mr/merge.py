"""Merging and key grouping for sorted record runs.

Both order records through the comparator's
:meth:`~repro.mr.comparators.Comparator.record_key`, so one loop serves
natural, encoded-bytes and custom orders alike.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.mr.comparators import Comparator


def merge_runs(
    runs: list[list[tuple[Any, Any]]],
    comparator: Comparator,
) -> list[tuple[Any, Any]]:
    """Merge already-sorted runs: concatenate and stable-sort.

    The result is exactly a k-way heap merge (``heapq.merge``) of the
    runs under ``comparator.record_key(0)``: equal keys keep run
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
    merged.sort(key=comparator.record_key(0))
    return merged


def group_runs(
    records: list[tuple[Any, Any]],
    grouping_comparator: Comparator,
) -> Iterator[tuple[Any, list[Any]]]:
    """Group a materialised sorted run into ``(first_key, values)``.

    Consecutive records whose keys compare equal under the grouping
    comparator form one group; the group's representative key is the
    first key seen, matching Hadoop's secondary-sort behaviour.  Each
    record's ``record_key(0)`` key (a C-level pass under natural order)
    is compared with the group's first, where ``not (a < b or a > b)``
    is the comparator's 0.
    """
    group: tuple[Any, list[Any]] | None = None
    for (key, value), order in zip(
        records, map(grouping_comparator.record_key(0), records)
    ):
        if group is not None and not (order < first or order > first):
            values.append(value)
        else:
            if group is not None:
                yield group
            first = order
            values = [value]
            group = (key, values)
    if group is not None:
        yield group
