"""k-nearest-neighbour join (paper Section 1's join lineup).

The paper cites kNN joins [Lu et al., PVLDB 2012; Zhang et al., EDBT
2012] among the replication-heavy join algorithms Anti-Combining
targets.  This module implements the exact block-nested variant
(H-BNLJ from Zhang et al.): relations are split into ``n`` blocks and
every (data block, query block) pair meets in one reduce cell, so the
join is exact:

* a data point in block ``i`` is replicated to the ``n`` cells
  ``(i, *)``;
* a query point in block ``j`` is replicated to the ``n`` cells
  ``(*, j)``;
* the first job's Reduce computes, per cell, each query's ``k``
  nearest candidates among the cell's data points;
* a second job merges the per-cell candidate lists into each query's
  global top ``k``.

Each point is replicated ``n`` times with an identical value — the
Anti-Combining opportunity — and a pair ``(query, data)`` meets in
exactly one cell, so candidate lists never double-count.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Any, Iterator

from repro.mr.api import (
    Context,
    HashPartitioner,
    Mapper,
    Partitioner,
    Reducer,
    stable_hash,
)
from repro.mr.config import JobConf
from repro.mr.engine import JobResult, LocalJobRunner
from repro.mr.split import split_records

DATA_TAG = "D"
QUERY_TAG = "Q"


def euclidean(a: tuple, b: tuple) -> float:
    """Euclidean distance between two coordinate tuples."""
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


class KnnBlockMapper(Mapper):
    """Replicate points over their row (data) / column (queries).

    Input records: ``(point_id, (tag, coordinates))`` with tag ``"D"``
    or ``"Q"``.
    """

    def __init__(self, num_blocks: int):
        if num_blocks < 1:
            raise ValueError("num_blocks must be >= 1")
        self.num_blocks = num_blocks

    def _cell(self, row: int, col: int) -> int:
        return row * self.num_blocks + col

    def map(self, point_id: Any, record: tuple, context: Context) -> None:
        tag, coords = record
        coords = tuple(coords)
        block = stable_hash(point_id) % self.num_blocks
        if tag == DATA_TAG:
            for col in range(self.num_blocks):
                context.write(
                    self._cell(block, col),
                    (DATA_TAG, point_id, coords),
                )
        elif tag == QUERY_TAG:
            for row in range(self.num_blocks):
                context.write(
                    self._cell(row, block),
                    (QUERY_TAG, point_id, coords),
                )
        else:
            raise ValueError(f"unknown point tag: {tag!r}")


class KnnCellReducer(Reducer):
    """Local kNN per cell: each query's k best candidates here."""

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k

    def reduce(
        self, cell: int, values: Iterator[tuple], context: Context
    ) -> None:
        data: list[tuple[Any, tuple]] = []
        queries: list[tuple[Any, tuple]] = []
        for tag, point_id, coords in values:
            coords = tuple(coords)
            if tag == DATA_TAG:
                data.append((point_id, coords))
            else:
                queries.append((point_id, coords))
        for query_id, query_coords in queries:
            candidates = sorted(
                (round(euclidean(query_coords, coords), 9), data_id)
                for data_id, coords in data
            )[: self.k]
            if candidates:
                context.write(query_id, candidates)


class KnnMergeReducer(Reducer):
    """Second job: merge per-cell candidate lists into the global top-k."""

    def __init__(self, k: int):
        self.k = k

    def reduce(
        self, query_id: Any, values: Iterator[list], context: Context
    ) -> None:
        merged = sorted(
            (tuple(candidate) for batch in values for candidate in batch)
        )
        context.write(query_id, merged[: self.k])


class _CellPartitioner(Partitioner):
    def get_partition(self, key: int, num_partitions: int) -> int:
        return key % num_partitions


def knn_join_job(
    k: int = 3,
    num_blocks: int = 4,
    num_reducers: int = 8,
    **job_kwargs: Any,
) -> JobConf:
    """The first (replicated block) job of the kNN join."""
    return JobConf(
        mapper=partial(KnnBlockMapper, num_blocks),
        reducer=partial(KnnCellReducer, k),
        partitioner=_CellPartitioner(),
        num_reducers=num_reducers,
        name="knn-join",
        **job_kwargs,
    )


def run_knn_join(
    job: JobConf,
    records: list[tuple[Any, tuple]],
    k: int,
    num_splits: int = 8,
    runner: LocalJobRunner | None = None,
) -> tuple[dict[Any, list], JobResult, JobResult]:
    """Run both kNN-join jobs; return ``{query_id: [(dist, id), ...]}``.

    The merge job inherits the candidate job's reducer count and cost
    meter so accounting stays comparable.
    """
    runner = runner if runner is not None else LocalJobRunner()
    first = runner.run(job, split_records(records, num_splits=num_splits))
    merge_job = job.clone(
        mapper=Mapper,
        reducer=partial(KnnMergeReducer, k),
        combiner=None,
        partitioner=HashPartitioner(),
        name="knn-merge",
        anti=None,
    )
    second = runner.run(
        merge_job, split_records(first.output, num_splits=num_splits)
    )
    return dict(second.output), first, second


def brute_force_knn(
    records: list[tuple[Any, tuple]], k: int
) -> dict[Any, list]:
    """Reference implementation: all-pairs distances."""
    data = [
        (pid, tuple(coords))
        for pid, (tag, coords) in records
        if tag == DATA_TAG
    ]
    queries = [
        (pid, tuple(coords))
        for pid, (tag, coords) in records
        if tag == QUERY_TAG
    ]
    result: dict[Any, list] = {}
    for query_id, query_coords in queries:
        candidates = sorted(
            (round(euclidean(query_coords, coords), 9), data_id)
            for data_id, coords in data
        )
        if candidates:
            result[query_id] = candidates[:k]
    return result
