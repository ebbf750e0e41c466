"""1-Bucket-Theta join (paper Section 7.7.3; algorithm from [19]).

The paper evaluates Anti-Combining on the band self-join

    SELECT S.date, S.longitude, S.latitude, T.latitude
    FROM   Cloud AS S, Cloud AS T
    WHERE  S.date = T.date AND S.longitude = T.longitude
      AND  ABS(S.latitude - T.latitude) <= 10

executed with the memory-aware 1-Bucket-Theta algorithm (Okcan &
Riedewald, SIGMOD 2011), which we implement here:

* The (conceptual) |S| x |T| join matrix is tiled by a
  ``grid_rows x grid_cols`` grid of regions; finer grids model the
  memory-aware chunking (smaller chunks, more replication — the paper
  observes an average replication factor of 67 on its cluster).
* Each input record is assigned one matrix row and one matrix column.
  The original algorithm draws them uniformly at random; we derive them
  from a stable hash of the record so the assignment is uniform *and*
  deterministic, which keeps LazySH applicable (Section 6.2's
  non-determinism caveat is about re-execution disagreeing with the
  first execution — a hash-random assignment sidesteps it).
* **Map** sends the record as an S-tuple to every region in its row and
  as a T-tuple to every region in its column.  All S-copies are one
  object and so are all T-copies, and every copy of a record stems
  from one Map call — the replication that makes joins "a perfect
  target for Anti-Combining".
* **Reduce** (one call per region) buckets the region's T-tuples by
  ``(date, longitude)`` and scans, for each S-tuple, only its bucket
  for the latitude band: the nested loop's pairs, in its order.  A pair
  (s, t) meets in exactly one region (s.row, t.col), so no
  deduplication is needed.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Iterator

from repro.mr.api import (
    Context,
    Mapper,
    Partitioner,
    Reducer,
    stable_hash,
)
from repro.mr.config import JobConf

S_TAG = "S"
T_TAG = "T"


def band_join_predicate(s: tuple, t: tuple) -> bool:
    """The paper's Cloud query: equal date & longitude, latitude band.

    Record layout (from :mod:`repro.datagen.cloud`):
    ``(date, longitude, latitude, *extra_attributes)``.
    """
    return s[0] == t[0] and s[1] == t[1] and abs(s[2] - t[2]) <= 10


class OneBucketThetaMapper(Mapper):
    """Replicate each record over its matrix row (as S) and column (as T)."""

    def __init__(self, grid_rows: int, grid_cols: int):
        if grid_rows < 1 or grid_cols < 1:
            raise ValueError("grid dimensions must be >= 1")
        self.grid_rows = grid_rows
        self.grid_cols = grid_cols

    def map(self, key: Any, record: tuple, context: Context) -> None:
        cols = self.grid_cols
        row = stable_hash(("row", key)) % self.grid_rows
        col = stable_hash(("col", key)) % cols
        # One tagged copy per tag, written to every cell of the row
        # (S) and then of the column (T): the copies are one object.
        s_copy = (S_TAG, record)
        t_copy = (T_TAG, record)
        first = row * cols
        context.write_all(
            [(first + c, s_copy) for c in range(cols)]
            + [(r * cols + col, t_copy) for r in range(self.grid_rows)]
        )


class RegionPartitioner(Partitioner):
    """Regions round-robin over reduce tasks.

    With more regions than reducers (the memory-aware setting) several
    region keys share a partition, which is where EagerSH/LazySH find
    cross-key sharing.
    """

    def get_partition(self, key: int, num_partitions: int) -> int:
        return key % num_partitions


class BandJoinReducer(Reducer):
    """Join one region's S x T tuples on :func:`band_join_predicate`,
    bucketed on (hashable) date and longitude: the records a nested
    loop over S x T writes, in its order."""

    def reduce(
        self, region: int, values: Iterator[tuple], context: Context
    ) -> None:
        s_tuples: list[tuple] = []
        buckets: dict[tuple, list[tuple]] = {}
        for tag, record in values:
            record = tuple(record)
            if tag == S_TAG:
                s_tuples.append(record)
            else:
                buckets.setdefault(record[:2], []).append(record)
        for s in s_tuples:
            latitude = s[2]
            for t in buckets.get(s[:2], ()):
                if abs(latitude - t[2]) <= 10:
                    # The paper's projection: S.date, S.longitude,
                    # S.latitude, T.latitude.
                    context.write(region, (s[0], s[1], latitude, t[2]))


def band_join_job(
    grid_rows: int = 8,
    grid_cols: int = 8,
    num_reducers: int = 8,
    **job_kwargs: Any,
) -> JobConf:
    """A ready-to-run 1-Bucket-Theta band-join job configuration."""
    return JobConf(
        mapper=partial(OneBucketThetaMapper, grid_rows, grid_cols),
        reducer=BandJoinReducer,
        partitioner=RegionPartitioner(),
        num_reducers=num_reducers,
        name="theta-join",
        **job_kwargs,
    )
