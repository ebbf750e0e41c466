"""Input splits: slicing a record list into map-task inputs."""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.mr import serde

Record = tuple[Any, Any]


class SizedSplit(list):
    """An input split that knows its records' total encoded size.

    A pipeline cuts one from a dataset whose encoding already exists
    (the producing job's output bytes), so the map task charges its
    input bytes from ``encoded_bytes`` instead of encoding every record
    to measure it — as Hadoop reads a split's length from the file
    system.  A job fed only sized splits is a pipeline's, and its reduce
    tasks keep their output's encoding in turn
    (:meth:`~repro.mr.engine.JobResult.encoded_output`).  Otherwise a
    plain ``list``.
    """

    __slots__ = ("encoded_bytes",)

    def __init__(self, records: Iterable[Record], encoded_bytes: int):
        super().__init__(records)
        self.encoded_bytes = encoded_bytes


def sized_splits(
    splits: Sequence[list[Record]], sizes: Sequence[int]
) -> list[SizedSplit]:
    """``splits`` with each one's encoded size attached, cut from
    ``sizes``: the per-record sizes of the splits' records, concatenated
    in split order."""
    sized: list[SizedSplit] = []
    start = 0
    for split in splits:
        end = start + len(split)
        sized.append(SizedSplit(split, sum(sizes[start:end])))
        start = end
    if start != len(sizes):
        raise ValueError(
            f"{len(sizes)} record sizes for {start} split records"
        )
    return sized


def split_records(
    records: Sequence[Record] | Iterable[Record],
    num_splits: int | None = None,
    split_bytes: int | None = None,
) -> list[list[Record]]:
    """Partition ``records`` into contiguous input splits.

    Exactly one of ``num_splits`` / ``split_bytes`` must be given:
    ``num_splits`` makes that many near-equal-count splits (like setting
    the number of map tasks); ``split_bytes`` cuts a new split whenever
    the serialised size of the current one reaches the limit (like an
    HDFS block size).  Empty splits are never produced.
    """
    records = list(records)
    if (num_splits is None) == (split_bytes is None):
        raise ValueError("pass exactly one of num_splits / split_bytes")

    if num_splits is not None:
        if num_splits < 1:
            raise ValueError("num_splits must be >= 1")
        num_splits = min(num_splits, max(len(records), 1))
        base, extra = divmod(len(records), num_splits)
        splits: list[list[Record]] = []
        start = 0
        for index in range(num_splits):
            size = base + (1 if index < extra else 0)
            if size == 0:
                continue
            splits.append(records[start : start + size])
            start += size
        return splits or [[]]

    assert split_bytes is not None
    if split_bytes < 1:
        raise ValueError("split_bytes must be >= 1")
    splits = []
    current: list[Record] = []
    current_bytes = 0
    for key, value in records:
        current.append((key, value))
        current_bytes += serde.record_size(key, value)
        if current_bytes >= split_bytes:
            splits.append(current)
            current = []
            current_bytes = 0
    if current:
        splits.append(current)
    return splits or [[]]


def enumerate_input(values: Iterable[Any]) -> list[Record]:
    """Turn a sequence of values into ``(offset, value)`` records.

    Mirrors Hadoop's ``TextInputFormat`` keying lines by byte offset.
    """
    records: list[Record] = []
    offset = 0
    for value in values:
        records.append((offset, value))
        offset += serde.sizeof(value)
    return records
