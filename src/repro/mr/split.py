"""Input splits: slicing a record list into map-task inputs."""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.mr import serde

Record = tuple[Any, Any]


class SizedSplit(list):
    """An input split that knows, or learns, its records' total encoded
    size — as Hadoop reads a split's length from the file system.

    A split cut by bytes, or from a dataset whose encoding already
    exists (a pipeline's), is sized at cut.  Any other starts unsized
    (``encoded_bytes`` is None): its first map attempt to finish sizes
    it record by record, and the scheduler writes that count back here,
    so a later job over the same split charges it without encoding.

    A split is immutable once cut, like an HDFS file.  ``sized_records``
    is its record count when sized; a map task fed a split whose length
    has since changed fails rather than charge a stale count.
    """

    __slots__ = ("encoded_bytes", "sized_records")

    def __init__(
        self, records: Iterable[Record] = (), encoded_bytes: int | None = None
    ):
        super().__init__(records)
        self.encoded_bytes = None
        self.sized_records = 0
        if encoded_bytes is not None:
            self.size(encoded_bytes)

    def size(self, encoded_bytes: int) -> None:
        """Record the encoded size of the split's current records."""
        self.encoded_bytes = encoded_bytes
        self.sized_records = len(self)


def split_records(
    records: Sequence[Record] | Iterable[Record],
    num_splits: int | None = None,
    split_bytes: int | None = None,
    sizes: Sequence[int] | None = None,
) -> list[SizedSplit]:
    """Partition ``records`` into contiguous input splits.

    Exactly one of ``num_splits`` / ``split_bytes`` must be given:
    ``num_splits`` makes that many near-equal-count splits (like setting
    the number of map tasks); ``split_bytes`` cuts a new split whenever
    the serialised size of the current one reaches the limit (like an
    HDFS block size).  A split cut by bytes is sized at cut; one cut by
    count is sized at cut only when ``sizes``, the records' encoded
    sizes in order, is given, and otherwise when first read.  Empty
    splits are never produced: empty input gives one empty split of 0
    bytes.
    """
    records = list(records)
    if (num_splits is None) == (split_bytes is None):
        raise ValueError("pass exactly one of num_splits / split_bytes")
    if sizes is not None and len(sizes) != len(records):
        raise ValueError(f"{len(sizes)} record sizes for {len(records)} records")

    splits: list[SizedSplit] = []
    if num_splits is not None:
        if num_splits < 1:
            raise ValueError("num_splits must be >= 1")
        num_splits = min(num_splits, max(len(records), 1))
        base, extra = divmod(len(records), num_splits)
        start = 0
        for index in range(num_splits):
            end = start + base + (1 if index < extra else 0)
            if end == start:
                continue
            encoded = None if sizes is None else sum(sizes[start:end])
            splits.append(SizedSplit(records[start:end], encoded))
            start = end
        return splits or [SizedSplit([], 0)]

    assert split_bytes is not None
    if split_bytes < 1:
        raise ValueError("split_bytes must be >= 1")
    if sizes is None:
        sizes = [serde.record_size(key, value) for key, value in records]
    current = SizedSplit()
    current_bytes = 0
    for (key, value), size in zip(records, sizes):
        current.append((key, value))
        current_bytes += size
        if current_bytes >= split_bytes:
            current.size(current_bytes)
            splits.append(current)
            current, current_bytes = SizedSplit(), 0
    if current:
        current.size(current_bytes)
        splits.append(current)
    return splits or [SizedSplit([], 0)]


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
