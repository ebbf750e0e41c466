"""Sorted segments: the on-disk unit of map output and spills.

A *segment* holds the records of one partition, sorted by key, as a
(possibly compressed) concatenation of length-prefixed serialised
key/value pairs — the simulator's equivalent of one partition's slice
of a Hadoop spill or final map-output file.  A merge pass that runs no
user code (:func:`merge_pass`) moves those stored records as they are,
the way Hadoop merges IFile segments under a raw comparator.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator

from repro.mr import counters as C
from repro.mr import serde
from repro.mr.compress import Codec, get_codec
from repro.mr.merge import merge_runs

if TYPE_CHECKING:
    from repro.mr.config import JobConf
    from repro.mr.counters import Counters


def iter_segment_bytes(data: bytes, codec: Codec) -> Iterator[tuple[Any, Any]]:
    """Decompress and yield the records of a segment in stored order."""
    yield from serde.decode_stream(codec.decompress(data))


@dataclass
class Segment:
    """Handle to one stored partition segment of a spill or map output."""

    store: Any  # LocalStore; typed loosely to avoid an import cycle
    name: str
    partition: int
    record_count: int
    raw_bytes: int
    codec: Codec

    @property
    def size_bytes(self) -> int:
        """On-disk (post-compression) size."""
        return self.store.file_size(self.name)

    def scan(self) -> Iterator[tuple[Any, Any]]:
        """Yield records in sorted order, charging one disk read."""
        data = self.store.read_file(self.name)
        yield from iter_segment_bytes(data, self.codec)

    def read_bytes(self) -> bytes:
        """Raw stored bytes (charged as one disk read)."""
        return self.store.read_file(self.name)

    def read_records(
        self, job: JobConf, counters: Counters
    ) -> list[tuple[Any, Any]]:
        """Read the whole run back as a task of ``job`` does: one disk
        read, the metered decompression and the parse's framework cost,
        charged in that order."""
        return serde.decode_stream(self._read_raw(job, counters))

    def read_frames(
        self, job: JobConf, counters: Counters
    ) -> list[tuple[Any, bytes]]:
        """Read the whole run back as ``(key, frame)`` pairs
        (:func:`serde.decode_frames`), charged exactly as
        :meth:`read_records` is."""
        return serde.decode_frames(self._read_raw(job, counters))

    def _read_raw(self, job: JobConf, counters: Counters) -> bytes:
        data = self.read_bytes()
        raw, cost = job.cost_meter.measure(self.codec.decompress, data)
        counters.add(C.CPU_CODEC_SECONDS, cost)
        counters.add(
            C.CPU_FRAMEWORK_SECONDS,
            job.framework_cost_model.serialize_cost(len(raw)),
        )
        return raw

    def delete(self) -> None:
        self.store.delete_file(self.name)


@dataclass(frozen=True)
class SegmentPayload:
    """A segment detached from its store: pure bytes plus metadata.

    This is the form in which map output crosses an executor boundary
    (the segment bytes travel with the task result, like a serve read
    shipping a map-output file to the reduce node).  It is picklable —
    it carries the codec *name*, not the codec object, and no store
    reference.
    """

    name: str
    partition: int
    record_count: int
    raw_bytes: int
    codec_name: str | None
    data: bytes
    #: The map task that produced this segment.
    origin: str = ""

    @property
    def size_bytes(self) -> int:
        """On-disk (post-compression) size."""
        return len(self.data)

    @property
    def codec(self) -> Codec:
        return get_codec(self.codec_name)

    def __reduce_ex__(self, protocol: int):
        # Protocol 5: ship ``data`` as an out-of-band buffer so
        # serialising a payload never copies the segment bytes and an
        # out-of-band load adopts the buffer (see executor.dumps_oob).
        if protocol >= 5:
            return (
                _rebuild_payload,
                (
                    self.name,
                    self.partition,
                    self.record_count,
                    self.raw_bytes,
                    self.codec_name,
                    pickle.PickleBuffer(self.data),
                    self.origin,
                ),
            )
        return super().__reduce_ex__(protocol)

    def scan(self) -> Iterator[tuple[Any, Any]]:
        """Yield records in sorted order (no disk accounting: the
        payload is an already-fetched in-memory copy)."""
        yield from iter_segment_bytes(self.data, self.codec)

    def to_segment(self, store: Any) -> Segment:
        """Materialise this payload as a file in ``store``.

        The adoption itself is free of charge: the bytes were written
        (and charged) on the producing task's disk; reading them out of
        ``store`` charges that store's counters, which is how the serve
        read of the shuffle is accounted.
        """
        store.adopt_file(self.name, self.data)
        return Segment(
            store=store,
            name=self.name,
            partition=self.partition,
            record_count=self.record_count,
            raw_bytes=self.raw_bytes,
            codec=self.codec,
        )


def _rebuild_payload(
    name: str,
    partition: int,
    record_count: int,
    raw_bytes: int,
    codec_name: str | None,
    data: Any,
    origin: str,
) -> SegmentPayload:
    """Reconstructor for pickled payloads (protocol 5 reduce).

    ``data`` arrives as the adopted out-of-band buffer — the original
    ``bytes`` object when unpickled in-process — or as in-band bytes;
    anything else (a writable buffer) is snapshotted.
    """
    if not isinstance(data, bytes):
        data = bytes(data)
    return SegmentPayload(
        name=name,
        partition=partition,
        record_count=record_count,
        raw_bytes=raw_bytes,
        codec_name=codec_name,
        data=data,
        origin=origin,
    )


def export_segment(segment: Segment, origin: str) -> SegmentPayload:
    """Detach ``segment`` from its store as a :class:`SegmentPayload`.

    The export does not charge a disk read: the serve read that ships
    the bytes to a reduce task is charged when the payload is fetched
    (see :meth:`~repro.mr.reducetask.ReduceTask.run`).
    """
    return SegmentPayload(
        name=segment.name,
        partition=segment.partition,
        record_count=segment.record_count,
        raw_bytes=segment.raw_bytes,
        codec_name=segment.codec.name,
        data=segment.store.peek_file(segment.name),
        origin=origin,
    )


def persist_segment(
    job: JobConf,
    counters: Counters,
    store: Any,
    name: str,
    partition: int,
    raw: bytes,
    count: int,
) -> Segment:
    """Compress the framed records ``raw`` and persist them as a
    segment, as every segment write of a task of ``job`` is charged:
    the serialisation's framework cost, the metered compression, then
    the disk write."""
    counters.add(
        C.CPU_FRAMEWORK_SECONDS,
        job.framework_cost_model.serialize_cost(len(raw)),
    )
    codec = get_codec(job.map_output_codec)
    data, cost = job.cost_meter.measure(codec.compress, raw)
    counters.add(C.CPU_CODEC_SECONDS, cost)
    store.write_file(name, data)
    return Segment(
        store=store,
        name=name,
        partition=partition,
        record_count=count,
        raw_bytes=len(raw),
        codec=codec,
    )


def merge_pass(
    job: JobConf,
    counters: Counters,
    runs: list[Segment],
    store: Any,
    name: str,
    partition: int,
) -> Segment:
    """Merge sorted ``runs`` into one new segment, moving each record
    as the bytes it is stored as.

    The merge of every pass that runs no user code, on either side of
    the shuffle: keys are decoded to order the records, values are
    never decoded.  Charged in this order: the merge cost, each run's
    read in run order, then the write (:func:`persist_segment`).
    """
    counters.add(
        C.CPU_FRAMEWORK_SECONDS,
        job.framework_cost_model.merge_cost(
            sum(run.record_count for run in runs), len(runs)
        ),
    )
    merged = merge_runs(
        [run.read_frames(job, counters) for run in runs], job.comparator
    )
    raw = b"".join([frame for _, frame in merged])
    return persist_segment(
        job, counters, store, name, partition, raw, len(merged)
    )
