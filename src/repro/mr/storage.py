"""Virtual local disks with exact byte accounting.

Each simulated worker node has a :class:`LocalStore`: an in-memory
key→bytes map standing in for the node's local file system.  Every write
and read is charged to the supplied :class:`~repro.mr.counters.Counters`
object, which is how the simulator measures the "Total Disk Read/Write"
columns of the paper's Tables 1 and 2.

Data lives in memory because the simulated data sets are laptop-scale;
the accounting is what matters.  :class:`SpillFile` provides the
sorted-run abstraction used by map-side spills and by the ``Shared``
structure's spills (paper Section 5).
"""

from __future__ import annotations

from typing import Iterator

from repro.mr import counters as C
from repro.mr import serde
from repro.mr.counters import Counters


class StorageError(RuntimeError):
    """Raised on invalid store operations (missing file, double create)."""


class LocalStore:
    """An in-memory stand-in for one worker's local disk."""

    def __init__(self, counters: Counters | None = None, node: str = "node0"):
        self.counters = counters if counters is not None else Counters()
        self.node = node
        self._files: dict[str, bytes] = {}

    # -- file operations ------------------------------------------------------
    def write_file(self, name: str, data: bytes) -> None:
        """Write ``data`` under ``name``, charging disk-write bytes."""
        if name in self._files:
            raise StorageError(f"file already exists: {name}")
        self._files[name] = data
        self.counters.add(C.DISK_WRITE_BYTES, len(data))

    def read_file(self, name: str) -> bytes:
        """Read a whole file, charging disk-read bytes."""
        try:
            data = self._files[name]
        except KeyError:
            raise StorageError(f"no such file: {name}") from None
        self.counters.add(C.DISK_READ_BYTES, len(data))
        return data

    def peek_file(self, name: str) -> bytes:
        """Read a whole file *without* charging a disk read.

        Used when exporting already-written bytes across an executor
        boundary (segment payloads): the write was charged here, and
        the consuming side charges the serve read when it fetches.
        """
        try:
            return self._files[name]
        except KeyError:
            raise StorageError(f"no such file: {name}") from None

    def adopt_file(self, name: str, data: bytes) -> None:
        """Register bytes written (and charged) on another task's disk.

        The reduce task adopts the map-output payloads this way so that
        subsequent :meth:`read_file` calls charge the adopting store's
        counters — the accounting of the shuffle's serve read.
        """
        if name in self._files:
            raise StorageError(f"file already exists: {name}")
        self._files[name] = data

    def delete_file(self, name: str) -> None:
        """Delete ``name`` (idempotent, free of charge)."""
        self._files.pop(name, None)

    def file_size(self, name: str) -> int:
        """Size of a stored file without charging a read."""
        try:
            return len(self._files[name])
        except KeyError:
            raise StorageError(f"no such file: {name}") from None

    def exists(self, name: str) -> bool:
        return name in self._files

    def list_files(self) -> list[str]:
        return sorted(self._files)

    def total_stored_bytes(self) -> int:
        return sum(len(data) for data in self._files.values())


class SpillWriter:
    """Writes a sorted run of key/value records to a :class:`LocalStore`.

    Records are length-prefixed serialised key/value pairs, so a run can
    be scanned sequentially without materialising it (the paper's
    "buffered sequential read", Section 5).
    """

    def __init__(self, store: LocalStore, name: str):
        self._store = store
        self.name = name
        self._buf = bytearray()
        self._scratch = bytearray()
        self._count = 0
        self._closed = False

    def append(self, key, value) -> int:
        """Append one record; return its on-disk size in bytes."""
        if self._closed:
            raise StorageError(f"spill {self.name} already closed")
        before = len(self._buf)
        serde.append_record(self._buf, key, value)
        self._count += 1
        return len(self._buf) - before

    def append_parts(self, key_bytes: bytes, value) -> int:
        """Append one record whose key is already serialised.

        The ``Shared`` spill path caches each entry's encoded key once
        and reuses it for every value in the group, instead of
        re-encoding the key per record.  Byte-identical to
        :meth:`append`.
        """
        if self._closed:
            raise StorageError(f"spill {self.name} already closed")
        scratch = self._scratch
        scratch.clear()
        serde.encode_into(scratch, value)
        before = len(self._buf)
        serde.write_varint(self._buf, len(key_bytes) + len(scratch))
        self._buf.extend(key_bytes)
        self._buf.extend(scratch)
        self._count += 1
        return len(self._buf) - before

    def append_batch(self, pairs) -> int:
        """Append a batch of records; return their total on-disk size.

        Run-oriented twin of :meth:`append` (batched dataflow,
        DESIGN.md §11): one :func:`serde.append_records` call frames
        and encodes the whole batch, byte-identical to appending the
        records one by one.
        """
        if self._closed:
            raise StorageError(f"spill {self.name} already closed")
        before = len(self._buf)
        serde.append_records(self._buf, pairs)
        self._count += len(pairs)
        return len(self._buf) - before

    def close(self) -> "SpillFile":
        """Flush to the store and return a reader handle."""
        if self._closed:
            raise StorageError(f"spill {self.name} already closed")
        self._closed = True
        self._store.write_file(self.name, bytes(self._buf))
        return SpillFile(self._store, self.name, self._count)


class SpillFile:
    """A closed, sorted run readable sequentially from a store."""

    def __init__(self, store: LocalStore, name: str, record_count: int):
        self._store = store
        self.name = name
        self.record_count = record_count

    @property
    def size_bytes(self) -> int:
        return self._store.file_size(self.name)

    def scan(self) -> Iterator[tuple[object, object]]:
        """Yield records in stored (sorted) order; charges one full read."""
        yield from serde.decode_stream(self._store.read_file(self.name))

    def delete(self) -> None:
        self._store.delete_file(self.name)
