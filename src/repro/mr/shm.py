"""Shared-memory shuffle plane (DESIGN.md §13).

On the process executor every map-output segment historically crossed
two pickle hops: worker → scheduler inside the map result, and
scheduler → reduce worker inside the shuffle plan.  Even with the
protocol-5 out-of-band transport that is two full copies of every
shuffled byte through the pool pipes.

This module moves the *bytes* out of the pipes entirely:

* A map attempt writes all of its partitions' encoded segment bytes
  into one ``multiprocessing.shared_memory`` block and returns compact
  :class:`ShmSegmentPayload` descriptors — ``(block, offset, length)``
  plus the segment metadata — instead of the bytes themselves.
* The scheduler-side :class:`SegmentArena` adopts every published
  block, grants one *lease* per consuming reduce task at shuffle-plan
  time, and unlinks each block as soon as its last lease is released
  (or, unconditionally, when the job ends — including failed runs).
* A reduce attempt attaches the block once per worker process and
  decodes each segment through a zero-copy ``memoryview`` slice; the
  existing decoders (:func:`repro.mr.serde.decode_stream`, the codec
  ``decompress`` calls) all accept buffer views.

The plane is transport-only: the bytes written into a block are exactly
the payload bytes the pickle path would have shipped, every analytic
counter charge is derived from the same lengths, and any failure to
allocate or attach falls back to the inline pickle-5 payloads.  The
counter-invariance suite pins this (a pool run with the plane must be
bit-identical to one without).

There is no toggle.  An executor whose results cross a process boundary
hands each job an arena when :func:`available` says the platform has
POSIX shared memory (:meth:`repro.mr.executor.Executor.open_arena`);
under the serial executor results are passed by reference and there is
nothing to ship.
"""

from __future__ import annotations

import mmap
import os
from dataclasses import dataclass
from typing import Any, Iterator

from repro.mr.compress import Codec, get_codec
from repro.mr.segment import Segment, iter_segment_bytes

__all__ = [
    "SegmentArena",
    "ShmSegmentPayload",
    "available",
    "publish_segments",
    "release_attachments",
    "sweep",
]

#: Prefix of every block this module creates; the crash-safe sweep
#: removes ``/dev/shm`` entries matching a job's full prefix.
_PREFIX_ROOT = "repro-shm-"


_available: bool | None = None


def available() -> bool:
    """Whether ``multiprocessing.shared_memory`` works here (probed
    once): a platform without POSIX shared memory, or a locked-down
    ``/dev/shm``, degrades to the pickle path instead of failing jobs.
    """
    global _available
    if _available is None:
        try:
            from multiprocessing import shared_memory

            probe = shared_memory.SharedMemory(create=True, size=1)
            probe.close()
            probe.unlink()  # unlink also unregisters the tracker entry
            _available = True
        except Exception:
            _available = False
    return _available


def _unregister_tracker(name: str) -> None:
    """Drop a freshly-created block from the resource tracker.

    Before Python 3.13's ``track=False``, *every* ``SharedMemory``
    construction — create and attach alike — registers the name with
    the resource tracker, which would warn about (and try to unlink)
    "leaked" blocks at interpreter exit.  Ownership here is explicit —
    the scheduler-side arena unlinks every block exactly once — so the
    tracker must forget the name immediately, in creators and
    attachers both.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(f"/{name}", "shared_memory")
    except Exception:
        pass


def _unlink_name(name: str) -> bool:
    """Unlink a block by name; True if it existed."""
    try:
        import _posixshmem

        _posixshmem.shm_unlink(f"/{name}")
        return True
    except FileNotFoundError:
        return False
    except ImportError:  # pragma: no cover - non-POSIX fallback
        from multiprocessing import shared_memory

        try:
            block = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            return False
        block.close()
        block.unlink()
        return True


def sweep(prefix: str) -> int:
    """Unlink every leftover ``/dev/shm`` block of ``prefix``.

    The crash-safe net under the ref-counted lifecycle: blocks
    published by attempts whose results never reached the scheduler
    (abandoned timeouts, speculative losers lost with a broken pool)
    are still removed when the job ends.
    """
    removed = 0
    try:
        names = os.listdir("/dev/shm")
    except OSError:  # pragma: no cover - non-POSIX or masked /dev/shm
        return removed
    for name in names:
        if name.startswith(prefix) and _unlink_name(name):
            removed += 1
    return removed


# -- worker side: publishing and attaching ---------------------------------

#: Monotonic per-process sequence making block names unique across the
#: attempts one worker runs.
_publish_seq = 0

#: Process-local attachment cache: block name → (SharedMemory, views).
#: A reduce attempt attaches each block at most once however many of
#: its segments live there; :func:`release_attachments` closes the
#: mappings (releasing the issued views first) when the attempt ends.
_attachments: dict[str, tuple[Any, list[memoryview]]] = {}


def publish_segments(
    prefix: str, segments: dict[int, Any]
) -> "dict[int, ShmSegmentPayload] | None":
    """Write a map task's segment bytes into one fresh block.

    Returns the per-partition descriptors, or ``None`` when there is
    nothing to publish or the allocation fails (the caller keeps the
    inline payloads — the automatic pickle-5 fallback).
    """
    if not segments:
        return None
    total = sum(len(payload.data) for payload in segments.values())
    if total == 0:
        return None
    global _publish_seq
    _publish_seq += 1
    name = f"{prefix}{os.getpid()}x{_publish_seq}"
    try:
        from multiprocessing import shared_memory

        block = shared_memory.SharedMemory(
            name=name, create=True, size=total
        )
    except Exception:
        return None
    _unregister_tracker(name)
    try:
        buf = block.buf
        offset = 0
        published: dict[int, ShmSegmentPayload] = {}
        for partition in sorted(segments):
            payload = segments[partition]
            data = payload.data
            length = len(data)
            buf[offset : offset + length] = data
            published[partition] = ShmSegmentPayload(
                name=payload.name,
                partition=payload.partition,
                record_count=payload.record_count,
                raw_bytes=payload.raw_bytes,
                codec_name=payload.codec_name,
                origin=payload.origin,
                block=name,
                offset=offset,
                length=length,
            )
            offset += length
    except Exception:
        block.close()
        _unlink_name(name)
        return None
    block.close()
    return published


class _Mapping:
    """A raw ``shm_open`` + ``mmap`` attachment to a published block.

    Deliberately *not* ``multiprocessing.SharedMemory``: attaching one
    of those registers the name with the resource tracker, and the
    tracker's per-type cache is a **set** — two worker processes
    attaching the same block with interleaved register/unregister
    pairs collapse to one entry, so the second unregister dies with a
    ``KeyError`` in the tracker daemon.  Readers have no business with
    the tracker at all (the scheduler-side arena owns unlinking), and
    the raw path skips a tracker round trip per attach.
    """

    __slots__ = ("buf", "_mmap")

    def __init__(self, name: str):
        import _posixshmem

        fd = _posixshmem.shm_open(f"/{name}", os.O_RDWR, mode=0o600)
        try:
            size = os.fstat(fd).st_size
            self._mmap = mmap.mmap(fd, size)
        finally:
            os.close(fd)
        self.buf = memoryview(self._mmap)

    def close(self) -> None:
        self.buf.release()
        self._mmap.close()


def attach_view(block: str, offset: int, length: int) -> memoryview:
    """A zero-copy view of ``length`` bytes at ``offset`` in ``block``.

    Attaches the block on first use in this process and caches the
    mapping; every issued view is tracked so the mapping can be closed
    cleanly (an ``mmap`` refuses to close under live exports).
    """
    entry = _attachments.get(block)
    if entry is None:
        entry = (_Mapping(block), [])
        _attachments[block] = entry
    view = entry[0].buf[offset : offset + length]
    entry[1].append(view)
    return view


def release_attachments() -> None:
    """Close every cached attachment (end of a task attempt / job).

    Views handed out by :func:`attach_view` are released first; a view
    that escaped into still-live objects keeps its mapping open (the
    block's backing memory is freed when the process exits — unlinking,
    the scheduler's job, is unaffected).
    """
    for block, (mapped, views) in list(_attachments.items()):
        for view in views:
            try:
                view.release()
            except BufferError:  # pragma: no cover - escaped sub-view
                pass
        try:
            mapped.close()
        except BufferError:  # pragma: no cover - escaped sub-view
            pass
        del _attachments[block]


class ShmSegmentPayload:
    """A map-output segment as a shared-memory descriptor.

    Duck-types :class:`repro.mr.segment.SegmentPayload` — same
    metadata, same ``scan``/``to_segment`` surface, same ``size_bytes``
    — but ``data`` is a lazy zero-copy ``memoryview`` into the block
    instead of owned bytes, and pickling ships only the coordinates.
    """

    __slots__ = (
        "name",
        "partition",
        "record_count",
        "raw_bytes",
        "codec_name",
        "origin",
        "block",
        "offset",
        "length",
    )

    def __init__(
        self,
        name: str,
        partition: int,
        record_count: int,
        raw_bytes: int,
        codec_name: str | None,
        origin: str,
        block: str,
        offset: int,
        length: int,
    ):
        self.name = name
        self.partition = partition
        self.record_count = record_count
        self.raw_bytes = raw_bytes
        self.codec_name = codec_name
        self.origin = origin
        self.block = block
        self.offset = offset
        self.length = length

    def __reduce__(self):
        return (
            ShmSegmentPayload,
            (
                self.name,
                self.partition,
                self.record_count,
                self.raw_bytes,
                self.codec_name,
                self.origin,
                self.block,
                self.offset,
                self.length,
            ),
        )

    @property
    def size_bytes(self) -> int:
        """On-disk (post-compression) size — the descriptor's length."""
        return self.length

    @property
    def codec(self) -> Codec:
        return get_codec(self.codec_name)

    @property
    def data(self) -> memoryview:
        return attach_view(self.block, self.offset, self.length)

    def scan(self) -> Iterator[tuple[Any, Any]]:
        """Yield records in sorted order (zero-copy view scan)."""
        yield from iter_segment_bytes(self.data, self.codec)

    def to_segment(self, store: Any) -> Segment:
        """Materialise as a file in ``store`` — the adopted "bytes" are
        the shared view, so the shuffle's serve read never copies."""
        store.adopt_file(self.name, self.data)
        return Segment(
            store=store,
            name=self.name,
            partition=self.partition,
            record_count=self.record_count,
            raw_bytes=self.raw_bytes,
            codec=self.codec,
        )


# -- scheduler side: the arena ---------------------------------------------


@dataclass
class ArenaStats:
    """What the plane did during one job (observational only)."""

    blocks: int = 0
    bytes: int = 0
    leases_granted: int = 0
    leases_released: int = 0
    #: Map tasks whose segments stayed on the inline pickle path while
    #: the plane was active (allocation failed / nothing to publish).
    fallbacks: int = 0
    #: Blocks removed by the end-of-job sweep rather than a lease drop
    #: (abandoned attempts, speculative losers, failed runs).
    swept: int = 0


class _Block:
    __slots__ = ("size", "leases", "unlinked")

    def __init__(self) -> None:
        self.size = 0
        self.leases = 0
        self.unlinked = False


class SegmentArena:
    """Scheduler-side registry of one job's shared-memory blocks.

    Tracks every block published by the job's map attempts, grants one
    lease per (block, consuming reduce task) pair, unlinks a block when
    its last lease is released, and — via :meth:`close` — unlinks
    everything left and sweeps the job prefix so no ``/dev/shm``
    residue survives any outcome, including exceptions and crashes.
    """

    _seq = 0

    def __init__(self, prefix: str | None = None):
        if prefix is None:
            SegmentArena._seq += 1
            prefix = f"{_PREFIX_ROOT}{os.getpid()}-{SegmentArena._seq}-"
        self.prefix = prefix
        self._blocks: dict[str, _Block] = {}
        self.stats = ArenaStats()
        self._closed = False

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run: nobody owns a block that
        appears under the prefix from now on."""
        return self._closed

    def adopt_segments(self, segments: dict[int, Any]) -> None:
        """Register the blocks behind one map result's segments.

        Counts a fallback when the result carries inline payloads
        instead of descriptors (the publish failed worker-side).
        """
        fell_back = False
        for payload in segments.values():
            if not isinstance(payload, ShmSegmentPayload):
                fell_back = True
                continue
            block = self._blocks.get(payload.block)
            if block is None:
                block = self._blocks[payload.block] = _Block()
                self.stats.blocks += 1
            end = payload.offset + payload.length
            if end > block.size:
                self.stats.bytes += end - block.size
                block.size = end
        if fell_back and segments:
            self.stats.fallbacks += 1

    def lease_plan(self, plan: "list[list[Any]]") -> None:
        """Grant one lease per (block, reduce task) in a shuffle plan."""
        for payloads in plan:
            for block_name in {
                payload.block
                for payload in payloads
                if isinstance(payload, ShmSegmentPayload)
            }:
                block = self._blocks.get(block_name)
                if block is not None:
                    block.leases += 1
                    self.stats.leases_granted += 1

    def release_plan_entry(self, payloads: "list[Any]") -> None:
        """Release one reduce task's leases; unlink newly-idle blocks."""
        for block_name in {
            payload.block
            for payload in payloads
            if isinstance(payload, ShmSegmentPayload)
        }:
            block = self._blocks.get(block_name)
            if block is None or block.leases <= 0:
                continue
            block.leases -= 1
            self.stats.leases_released += 1
            if block.leases == 0 and not block.unlinked:
                block.unlinked = True
                _unlink_name(block_name)

    def discard_segments(self, segments: dict[int, Any]) -> None:
        """Unlink the blocks of a result that will never be consumed
        (a speculative loser that finished after the winner)."""
        for payload in segments.values():
            if not isinstance(payload, ShmSegmentPayload):
                continue
            block = self._blocks.get(payload.block)
            if block is None:
                # Never adopted: unlink directly.
                _unlink_name(payload.block)
            elif block.leases == 0 and not block.unlinked:
                block.unlinked = True
                _unlink_name(payload.block)

    def close(self) -> ArenaStats:
        """Release local attachments, unlink stragglers, sweep.

        Idempotent; safe (and required) on every exit path — the
        scheduler runs it in a ``finally``.
        """
        if self._closed:
            return self.stats
        self._closed = True
        release_attachments()
        for name, block in self._blocks.items():
            if not block.unlinked:
                block.unlinked = True
                _unlink_name(name)
        self.stats.swept += sweep(self.prefix)
        return self.stats
