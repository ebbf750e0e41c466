"""Unit tests for the sorted-segment abstraction."""

from __future__ import annotations

import pytest

from repro.mr import counters as C
from repro.mr import serde
from repro.mr.api import Mapper, Reducer
from repro.mr.compress import get_codec
from repro.mr.config import JobConf
from repro.mr.cost import FixedCostMeter
from repro.mr.counters import Counters
from repro.mr.merge import merge_runs
from repro.mr.segment import iter_segment_bytes, merge_pass, persist_segment
from repro.mr.storage import LocalStore

RECORDS = [("a", 1), ("b", [2, "x"]), ("c", None)]


def _framed(records) -> bytes:
    out = bytearray()
    serde.append_records(out, records)
    return bytes(out)


def _job(codec: str | None = None) -> JobConf:
    return JobConf(
        mapper=Mapper,
        reducer=Reducer,
        map_output_codec=codec,
        cost_meter=FixedCostMeter(),
    )


def _write(store, name, partition, records, codec=None, counters=None):
    return persist_segment(
        _job(codec),
        counters if counters is not None else Counters(),
        store,
        name,
        partition,
        _framed(records),
        len(records),
    )


class TestSegmentBytes:
    def test_roundtrip_identity(self) -> None:
        raw = _framed(RECORDS)
        data = get_codec(None).compress(raw)
        assert data == raw
        assert list(iter_segment_bytes(data, get_codec(None))) == RECORDS

    def test_roundtrip_compressed(self) -> None:
        codec = get_codec("gzip")
        records = [("key", "payload " * 10)] * 50
        raw = _framed(records)
        data = codec.compress(raw)
        assert len(data) < len(raw)
        assert list(iter_segment_bytes(data, codec)) == records

    def test_empty_segment(self) -> None:
        data = get_codec(None).compress(_framed([]))
        assert data == b""
        assert list(iter_segment_bytes(data, get_codec(None))) == []


class TestWriteSegment:
    def test_persists_and_scans(self) -> None:
        counters = Counters()
        store = LocalStore(counters)
        segment = _write(store, "seg0", 3, RECORDS)
        assert segment.partition == 3
        assert segment.record_count == 3
        assert segment.size_bytes == store.file_size("seg0")
        assert counters.get(C.DISK_WRITE_BYTES) == segment.size_bytes
        assert list(segment.scan()) == RECORDS
        assert counters.get(C.DISK_READ_BYTES) == segment.size_bytes

    def test_delete(self) -> None:
        store = LocalStore(Counters())
        segment = _write(store, "seg0", 0, RECORDS)
        segment.delete()
        assert not store.exists("seg0")

    def test_raw_bytes_vs_compressed(self) -> None:
        store = LocalStore(Counters())
        records = [("k", "abc " * 20)] * 30
        segment = _write(store, "seg0", 0, records, codec="gzip")
        assert segment.raw_bytes > segment.size_bytes

    def test_write_charges(self) -> None:
        """Serialisation on the raw size, then one metered compress."""
        counters = Counters()
        job = _job("gzip")
        raw = _framed(RECORDS)
        persist_segment(job, counters, LocalStore(counters), "s", 0, raw, 3)
        model = job.framework_cost_model
        assert counters.get(C.CPU_FRAMEWORK_SECONDS) == model.serialize_cost(
            len(raw)
        )
        assert counters.get(C.CPU_CODEC_SECONDS) == 1e-6


class TestReadFrames:
    @pytest.mark.parametrize("codec", [None, "gzip"])
    def test_charged_as_read_records(self, codec) -> None:
        store = LocalStore()
        segment = _write(store, "seg0", 0, RECORDS, codec=codec)
        by_records = store.counters = Counters()
        records = segment.read_records(_job(codec), by_records)
        by_frames = store.counters = Counters()
        frames = segment.read_frames(_job(codec), by_frames)
        assert by_frames.as_dict() == by_records.as_dict()
        assert [key for key, _ in frames] == [key for key, _ in records]
        assert b"".join(frame for _, frame in frames) == _framed(RECORDS)


class TestMergePass:
    @pytest.mark.parametrize("codec", [None, "gzip"])
    def test_bytes_and_charges_match_decode_and_reencode(self, codec) -> None:
        """The pass writes what decoding, merging and re-encoding the
        runs writes, and charges merge, reads, then the write."""
        runs = [
            [("a", (1, "x" * 200)), ("c", 2.5)],
            [("b", {"k": [None]}), ("c", -0.0), ("d", 2**70)],
        ]
        job = _job(codec)
        counters = Counters()
        store = LocalStore(counters)
        segments = [
            _write(store, f"run{i}", 0, run, codec=codec)
            for i, run in enumerate(runs)
        ]
        counters = Counters()
        store.counters = counters
        merged = merge_pass(job, counters, segments, store, "out", 0)

        expected_raw = _framed(merge_runs(runs, job.comparator))
        assert merged.record_count == 5
        assert merged.raw_bytes == len(expected_raw)
        assert get_codec(codec).decompress(store.peek_file("out")) == (
            expected_raw
        )
        model = job.framework_cost_model
        framework = model.merge_cost(5, 2)
        for segment in segments:
            framework += model.serialize_cost(segment.raw_bytes)
        framework += model.serialize_cost(len(expected_raw))
        assert counters.get(C.CPU_FRAMEWORK_SECONDS) == framework
        assert counters.get(C.CPU_CODEC_SECONDS) == 3 * 1e-6
        assert counters.get(C.DISK_READ_BYTES) == sum(
            segment.size_bytes for segment in segments
        )
        assert counters.get(C.DISK_WRITE_BYTES) == merged.size_bytes
