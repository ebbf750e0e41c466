"""Fuzzing the serde decoder: garbage in, SerdeError out — never worse.

A record store can hand the decoder arbitrary bytes (truncated spill,
corrupted segment).  The decoder must reject them with a
:class:`~repro.mr.serde.SerdeError` (or decode them, if they happen to
be valid) — it must never raise anything else, loop forever, or return
trailing-garbage results.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mr import serde


class TestDecoderFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=64))
    def test_decode_never_crashes(self, data: bytes) -> None:
        try:
            serde.decode(data)
        except serde.SerdeError:
            pass
        except RecursionError:
            pass  # deeply nested valid prefixes; bounded by input size

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=64))
    def test_decode_kv_never_crashes(self, data: bytes) -> None:
        try:
            serde.decode_kv(data)
        except serde.SerdeError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(st.binary(min_size=1, max_size=64), st.integers(0, 3))
    def test_truncation_detected(self, payload: bytes, chop: int) -> None:
        """A validly-encoded object with bytes chopped off must fail."""
        data = serde.encode(payload)
        truncated = data[: len(data) - 1 - chop]
        try:
            decoded = serde.decode(truncated)
        except serde.SerdeError:
            return
        # permissible only if truncation produced another valid object
        assert serde.encode(decoded) == truncated


# -- parity against the reference implementation --------------------------
#
# `tests/serde_ref.py` keeps the original, obviously-correct encoder
# and decoder verbatim.  These tests pin `repro.mr.serde` to it
# byte-for-byte, including the framed-record composition used by spill
# files and segments (`append_record` / `decode_stream`).

from repro.core.encoding import EagerValue, LazyValue, PlainValue  # noqa: E402
from tests import serde_ref  # noqa: E402

_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.floats(allow_nan=False)
    | st.text(max_size=24)
    | st.binary(max_size=24)
)
_hashable = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.text(max_size=8)
)
_objects = st.recursive(
    _scalars,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(_hashable, children, max_size=4)
        | st.frozensets(_hashable, max_size=4)
    ),
    max_leaves=12,
)

#: Every interesting int boundary: the 62-bit inline-zigzag window
#: edges, the 64-bit edges (±2^63 ± 1), and true bignums.
_BOUNDARY_INTS = [
    0,
    1,
    -1,
    2**62 - 1,
    2**62,
    -(2**62),
    -(2**62) - 1,
    2**63 - 1,
    2**63,
    2**63 + 1,
    -(2**63),
    -(2**63) - 1,
    -(2**63) + 1,
    2**100,
    -(2**100),
]


class TestFastPathParity:
    @settings(max_examples=300, deadline=None)
    @given(_objects)
    def test_encode_matches_reference(self, obj) -> None:
        assert serde.encode(obj) == serde_ref.encode(obj)

    @settings(max_examples=300, deadline=None)
    @given(_objects, _objects)
    def test_framed_record_parity(self, key, value) -> None:
        """`append_record` frames exactly like the reference double
        encode + varint prefix, and `decode_stream` reads it back
        exactly like the reference per-record scan."""
        fast = bytearray()
        size = serde.append_record(fast, key, value)
        ref = bytearray()
        raw = serde_ref.encode_kv(key, value)
        serde_ref.write_varint(ref, len(raw))
        ref.extend(raw)
        assert bytes(fast) == bytes(ref)
        assert size == len(raw)
        assert serde.decode_stream(fast) == list(
            serde_ref.iter_records(bytes(fast))
        )

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_objects, _objects), max_size=8))
    def test_stream_parity(self, records) -> None:
        out = bytearray()
        for key, value in records:
            serde.append_record(out, key, value)
        assert serde.decode_stream(out) == list(
            serde_ref.iter_records(bytes(out))
        )

    def test_bigint_boundaries(self) -> None:
        for number in _BOUNDARY_INTS:
            assert serde.encode(number) == serde_ref.encode(number)
            assert serde.decode(serde.encode(number)) == number
            out = bytearray()
            serde.append_record(out, number, -number)
            assert serde.decode_stream(out) == [(number, -number)]

    def test_extension_tags(self) -> None:
        values = [
            PlainValue(42),
            EagerValue(["ab", "cd"], ("v", 1)),
            LazyValue("input-key", {"clicks": 3}),
            EagerValue([], PlainValue(None)),
        ]
        for value in values:
            assert serde.encode(value) == serde_ref.encode(value)
            out = bytearray()
            serde.append_record(out, "k", value)
            decoded = serde.decode_stream(out)
            assert decoded == [("k", value)]
            assert type(decoded[0][1]) is type(value)

    def test_deep_nesting(self) -> None:
        obj: object = "leaf"
        for _ in range(60):
            obj = (obj,)
        assert serde.encode(obj) == serde_ref.encode(obj)
        out = bytearray()
        serde.append_record(out, 0, obj)
        assert serde.decode_stream(out) == [(0, obj)]

    def test_decode_stream_rejects_truncation(self) -> None:
        out = bytearray()
        serde.append_record(out, "key", ["some", "value", 123])
        for chop in range(1, len(out)):
            try:
                serde.decode_stream(out[:-chop])
            except serde.SerdeError:
                continue
            raise AssertionError(f"truncation by {chop} not detected")


# -- one-field extensions ---------------------------------------------------
#
# `register_extension` gives a one-field class a loop-free codec (the
# PLAIN record of every bypass workload goes through it).  It is keyed
# on the arity alone, so it is held to the reference through two
# classes: `PlainValue` and a one-field extension of the test suite's.

from tests.test_serde import _Solo  # noqa: E402

serde.register_extension(13, _Solo)  # the id tests/test_serde.py uses

_ONE_FIELD_CLASSES = (PlainValue, _Solo)

_ONE_FIELD_PAYLOADS = [
    *_BOUNDARY_INTS,
    63,
    64,
    -64,
    -65,
    8191,
    8192,
    2**35,
    "",
    "ascii",
    "naïve — ≥ 128 bytes? no: non-ASCII",
    "x" * 127,
    "y" * 128,
    "é" * 100,  # 200 utf-8 bytes behind a two-byte length
    "z" * 20000,
    1.5,
    None,
    True,
    b"raw",
    ("tuple", 1),
    ["list", 2.0],
    {"k": [1, 2]},
    frozenset({1, 2}),
]


class TestOneFieldExtensionCodec:
    @pytest.mark.parametrize("cls", _ONE_FIELD_CLASSES)
    @settings(max_examples=200, deadline=None)
    @given(payload=_objects)
    def test_generated_payloads_match_reference(self, cls, payload) -> None:
        self._assert_matches_reference(cls(payload))
        self._assert_matches_reference(cls(PlainValue(payload)))

    @pytest.mark.parametrize("cls", _ONE_FIELD_CLASSES)
    @pytest.mark.parametrize("payload", _ONE_FIELD_PAYLOADS, ids=repr)
    def test_named_payloads_match_reference(self, cls, payload) -> None:
        self._assert_matches_reference(cls(payload))
        self._assert_matches_reference(cls(cls(payload)))
        self._assert_matches_reference(PlainValue(_Solo(payload)))

    @staticmethod
    def _assert_matches_reference(value) -> None:
        data = serde.encode(value)
        assert data == serde_ref.encode(value)
        for decoded in (serde.decode(data), serde_ref.decode(data)):
            assert decoded == value
            assert type(decoded) is type(value)
            assert type(decoded[0]) is type(value[0])
        out = bytearray()
        serde.append_records(out, [("k", value), (value, "v")])
        assert serde.decode_stream(out) == [("k", value), (value, "v")]

    @pytest.mark.parametrize("cls", _ONE_FIELD_CLASSES)
    @pytest.mark.parametrize(
        "payload",
        [5, 8192, 2**70, "text", "é" * 100, 2.5, ("a", ["b"]), None],
        ids=repr,
    )
    def test_every_truncation_raises(self, cls, payload) -> None:
        for value in (cls(payload), cls(PlainValue(payload))):
            data = serde.encode(value)
            for cut in range(len(data)):
                with pytest.raises(serde.SerdeError):
                    serde.decode(data[:cut])
                with pytest.raises(serde.SerdeError):
                    serde.decode(memoryview(data)[:cut])

    def test_overlong_varint_and_bad_utf8_rejected(self) -> None:
        tag = serde.encode(PlainValue(0))[0]
        with pytest.raises(serde.SerdeError, match="varint too long"):
            serde.decode(bytes([tag, 0x03]) + b"\xff" * 11 + b"\x01")
        with pytest.raises(serde.SerdeError, match="utf-8"):
            serde.decode(bytes([tag, 0x05, 2, 0xC3, 0x28]))


# -- sizing-kernel parity ---------------------------------------------------
#
# `approx_size` feeds `Shared`'s spill trigger and AdaptiveSH's
# eager-vs-lazy comparison, so its numbers are behaviour.  It began as
# the isinstance ladder below (kept verbatim, recursing into itself);
# the one-pass kernel must return the same number for every input.

import enum  # noqa: E402
from typing import NamedTuple  # noqa: E402

_EXTENSION_CLASSES = (PlainValue, EagerValue, LazyValue)


def _approx_size_oracle(obj) -> int:
    if type(obj) in _EXTENSION_CLASSES:
        return 1 + sum(_approx_size_oracle(item) for item in obj)
    if obj is None or isinstance(obj, bool):
        return 1
    if isinstance(obj, int):
        return 1 + max(1, (obj.bit_length() + 7) // 7)
    if isinstance(obj, float):
        return 9
    if isinstance(obj, str):
        return 2 + len(obj)
    if isinstance(obj, bytes):
        return 2 + len(obj)
    if isinstance(obj, (tuple, list, frozenset)):
        return 2 + sum(_approx_size_oracle(item) for item in obj)
    if isinstance(obj, dict):
        return 2 + sum(
            _approx_size_oracle(key) + _approx_size_oracle(value)
            for key, value in obj.items()
        )
    raise serde.SerdeError(f"unsupported type: {type(obj).__name__}")


class _Colour(enum.IntEnum):
    RED = 1
    BLUE = 300


class _Point(NamedTuple):  # never registered as an extension
    x: int
    label: str


class _Bag(dict):
    pass


#: Varint width edges (7 and 8 significant bits, 14 and 15), zero, and
#: the 64-bit edges on both sides.
_SIZE_EDGE_INTS = [0, 1, -1, 127, 128, -127, -128, 16383, 16384] + [
    sign * (2**63 + delta) for sign in (1, -1) for delta in (-1, 0, 1)
]

_size_scalars = (
    st.none()
    | st.booleans()
    | st.sampled_from(_SIZE_EDGE_INTS)
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.floats(allow_nan=False)
    | st.text(max_size=24)  # any code point: len(), not utf-8 length
    | st.binary(max_size=24)
    | st.sampled_from(list(_Colour))
)
_sized_objects = st.recursive(
    _size_scalars,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(_hashable, children, max_size=4)
        | st.dictionaries(_hashable, children, max_size=3).map(_Bag)
        | st.frozensets(_hashable, max_size=4)
        | children.map(PlainValue)
        | st.tuples(st.lists(children, max_size=3), children).map(
            lambda pair: EagerValue(*pair)
        )
        | st.tuples(children, children).map(lambda pair: LazyValue(*pair))
        | st.tuples(st.integers(), st.text(max_size=6)).map(
            lambda pair: _Point(*pair)
        )
    ),
    max_leaves=14,
)


class TestApproxSizeKernelParity:
    @settings(max_examples=500, deadline=None)
    @given(_sized_objects)
    def test_matches_isinstance_ladder(self, obj) -> None:
        assert serde.approx_size(obj) == _approx_size_oracle(obj)

    @settings(max_examples=200, deadline=None)
    @given(_sized_objects, _sized_objects)
    def test_pair_and_sum_helpers(self, key, value) -> None:
        expected = _approx_size_oracle(key) + _approx_size_oracle(value)
        assert serde.approx_kv_size(key, value) == expected
        assert serde.approx_size_sum([key, value], 5) == 5 + expected

    @pytest.mark.parametrize(
        "obj",
        [
            (),
            [],
            {},
            frozenset(),
            _Bag(),
            "",
            b"",
            # bools are not ints to an exact-type test, in any position
            (True, 1, False, 0),
            [True, [False, (True,)]],
            {True: False, 1.0: True},
            _SIZE_EDGE_INTS,
            tuple(_SIZE_EDGE_INTS),
            ("naïve", "日本語", "\U0001f600"),
            # subclasses take the fallback, alone and nested
            _Colour.BLUE,
            (_Colour.RED, [_Colour.BLUE]),
            _Point(7, "p"),
            [_Point(2**70, ""), _Bag({"k": _Point(1, "x")})],
            PlainValue(_Point(1, "a")),
            EagerValue([], None),
            EagerValue(["k", 5, (1, 2)], ("S", (1, 2.5, "x"))),
            LazyValue(2**63, {"clicks": [3, 4]}),
        ],
    )
    def test_named_shapes(self, obj) -> None:
        assert serde.approx_size(obj) == _approx_size_oracle(obj)
        assert serde.approx_size([obj]) == 2 + _approx_size_oracle(obj)

    def test_unsupported_inside_a_container(self) -> None:
        with pytest.raises(serde.SerdeError):
            serde.approx_size([1, "a", object()])


# -- run-oriented encoder parity (DESIGN.md §11) ---------------------------
#
# The run-oriented encoders must be byte-identical to the scalar entry
# points — and therefore to `serde_ref` — for every batch shape: empty,
# homogeneous, and heterogeneous tails that degenerate to runs of
# length one.

_records = st.lists(st.tuples(_objects, _objects), max_size=12)


def _ref_framed(records) -> bytes:
    out = bytearray()
    for key, value in records:
        raw = serde_ref.encode_kv(key, value)
        serde_ref.write_varint(out, len(raw))
        out.extend(raw)
    return bytes(out)


class TestBatchEncoderParity:
    @settings(max_examples=300, deadline=None)
    @given(_records)
    def test_encode_kv_batch_matches_reference(self, records) -> None:
        """Payload bytes and per-record sizes match the scalar path."""
        batch_out = bytearray()
        sizes = serde.encode_kv_batch(batch_out, records)
        ref_out = bytearray()
        ref_sizes = [
            serde.encode_kv_into(ref_out, key, value)
            for key, value in records
        ]
        assert bytes(batch_out) == bytes(ref_out)
        assert sizes == ref_sizes
        assert bytes(ref_out) == b"".join(
            serde_ref.encode_kv(k, v) for k, v in records
        )

    @settings(max_examples=300, deadline=None)
    @given(_records)
    def test_append_records_matches_reference_framing(self, records) -> None:
        out = bytearray()
        sizes = serde.append_records(out, records)
        assert bytes(out) == _ref_framed(records)
        assert sizes == [serde.record_size(k, v) for k, v in records]
        assert serde.decode_stream(out) == list(records)

    def test_empty_batch(self) -> None:
        out = bytearray(b"prefix")
        assert serde.encode_kv_batch(out, []) == []
        assert serde.append_records(out, []) == []
        assert bytes(out) == b"prefix"

    def test_heterogeneous_tail_degenerates_to_scalar_runs(self) -> None:
        """A type change mid-batch splits the run; singleton runs take
        the scalar fallback and stay byte-identical."""
        records = [
            ("a", "x"),
            ("b", "y"),  # str/str run of 2
            ("c", 1),  # singleton: value type flips
            (2, "d"),  # singleton: key type flips
            (3, 4),
            (5, 6),  # int/int run of 2
        ]
        out = bytearray()
        sizes = serde.encode_kv_batch(out, records)
        ref = bytearray()
        ref_sizes = [
            serde.encode_kv_into(ref, k, v) for k, v in records
        ]
        assert bytes(out) == bytes(ref)
        assert sizes == ref_sizes


# -- exact batch sizing -----------------------------------------------------
#
# `kv_batch_size` sizes the runs its column sizers cover without
# encoding them and encodes the rest; either way it must return the
# encoder's length.  The columns below straddle every edge of what is
# covered, and a batch is a few runs drawn column by column, so
# covered and uncovered runs sit side by side.


class _Small(enum.IntEnum):
    ONE = 1


_sizer_strs = (
    st.text(alphabet=st.characters(max_codepoint=0x7F), max_size=8)
    | st.text(max_size=4)
    | st.sampled_from(["x" * 127, "y" * 128, "é", "naïve"])
)
_sizer_ints = (
    st.integers(-200, 200)
    | st.integers(-(2**70), 2**70)
    | st.sampled_from(
        [
            serde._INT_LO - 1,
            serde._INT_LO,
            serde._INT_LO + 1,
            serde._INT_HI - 1,
            serde._INT_HI,
            serde._INT_HI + 1,
            63,
            64,
            -64,
            -65,
            2**100,
            -(2**100),
        ]
    )
)
_sizer_lists = (
    st.lists(_sizer_strs, max_size=4)
    | st.lists(_sizer_ints, max_size=4)
    | st.lists(st.lists(st.integers(-5, 5), max_size=4), max_size=3)
    | st.lists(_sizer_strs | _sizer_ints, max_size=4)
    | st.sampled_from(
        [[], ["a"] * 127, ["a"] * 128, list(range(127)), [1] * 128]
    )
)
_sizer_others = st.sampled_from(
    [
        True,
        _Small.ONE,
        -0.0,
        float("nan"),
        None,
        ("a", 1),
        PlainValue("p"),
        PlainValue(7),
    ]
)
_SIZER_COLUMNS = (_sizer_strs, _sizer_ints, _sizer_lists, _sizer_others)


@st.composite
def _sizer_batches(draw):
    pairs = []
    for _ in range(draw(st.integers(0, 4))):
        keys = draw(st.sampled_from(_SIZER_COLUMNS))
        values = draw(st.sampled_from(_SIZER_COLUMNS))
        for _ in range(draw(st.integers(1, 5))):
            record = (draw(keys), draw(values))
            pairs.append(list(record) if draw(st.booleans()) else record)
    return pairs


class TestBatchSizer:
    @settings(max_examples=400, deadline=None)
    @given(_sizer_batches())
    def test_size_is_the_encoded_length(self, pairs) -> None:
        out = bytearray()
        serde.encode_kv_batch(out, pairs)
        assert bytes(out) == b"".join(
            serde_ref.encode_kv(key, value) for key, value in pairs
        )
        assert serde.kv_batch_size(pairs) == len(out)

    def test_malformed_record_raises_as_the_encoder_does(self) -> None:
        for pairs in ([("a", 1, 2)], [("a", 1), ("b",)]):
            with pytest.raises(ValueError):
                serde.encode_kv_batch(bytearray(), pairs)
            with pytest.raises(ValueError):
                serde.kv_batch_size(pairs)


class TestBufferBatchParity:
    """How the record sequence is cut into ``collect_batch`` calls
    never shows: segments, analytic counters and spills depend on the
    sequence alone."""

    @staticmethod
    def _run_collect(batches, sort_buffer_bytes: int):
        from repro.mr.api import Context, Mapper, Partitioner, Reducer
        from repro.mr.buffer import MapOutputBuffer
        from repro.mr.config import JobConf
        from repro.mr.counters import Counters
        from repro.mr.cost import FixedCostMeter
        from repro.mr.storage import LocalStore

        class ModPartitioner(Partitioner):
            def get_partition(self, key, num_partitions):
                return serde.record_size(key, None) % num_partitions

        job = JobConf(
            mapper=Mapper,
            reducer=Reducer,
            partitioner=ModPartitioner(),
            num_reducers=3,
            cost_meter=FixedCostMeter(),
            sort_buffer_bytes=sort_buffer_bytes,
        )
        counters = Counters()
        store = LocalStore(counters)
        context = Context(
            counters=counters,
            sink=lambda k, v: None,
            partitioner=job.partitioner,
            num_partitions=job.num_reducers,
            task_id="map0",
            store=store,
        )
        buffer = MapOutputBuffer(job, store, context, "map0")
        for batch in batches:
            buffer.collect_batch(batch)
        segments = buffer.finalize()
        payload = {
            partition: segment.read_bytes()
            for partition, segment in sorted(segments.items())
        }
        # ``cpu.partition.seconds`` is metered once per batch, so it
        # follows the cut; everything else — bytes, records, spills,
        # framework charges — must be bit-identical (DESIGN.md §8).
        measured = (
            "cpu.map.seconds",
            "cpu.reduce.seconds",
            "cpu.combine.seconds",
            "cpu.partition.seconds",
            "cpu.codec.seconds",
        )
        analytic = {
            name: value
            for name, value in counters.as_dict().items()
            if not name.startswith(measured)
        }
        return payload, analytic, buffer.spill_count

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.text(max_size=12), st.text(max_size=12)),
            min_size=1,
            max_size=60,
        ),
        st.sampled_from([1024, 4096, 64 * 1024]),
        st.data(),
    )
    def test_batched_collect_byte_identical(
        self, records, sort_buffer_bytes, data
    ) -> None:
        """Same segment bytes, same counters, same spill count under
        any split into batches — all-singletons and empty batches
        included — even when the tiny sort buffer forces spills
        mid-batch."""
        cuts = data.draw(
            st.lists(st.integers(0, len(records)), max_size=8).map(sorted),
            label="cuts",
        )
        bounds = [0, *cuts, len(records)]
        drawn = [
            records[start:end] for start, end in zip(bounds, bounds[1:])
        ]
        whole = self._run_collect([records], sort_buffer_bytes)
        assert self._run_collect(drawn, sort_buffer_bytes) == whole
        singletons = [[record] for record in records]
        assert self._run_collect(singletons, sort_buffer_bytes) == whole


# -- the frame merge (DESIGN.md §8 item 3) ----------------------------------
#
# A merge pass that runs no user code reads `(key, frame)` pairs
# (`decode_frames`) and writes the joined frames.  It must write exactly
# what decoding the runs, merging the records and appending them again
# writes, under every comparator specialisation.

from repro.mr.comparators import (  # noqa: E402
    Comparator,
    _natural_cmp,
    default_comparator,
    raw_bytes_comparator,
)
from repro.mr.merge import merge_runs  # noqa: E402

#: Orders like the natural comparator but declares nothing.
_opaque_comparator = Comparator(_natural_cmp, name="opaque")

_odd_floats = st.sampled_from([-0.0, 0.0, float("nan"), float("inf"), -1e308])
_wide_ints = st.sampled_from(_BOUNDARY_INTS) | st.integers(
    min_value=-(2**80), max_value=2**80
)
#: Strings past 127 utf-8 bytes put records behind two-byte prefixes.
_texts = st.text(max_size=8) | st.text(min_size=70, max_size=150)
_frame_scalars = (
    _scalars | _odd_floats | _wide_ints | _texts | st.floats()
)
_frame_objects = st.recursive(
    _frame_scalars,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(_hashable, children, max_size=4)
        | st.frozensets(_hashable, max_size=4)
        | children.map(PlainValue)
        | st.tuples(st.lists(children, max_size=3), children).map(
            lambda pair: EagerValue(*pair)
        )
        | st.tuples(children, children).map(lambda pair: LazyValue(*pair))
    ),
    max_leaves=10,
)

#: Keys the natural comparator can order: one kind per example.
_natural_key_kinds = [
    _texts,
    st.floats() | _odd_floats,
    _wide_ints,
    st.tuples(_wide_ints, st.text(max_size=6)),
    st.tuples(
        st.lists(st.integers(), max_size=3).map(tuple),
        st.lists(st.text(max_size=3), max_size=3),
    ),
    _wide_ints.map(PlainValue),
]


@st.composite
def _runs(draw, comparator):
    """Up to five sorted runs of ``(key, value)`` records."""
    if comparator.orders_by_encoded_bytes:
        keys = _frame_objects
    else:
        keys = draw(st.sampled_from(_natural_key_kinds))
    records = st.tuples(keys, _frame_objects)
    runs = draw(st.lists(st.lists(records, max_size=6), max_size=5))
    key_fn = comparator.record_key(0)
    return [sorted(run, key=key_fn) for run in runs]


def _stream(records) -> bytes:
    out = bytearray()
    serde.append_records(out, records)
    return bytes(out)


def _key_bytes(pairs) -> list:
    return [(type(key), serde.encode(key)) for key, _ in pairs]


class TestFrameMerge:
    @pytest.mark.parametrize(
        "comparator",
        [default_comparator, raw_bytes_comparator, _opaque_comparator],
        ids=lambda c: c.name,
    )
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_frame_merge_writes_the_reencoded_merge(
        self, comparator, data
    ) -> None:
        runs = data.draw(_runs(comparator), label="runs")
        streams = [_stream(run) for run in runs]
        frames = [serde.decode_frames(stream) for stream in streams]
        decoded = [serde.decode_stream(stream) for stream in streams]
        for stream, framed, records in zip(streams, frames, decoded):
            # Keys compared encoded: nan is not equal to itself.
            assert _key_bytes(framed) == _key_bytes(records)
            assert b"".join(frame for _, frame in framed) == stream
        merged = merge_runs(frames, comparator)
        assert b"".join(frame for _, frame in merged) == _stream(
            merge_runs(decoded, comparator)
        )

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(_frame_objects, _frame_objects), min_size=1, max_size=5
        ),
        st.data(),
    )
    def test_truncation_raises_or_ends_on_a_frame(self, records, data) -> None:
        stream = _stream(records)
        cut = data.draw(st.integers(0, len(stream) - 1), label="cut")
        try:
            framed = serde.decode_frames(stream[:cut])
        except serde.SerdeError:
            return
        # Permissible only when the cut fell between two frames.
        boundaries = {0}
        for _, frame in serde.decode_frames(stream):
            boundaries.add(max(boundaries) + len(frame))
        assert cut in boundaries
        assert b"".join(frame for _, frame in framed) == stream[:cut]

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=64))
    def test_garbage_raises_serde_error_only(self, data: bytes) -> None:
        try:
            framed = serde.decode_frames(data)
        except serde.SerdeError:
            return
        assert b"".join(frame for _, frame in framed) == data

    def test_corrupt_records_raise(self) -> None:
        stream = _stream([("key", ["some", "value", 123]), (7, 2.5)])
        # An unknown key tag.
        with pytest.raises(serde.SerdeError, match="unknown tag"):
            serde.decode_frames(stream[:1] + b"\xff" + stream[2:])
        # A frame too short to hold its key, for each inline key kind
        # and one through the tag table.
        for key in ("key", 7, 2**70):
            framed = _stream([(key, None)])
            with pytest.raises(serde.SerdeError):
                serde.decode_frames(b"\x01" + framed[1:])
        # A frame longer than the stream.
        with pytest.raises(serde.SerdeError, match="truncated"):
            serde.decode_frames(b"\x7f" + stream[1:])
        with pytest.raises(serde.SerdeError, match="utf-8"):
            serde.decode_frames(bytes([4, 0x05, 2, 0xC3, 0x28]))
