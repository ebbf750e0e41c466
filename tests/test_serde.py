"""Unit tests for the binary serialisation layer."""

from __future__ import annotations

import enum
import math
import sys
from typing import Any, Callable, NamedTuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.encoding import EagerValue, LazyValue
from repro.mr import serde
from tests import serde_ref


class TestRoundtrip:
    @pytest.mark.parametrize(
        "obj",
        [
            None,
            True,
            False,
            0,
            1,
            -1,
            127,
            128,
            -128,
            2**40,
            -(2**40),
            2**100,
            -(2**100),
            0.0,
            -0.0,
            3.14159,
            float("inf"),
            float("-inf"),
            "",
            "hello",
            "unicode: ümlaut — 你好",
            b"",
            b"\x00\xff\x7f",
            (),
            (1, 2, 3),
            ("nested", (1, (2, (3,)))),
            [],
            [1, "two", 3.0, None],
            {},
            {"a": 1, "b": [2, 3]},
            {1: "one", (2, 3): "tuple-key"},
            frozenset(),
            frozenset({1, 2, 3}),
        ],
    )
    def test_roundtrip(self, obj: Any) -> None:
        assert serde.decode(serde.encode(obj)) == obj

    def test_roundtrip_preserves_types(self) -> None:
        # 1, 1.0 and True are == in Python but must not be conflated.
        assert type(serde.decode(serde.encode(1))) is int
        assert type(serde.decode(serde.encode(1.0))) is float
        assert type(serde.decode(serde.encode(True))) is bool
        assert type(serde.decode(serde.encode((1,)))) is tuple
        assert type(serde.decode(serde.encode([1]))) is list

    def test_nan_roundtrip(self) -> None:
        value = serde.decode(serde.encode(float("nan")))
        assert math.isnan(value)

    def test_kv_roundtrip(self) -> None:
        data = serde.encode_kv("key", [1, 2, 3])
        assert serde.decode_kv(data) == ("key", [1, 2, 3])

    def test_record_size_matches_encoding(self) -> None:
        assert serde.record_size("k", "v") == len(serde.encode_kv("k", "v"))


class TestVarint:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**32, 2**60])
    def test_varint_roundtrip(self, value: int) -> None:
        buf = bytearray()
        serde.write_varint(buf, value)
        decoded, offset = serde.read_varint(bytes(buf), 0)
        assert decoded == value
        assert offset == len(buf)

    def test_varint_rejects_negative(self) -> None:
        with pytest.raises(serde.SerdeError):
            serde.write_varint(bytearray(), -1)

    def test_varint_truncated(self) -> None:
        with pytest.raises(serde.SerdeError):
            serde.read_varint(b"\x80", 0)

    def test_varint_too_long(self) -> None:
        with pytest.raises(serde.SerdeError):
            serde.read_varint(b"\x80" * 11 + b"\x01", 0)

    def test_small_ints_encode_small(self) -> None:
        assert len(serde.encode(0)) == 2
        assert len(serde.encode(63)) == 2
        assert len(serde.encode(-64)) == 2


class TestErrors:
    def test_unsupported_type(self) -> None:
        with pytest.raises(serde.SerdeError, match="unsupported type"):
            serde.encode(object())

    def test_unsupported_set(self) -> None:
        # Mutable sets have no canonical order; only frozenset works.
        with pytest.raises(serde.SerdeError):
            serde.encode({1, 2})

    def test_trailing_bytes(self) -> None:
        with pytest.raises(serde.SerdeError, match="trailing"):
            serde.decode(serde.encode(1) + b"\x00")

    def test_truncated_record(self) -> None:
        data = serde.encode("hello world")
        with pytest.raises(serde.SerdeError):
            serde.decode(data[:-3])

    def test_unknown_tag(self) -> None:
        with pytest.raises(serde.SerdeError, match="unknown tag"):
            serde.decode(b"\x3f")

    def test_empty_buffer(self) -> None:
        with pytest.raises(serde.SerdeError):
            serde.decode(b"")

    def test_kv_trailing_bytes(self) -> None:
        with pytest.raises(serde.SerdeError, match="trailing"):
            serde.decode_kv(serde.encode_kv(1, 2) + b"\x00")


class _Pair(NamedTuple):
    left: Any
    right: Any


class _Solo(NamedTuple):
    value: Any


class TestExtensions:
    def test_register_and_roundtrip(self) -> None:
        serde.register_extension(14, _Pair)
        obj = _Pair("a", [1, 2])
        data = serde.encode(obj)
        decoded = serde.decode(data)
        assert isinstance(decoded, _Pair)
        assert decoded == obj

    def test_registration_is_idempotent(self) -> None:
        serde.register_extension(14, _Pair)
        serde.register_extension(14, _Pair)

    def test_conflicting_registration_rejected(self) -> None:
        serde.register_extension(14, _Pair)
        with pytest.raises(serde.SerdeError, match="already registered"):
            serde.register_extension(14, _Solo)

    def test_extension_overhead_is_one_byte(self) -> None:
        serde.register_extension(13, _Solo)
        assert len(serde.encode(_Solo("hello"))) == len(serde.encode("hello")) + 1

    def test_bad_ext_id(self) -> None:
        with pytest.raises(serde.SerdeError):
            serde.register_extension(16, _Pair)
        with pytest.raises(serde.SerdeError):
            serde.register_extension(-1, _Pair)

    def test_non_namedtuple_rejected(self) -> None:
        with pytest.raises(serde.SerdeError, match="NamedTuple"):
            serde.register_extension(12, dict)

    def test_unregistered_extension_decode(self) -> None:
        with pytest.raises(serde.SerdeError, match="unregistered extension"):
            serde.decode(bytes([0x4B]))  # ext id 11, never registered


class _Small(enum.IntEnum):
    ONE = 1
    TWO = 2


_LO, _HI = serde._SMALL_INT_LO, serde._SMALL_INT_HI


class TestSmallIntBulkPath:
    """A list or tuple of >= 3 exact ints inside the table encodes as
    one join; everything else takes the element loop.  Either way the
    bytes are the reference encoder's."""

    @pytest.mark.parametrize(
        "obj",
        [
            [True, 1, 2],
            [1, 2, True],
            [False, False, False],
            [_Small.ONE, _Small.TWO, 3],
            [1, _Small.TWO, 3],
            (_Small.ONE, _Small.TWO, _Small.ONE),
            [1.0, 2, 3],
            [1, 2, 3.0],
            [1, 2, "3"],
        ],
    )
    def test_non_int_elements_miss_the_bulk_path(self, obj: Any) -> None:
        assert serde._small_int_run(obj) is None
        assert serde.encode(obj) == serde_ref.encode(obj)

    @pytest.mark.parametrize(
        "edge",
        [_LO - 1, _LO, _LO + 1, _HI - 2, _HI - 1, _HI, _HI + 1],
    )
    @pytest.mark.parametrize("container", [list, tuple])
    def test_table_edges(self, edge: int, container: type) -> None:
        for obj in (
            container([edge, edge, edge]),
            container([0, 1, edge]),
            container([edge, 0, 1]),
        ):
            inside = _LO <= edge < _HI
            assert (serde._small_int_run(obj) is not None) == inside
            assert serde.encode(obj) == serde_ref.encode(obj)

    @pytest.mark.parametrize(
        "value", [2**62 - 1, 2**62, 2**62 + 1, -(2**62) - 1, -(2**62), -(2**62) + 1]
    )
    def test_zigzag_range_neighbours(self, value: int) -> None:
        for obj in ([1, 2, value], (value, 1, 2), [value] * 3):
            assert serde._small_int_run(obj) is None
            assert serde.encode(obj) == serde_ref.encode(obj)

    @pytest.mark.parametrize("length", [0, 1, 2, 3, 127, 128, 129, 300])
    @pytest.mark.parametrize("container", [list, tuple])
    def test_lengths(self, length: int, container: type) -> None:
        obj = container(range(-3, length - 3))
        assert serde.encode(obj) == serde_ref.encode(obj)
        assert serde.decode(serde.encode(obj)) == obj

    @pytest.mark.parametrize(
        "obj",
        [
            [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
            ([1, 2, 3], (4, 5, 6), [700, 1023, 2047]),
            (1, 2, [3, 4, 5]),
            [(1, 2), (3, 4), (5, 6)],
            [1, 2, [3, 4, 5]],
            ("S", [1, 2, 3]),
            (0.25, [699, 0, 12, 5000]),
        ],
    )
    def test_nested(self, obj: Any) -> None:
        assert serde.encode(obj) == serde_ref.encode(obj)
        assert serde.encode_kv(7, obj) == serde_ref.encode_kv(7, obj)


class TestApproxSize:
    @pytest.mark.parametrize(
        "obj",
        [None, True, 1, 12345, -9876, 2.5, "hello", b"bytes", (1, "a"),
         [1, 2, 3], {"k": "v"}, ("nested", [1.5, (2, "x")])],
    )
    def test_approx_tracks_exact(self, obj: Any) -> None:
        exact = serde.sizeof(obj)
        approx = serde.approx_size(obj)
        assert 0.5 * exact <= approx <= 2 * exact + 4

    @pytest.mark.parametrize("workload", ["theta", "qs"])
    def test_approx_within_8_bytes_on_real_map_output(
        self, workload: str
    ) -> None:
        """What AdaptiveSH actually sizes: the values the theta-join and
        Query-Suggestion mappers emit, not literals."""
        from repro.datagen.cloud import generate_cloud_reports
        from repro.datagen.qlog import generate_query_log
        from repro.mr.api import Context
        from repro.mr.counters import Counters
        from repro.workloads.query_suggestion import query_suggestion_job
        from repro.workloads.thetajoin import band_join_job

        if workload == "theta":
            job = band_join_job(grid_rows=12, grid_cols=12, num_reducers=8)
            inputs = generate_cloud_reports(100, seed=31)
        else:
            job = query_suggestion_job(num_reducers=8)
            inputs = generate_query_log(150, seed=31)
        values: list[Any] = []
        context = Context(
            Counters(),
            lambda key, value: values.append(value),
            partitioner=job.partitioner,
            num_partitions=job.num_reducers,
        )
        mapper = job.mapper()
        mapper.setup(context)
        for key, value in inputs:
            mapper.map(key, value, context)
        mapper.cleanup(context)
        assert len(values) >= 200
        sized = [
            (value, serde.approx_size(value), serde.sizeof(value))
            for value in values[:200]
        ]
        assert [row for row in sized if abs(row[1] - row[2]) > 8] == []

    def test_approx_unsupported(self) -> None:
        with pytest.raises(serde.SerdeError):
            serde.approx_size(object())


# -- property-based -----------------------------------------------------

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.text(max_size=30),
    st.binary(max_size=30),
)

_objects = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.tuples(inner, inner),
        st.dictionaries(st.text(max_size=5), inner, max_size=4),
    ),
    max_leaves=20,
)


class TestSerdeProperties:
    @given(_objects)
    def test_roundtrip_property(self, obj: Any) -> None:
        assert serde.decode(serde.encode(obj)) == obj

    @given(_objects, _objects)
    def test_kv_roundtrip_property(self, key: Any, value: Any) -> None:
        assert serde.decode_kv(serde.encode_kv(key, value)) == (key, value)

    @given(_objects)
    def test_encoding_is_deterministic(self, obj: Any) -> None:
        assert serde.encode(obj) == serde.encode(obj)


# -- the shared element loops -------------------------------------------


class _Sub(_Pair):
    """A subclass of a registered extension: encodes as a plain tuple."""


class TestFallbackWalk:
    """A subclass misses exact-type dispatch and encodes as the first
    base type it is an instance of, in the reference encoder's order."""

    @pytest.mark.parametrize(
        "obj",
        [_Small.TWO, [_Small.ONE, 2**70], _Sub("a", 1), (_Sub(1.5, None),)],
        ids=repr,
    )
    def test_subclasses_match_the_reference(self, obj: Any) -> None:
        serde.register_extension(14, _Pair)
        assert serde.encode(obj) == serde_ref.encode(obj)
        assert serde.encode_kv(obj, obj) == serde_ref.encode_kv(obj, obj)

    def test_unsupported_type_inside_a_container(self) -> None:
        with pytest.raises(serde.SerdeError, match="unsupported type: set"):
            serde.encode(("a", [{1}]))


_EAGER_TAG = serde.encode(EagerValue([], None))[0]
_LAZY_TAG = serde.encode(LazyValue(None, None))[0]
#: A frame prefix and the key "k": what precedes a framed record's value.
_STREAM_HEAD = b"\x7f\x05\x01k"
#: Eleven continuation bytes: one more than any varint may have.
_OVERLONG = b"\xff" * 11 + b"\x01"


def _stream(value: Any) -> bytes:
    out = bytearray()
    serde.append_records(out, [("k", value)])
    return bytes(out)


#: shape -> (decoder, a valid encoding, the bytes before a container's
#: element count, the bytes before one element, the bytes after it).
#: In the extensions the element is a field of their own.
_DAMAGE_SHAPES = {
    "tuple": (
        serde.decode,
        serde.encode(("é", 300, 2.5, None, [1, 2, 3], -(2**70), "x" * 200)),
        b"\x07",
        b"\x07\x01",
        b"",
    ),
    "list": (
        serde.decode,
        serde.encode(["é", 300, 2.5, True, (1, "a"), "x" * 200]),
        b"\x08",
        b"\x08\x01",
        b"",
    ),
    "eager": (
        serde.decode,
        serde.encode(EagerValue(["k1", "é" * 70], ("R", 0.125))),
        bytes([_EAGER_TAG, 0x08]),
        bytes([_EAGER_TAG, 0x08, 0x00]),
        b"",
    ),
    "lazy": (
        serde.decode,
        serde.encode(LazyValue(12345, ("S", [1, 2, 3], "vé"))),
        bytes([_LAZY_TAG, 0x07]),
        bytes([_LAZY_TAG]),
        b"\x00",
    ),
    "stream": (
        serde.decode_stream,
        _stream(("R", 0.25, 700, "é" * 100)),
        _STREAM_HEAD + b"\x07",
        _STREAM_HEAD + b"\x07\x01",
        b"",
    ),
}


class TestDamagedContainers:
    """Damaged input in every shape the element loops decode raises
    SerdeError, from ``bytes`` and from a ``memoryview`` alike."""

    @staticmethod
    def _views(data: bytes) -> tuple[bytes, memoryview]:
        return data, memoryview(data)

    @pytest.mark.parametrize("shape", sorted(_DAMAGE_SHAPES))
    def test_every_truncation_raises(self, shape: str) -> None:
        decode, data, *_ = _DAMAGE_SHAPES[shape]
        assert decode(data)  # the whole encoding is valid
        # An empty stream is a valid stream of no records.
        first = 1 if decode is serde.decode_stream else 0
        for cut in range(first, len(data)):
            for view in self._views(data):
                with pytest.raises(serde.SerdeError):
                    decode(view[:cut])

    @pytest.mark.parametrize("shape", sorted(_DAMAGE_SHAPES))
    def test_overlong_element_count_rejected(self, shape: str) -> None:
        decode, _, count_head, _, _ = _DAMAGE_SHAPES[shape]
        for view in self._views(count_head + _OVERLONG):
            with pytest.raises(serde.SerdeError, match="varint too long"):
                decode(view)

    @pytest.mark.parametrize("shape", sorted(_DAMAGE_SHAPES))
    def test_overlong_int_element_rejected(self, shape: str) -> None:
        decode, _, _, head, tail = _DAMAGE_SHAPES[shape]
        for view in self._views(head + b"\x03" + _OVERLONG + tail):
            with pytest.raises(serde.SerdeError, match="varint too long"):
                decode(view)

    @pytest.mark.parametrize("shape", sorted(_DAMAGE_SHAPES))
    def test_bad_utf8_element_rejected(self, shape: str) -> None:
        decode, _, _, head, tail = _DAMAGE_SHAPES[shape]
        for view in self._views(head + b"\x05\x02\xc3\x28" + tail):
            with pytest.raises(serde.SerdeError, match="utf-8"):
                decode(view)


def _serde_calls(fn: Callable[..., Any], *args: Any) -> int:
    """Python calls into ``mr/serde.py`` that ``fn(*args)`` makes."""
    calls = 0

    def profile(frame: Any, event: str, arg: Any) -> None:
        nonlocal calls
        if event == "call" and frame.f_code.co_filename == serde.__file__:
            calls += 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def _scalars(n: int) -> list:
    """``n`` elements of the inline kinds, multi-byte ints included.
    Strings stay under 128 utf-8 bytes: a longer length prefix is read
    by a call, per string, in every decoder."""
    return [("ab", 300, 2.5, "é" * 60, -5)[i % 5] for i in range(n)]


_LOOP_SHAPES: dict[str, Callable[[list], Any]] = {
    "tuple": tuple,
    "list": list,
    "eager": lambda items: EagerValue(items, "v"),
    "lazy": lambda items: LazyValue(tuple(items), 2.5),
}


class TestNoCallPerElement:
    """One shared element loop per direction, not one element codec per
    element: a container's calls into serde do not grow with its length
    (DESIGN.md §8 rejected the per-element call)."""

    @pytest.mark.parametrize("shape", sorted(_LOOP_SHAPES))
    def test_container_calls_do_not_grow(self, shape: str) -> None:
        one, many = (_LOOP_SHAPES[shape](_scalars(n)) for n in (1, 500))
        assert _serde_calls(serde.encode, one) == _serde_calls(
            serde.encode, many
        )
        data_one, data_many = serde.encode(one), serde.encode(many)
        assert serde.decode(data_many) == many
        assert _serde_calls(serde.decode, data_one) == _serde_calls(
            serde.decode, data_many
        )

    @pytest.mark.parametrize("records", [1, 500])
    def test_decode_stream_is_one_call(self, records: int) -> None:
        pairs = [(f"key{i}", f"value {i % 7}") for i in range(records)]
        out = bytearray()
        serde.append_records(out, pairs)
        assert _serde_calls(serde.decode_stream, bytes(out)) == 1
        assert serde.decode_stream(out) == pairs


class TestBatchListRecords:
    """Records may be lists as well as tuples (a pipeline source takes
    either); the batch encoder's str/str memo must take both."""

    @pytest.mark.parametrize(
        "records",
        [
            [["d1", "a b a"], ["d2", "b c"]],
            [["d1", "x"], ("d1", "x"), ["d1", "x"], ["d2", "é" * 200]],
            [["k", ["v", 1]], ["k", ["w", 2]], [1, 2], [3, 4]],
        ],
    )
    def test_list_pairs_encode_like_the_scalar_path(self, records) -> None:
        batch = bytearray()
        sizes = serde.encode_kv_batch(batch, records)
        scalar = bytearray()
        expected = [serde.encode_kv_into(scalar, k, v) for k, v in records]
        assert bytes(batch) == bytes(scalar)
        assert sizes == expected
