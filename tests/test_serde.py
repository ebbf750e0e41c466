"""Unit tests for the binary serialisation layer."""

from __future__ import annotations

import enum
import math
from typing import Any, NamedTuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
