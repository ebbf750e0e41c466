"""Unit tests for the Anti-Combining wire encodings."""

from __future__ import annotations

import pytest

from repro.core import encoding
from repro.mr import serde


class TestConstructors:
    def test_plain(self) -> None:
        component = encoding.plain_value("v")
        assert encoding.tag_of(component) == encoding.PLAIN
        assert component.value == "v"

    def test_eager(self) -> None:
        component = encoding.eager_value(["k2", "k3"], "v")
        assert encoding.tag_of(component) == encoding.EAGER
        assert (component.other_keys, component.value) == (["k2", "k3"], "v")

    def test_eager_copies_keys(self) -> None:
        keys = ["a"]
        component = encoding.eager_value(keys, "v")
        keys.append("b")
        assert component.other_keys == ["a"]

    def test_lazy(self) -> None:
        component = encoding.lazy_value(7, "input")
        assert encoding.tag_of(component) == encoding.LAZY
        assert (component.input_key, component.input_value) == (7, "input")


class TestTagValidation:
    @pytest.mark.parametrize("bad", [None, 42, "x", (), (9, "v"), ["list"]])
    def test_non_components_rejected(self, bad) -> None:
        with pytest.raises(encoding.EncodingError):
            encoding.tag_of(bad)

    def test_plain_tuple_is_not_a_component(self) -> None:
        # A user value that *looks* like an encoded tuple must not be
        # mistaken for one — only the dedicated classes qualify.
        with pytest.raises(encoding.EncodingError):
            encoding.tag_of((encoding.PLAIN, "v"))


class TestWireFormat:
    def test_plain_overhead_is_one_byte(self) -> None:
        raw = serde.record_size("key", "value")
        tagged = serde.record_size("key", encoding.plain_value("value"))
        assert tagged == raw + 1

    def test_roundtrip_through_serde(self) -> None:
        for component in (
            encoding.plain_value({"a": 1}),
            encoding.eager_value([1, 2], "v"),
            encoding.lazy_value("ik", ["iv"]),
        ):
            data = serde.encode_kv("key", component)
            key, decoded = serde.decode_kv(data)
            assert key == "key"
            assert type(decoded) is type(component)
            assert decoded == component

    def test_eager_smaller_than_separate_records(self) -> None:
        """The whole point: one eager record beats n plain records."""
        keys = [f"key{i}" for i in range(5)]
        value = "shared-value-payload"
        separate = sum(
            serde.record_size(key, encoding.plain_value(value)) for key in keys
        )
        eager = serde.record_size(
            keys[0], encoding.eager_value(keys[1:], value)
        )
        assert eager < separate


class TestDecodedPairs:
    def test_plain_expands_to_itself(self) -> None:
        pairs = encoding.decoded_pairs_of_eager("k", encoding.plain_value("v"))
        assert pairs == [("k", "v")]

    def test_eager_expands_all_keys(self) -> None:
        component = encoding.eager_value(["k2", "k2", "k3"], "v")
        pairs = encoding.decoded_pairs_of_eager("k1", component)
        assert pairs == [("k1", "v"), ("k2", "v"), ("k2", "v"), ("k3", "v")]

    def test_lazy_rejected(self) -> None:
        with pytest.raises(encoding.EncodingError):
            encoding.decoded_pairs_of_eager("k", encoding.lazy_value(1, 2))

    def test_encoded_record_size(self) -> None:
        component = encoding.plain_value("v")
        assert serde.record_size("k", component) == len(
            serde.encode_kv("k", component)
        )
