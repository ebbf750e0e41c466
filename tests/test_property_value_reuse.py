"""A fanned-out value is encoded once: the bytes are the per-record ones.

``serde.encode_kv_batch`` appends the bytes it already wrote for a
value when the next record carries the very same value object, or an
exact tuple of the very same items (``serde.same_items``): one Map call
writing one value under many keys.  These properties pin that reuse to
the per-record encoder, ``encode_kv_into``, byte for byte and size for
size, over batches built to repeat values in every way a Map call can:
the same object, a rebuilt tuple of the same items, an equal tuple of
other objects, and tuples that only compare equal (``(1,) == (True,)``).
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.encoding import EagerValue, LazyValue, PlainValue
from repro.mr import serde

_atoms = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=False)
    | st.text(max_size=6)
    | st.binary(max_size=6)
)
_objects = st.recursive(
    _atoms,
    lambda children: (
        st.lists(children, max_size=3)
        | st.lists(children, max_size=3).map(tuple)
    ),
    max_leaves=8,
)
_extensions = (
    st.builds(PlainValue, _objects)
    | st.builds(LazyValue, _objects, _objects)
    | st.builds(EagerValue, st.lists(_atoms, max_size=3), _objects)
)
_values = (
    _objects
    | _extensions
    | st.lists(_objects | _extensions, max_size=3).map(tuple)
)
#: Mostly one key type, so records form long runs of one shape.
_keys = st.sampled_from([0, 1, 7, 1 << 40, "a", "bb", 1.5, None])

#: How a record's value relates to the previous record's.
_REUSE = ("new", "same", "rebuilt", "copied")


def _rebuilt(value):
    """A new exact tuple around ``value``'s very items."""
    return tuple(list(value)) if type(value) is tuple else value


def _copied(value):
    """An equal value of other objects (decoded from its encoding)."""
    return serde.decode(serde.encode(value))


_steps = st.lists(
    st.tuples(_keys, st.sampled_from(_REUSE), _values), max_size=30
)


def _batch(steps) -> list[tuple]:
    pairs: list[tuple] = []
    for key, reuse, fresh in steps:
        if not pairs or reuse == "new":
            value = fresh
        else:
            last = pairs[-1][1]
            value = {
                "same": last,
                "rebuilt": _rebuilt(last),
                "copied": _copied(last),
            }[reuse]
        pairs.append((key, value))
    return pairs


def _assert_per_record_bytes(pairs: list[tuple]) -> None:
    batch = bytearray(b"head")
    sizes = serde.encode_kv_batch(batch, pairs)
    reference = bytearray(b"head")
    expected = [
        serde.encode_kv_into(reference, key, value) for key, value in pairs
    ]
    assert batch == reference
    assert sizes == expected


class TestValueReuse:
    @settings(max_examples=400, deadline=None)
    @given(_steps)
    def test_batches_encode_like_single_records(self, steps) -> None:
        _assert_per_record_bytes(_batch(steps))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_keys, min_size=1, max_size=12), _values)
    @example([1, 2, 3], ("S", [1, 2]))
    @example([1, 2, 3], ())
    @example([1, 2, 3], (None, ("a", (1,)), PlainValue(2)))
    @example([1, 2], (1,))
    def test_one_value_fanned_out(self, keys, value) -> None:
        """One Map call writing ``value`` under every key, as the same
        object and as a fresh tuple of its items per key."""
        _assert_per_record_bytes([(key, value) for key in keys])
        _assert_per_record_bytes([(key, _rebuilt(value)) for key in keys])

    def test_equal_items_of_other_types_are_encoded_afresh(self) -> None:
        for values in (
            [(1,), (True,), (1.0,), (1,)],
            [("S", 1), ("S", True), ("S", 1.0)],
            [((1,),), ((True,),)],
            [PlainValue(1), PlainValue(True)],
            [[1], [True]],
        ):
            assert values[0] == values[1]
            assert serde.encode(values[0]) != serde.encode(values[1])
            _assert_per_record_bytes(list(enumerate(values)))

    def test_same_items(self) -> None:
        record = (1, [2], "x")
        assert serde.same_items(("S", record), ("S", record))
        assert serde.same_items((), ())
        assert not serde.same_items(("S", record), ("S", tuple(list(record))))
        assert not serde.same_items((1,), (True,))
        assert not serde.same_items((1,), (1, 2))
        assert not serde.same_items(PlainValue(record), PlainValue(record))
        assert not serde.same_items([1], [1])
