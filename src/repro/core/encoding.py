"""Wire encodings for Anti-Combining records (paper Sections 3, 4, 6.1).

Every record an Anti-Combining-enabled mapper emits carries an encoding
tag in its value component, so differently-encoded records can coexist
in one reduce task's input ("a flag is added to the encoded record's
value component to indicate which strategy was used", Section 6.1):

* ``(key, PlainValue(value))`` — the original record; the degenerate
  EagerSH case with an empty key set.
* ``(min_key, EagerValue(other_keys, value))`` — EagerSH: one record
  standing for ``(min_key, value)`` and ``(k, value)`` for every ``k``
  in ``other_keys``.  ``other_keys`` is a *list*, not a set, so a Map
  call emitting the same key/value pair twice stays correct.
* ``(min_key, LazyValue(input_key, input_value))`` — LazySH: the Map
  *input* record; the reducer re-executes Map to decode.

The three classes are registered as serde *extension types*, which
serialise as a single tag byte followed by their fields — so the
measurable overhead of a PLAIN record versus the original program is
exactly one byte, matching the paper's "additional bits ... needed to
flag the type of encoding" (Section 7.1).
"""

from __future__ import annotations

from typing import Any, NamedTuple

from repro.mr import serde

PLAIN = 0
EAGER = 1
LAZY = 2


class EncodingError(ValueError):
    """Raised when an encoded value component is malformed."""


class PlainValue(NamedTuple):
    """An unshared record's value component (1 byte of overhead)."""

    value: Any


class EagerValue(NamedTuple):
    """An EagerSH value component for a same-value key group."""

    other_keys: list
    value: Any


class LazyValue(NamedTuple):
    """A LazySH value component holding the Map input record."""

    input_key: Any
    input_value: Any


serde.register_extension(PLAIN, PlainValue)
serde.register_extension(EAGER, EagerValue)
serde.register_extension(LAZY, LazyValue)


def plain_value(value: Any) -> PlainValue:
    """Encode an unshared record's value component."""
    return PlainValue(value)


def eager_value(other_keys: list, value: Any) -> EagerValue:
    """Encode an EagerSH value component for a same-value key group."""
    return EagerValue(list(other_keys), value)


def lazy_value(input_key: Any, input_value: Any) -> LazyValue:
    """Encode a LazySH value component holding the Map input record."""
    return LazyValue(input_key, input_value)


def tag_of(encoded: Any) -> int:
    """The encoding tag of a value component (validating its type)."""
    kind = type(encoded)
    if kind is PlainValue:
        return PLAIN
    if kind is EagerValue:
        if not isinstance(encoded.other_keys, list):
            raise EncodingError(f"malformed eager value: {encoded!r}")
        return EAGER
    if kind is LazyValue:
        return LAZY
    raise EncodingError(f"not an encoded value component: {encoded!r}")


def decoded_pairs_of_eager(rep_key: Any, encoded: Any) -> list[tuple[Any, Any]]:
    """Expand an EAGER (or PLAIN) record into its original pairs."""
    tag = tag_of(encoded)
    if tag == PLAIN:
        return [(rep_key, encoded.value)]
    if tag == EAGER:
        pairs = [(rep_key, encoded.value)]
        pairs.extend((key, encoded.value) for key in encoded.other_keys)
        return pairs
    raise EncodingError("decoded_pairs_of_eager called on a LAZY record")
