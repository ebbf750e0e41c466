"""Binary record serialisation with exact byte accounting.

The simulator measures data sizes (map output size, disk I/O, network
transfer) from the *serialised* representation of records, the way
Hadoop does with Writables.  This module provides a compact,
self-describing binary format for the Python object types that keys and
values may use: ``None``, ``bool``, ``int``, ``float``, ``str``,
``bytes``, ``tuple``, ``list``, ``dict`` and ``frozenset``.

The format is: one tag byte, followed by a type-specific payload.
Variable-length payloads are prefixed with an unsigned LEB128 varint.
Integers are zig-zag encoded varints, so small values stay small — the
same trick Hadoop's ``VIntWritable`` uses.

Implementation notes (DESIGN.md §8):

* The encoder streams into one caller-supplied ``bytearray``
  (:func:`encode_into` / :func:`encode_kv_into`), so hot paths reuse a
  single buffer instead of concatenating per-value ``bytes`` objects.
  Type dispatch is a ``dict`` keyed on ``type(obj)``; a subclass walks
  the same ``dict`` in order with ``isinstance``.  Varints for the
  common short lengths are emitted inline.
* The decoder walks the buffer with integer offsets
  (:func:`decode_from`) and dispatches on the tag byte through a
  256-entry table; it slices only where a payload must be materialised
  (strings, bytes, bigints) and accepts a ``memoryview`` so segment
  scans never copy per record.
* Tuples, lists and multi-field extensions share one element loop per
  direction (:func:`_items_encoder`, :func:`_items_decoder`), which
  handles ``str``/``int``/``float`` elements inline.  The two
  per-record entry points, :func:`encode_kv_into` and
  :func:`decode_stream`, carry the same scalar chain for the record's
  key and value; one-field extensions (the PLAIN record) have a
  loop-free codec of their own.
* The byte format is frozen: every function here produces/consumes
  exactly the same bytes as the straightforward reference
  implementation in ``tests/serde_ref.py``, which the property tests
  fuzz against.
"""

from __future__ import annotations

import struct
from functools import partial
from itertools import chain, groupby, repeat
from operator import is_, rshift, xor
from typing import Any, Callable

# Type tags (one byte each).
_TAG_NONE = 0x00
#: Extension tags occupy 0x40-0x4F (see :func:`register_extension`).
_TAG_EXT_BASE = 0x40
_MAX_EXTENSIONS = 16
_TAG_FALSE = 0x01
_TAG_TRUE = 0x02
_TAG_INT = 0x03
_TAG_FLOAT = 0x04
_TAG_STR = 0x05
_TAG_BYTES = 0x06
_TAG_TUPLE = 0x07
_TAG_LIST = 0x08
_TAG_DICT = 0x09
_TAG_FROZENSET = 0x0A
_TAG_BIGINT = 0x0B  # ints too large for 64-bit zig-zag

_FLOAT_STRUCT = struct.Struct(">d")
_FLOAT_PACK = _FLOAT_STRUCT.pack
_FLOAT_UNPACK_FROM = _FLOAT_STRUCT.unpack_from

#: Inclusive bounds of the zig-zag varint integer range.
_INT_LO = -(1 << 62)
_INT_HI = 1 << 62


class SerdeError(ValueError):
    """Raised when an object cannot be (de)serialised."""


class _Extension:
    """Registered extension type: a fixed-arity tuple-like class."""

    __slots__ = ("ext_id", "cls", "arity")

    def __init__(self, ext_id: int, cls: type, arity: int):
        self.ext_id = ext_id
        self.cls = cls
        self.arity = arity


_EXTENSIONS: dict[int, _Extension] = {}
_EXTENSION_BY_CLS: dict[type, _Extension] = {}


def write_varint(out: bytearray, value: int) -> None:
    """Append an unsigned LEB128 varint to ``out``."""
    if value < 0:
        raise SerdeError(f"varint must be non-negative, got {value}")
    while value > 0x7F:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)


def read_varint(data: Any, offset: int) -> tuple[int, int]:
    """Read an unsigned LEB128 varint; return ``(value, new_offset)``."""
    result = 0
    shift = 0
    size = len(data)
    while True:
        if offset >= size:
            raise SerdeError("truncated varint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 70:
            raise SerdeError("varint too long")


def _zigzag(value: int) -> int:
    return (value << 1) ^ (value >> 63)


def _unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


# -- encoding --------------------------------------------------------------
#
# One small function per type, registered in _ENCODERS by exact type.
# Hot encoders inline the varint loop for their length prefix: lengths
# are usually < 128, so the common case is a single append.


def _enc_none(out: bytearray, obj: Any) -> None:
    out.append(_TAG_NONE)


def _enc_bool(out: bytearray, obj: Any) -> None:
    out.append(_TAG_TRUE if obj else _TAG_FALSE)


def _enc_int(out: bytearray, obj: Any) -> None:
    if _INT_LO <= obj < _INT_HI:
        out.append(_TAG_INT)
        value = (obj << 1) ^ (obj >> 63)
        while value > 0x7F:
            out.append(value & 0x7F | 0x80)
            value >>= 7
        out.append(value)
    else:
        raw = obj.to_bytes((obj.bit_length() + 8) // 8, "big", signed=True)
        out.append(_TAG_BIGINT)
        write_varint(out, len(raw))
        out += raw


def _enc_float(out: bytearray, obj: Any) -> None:
    out.append(_TAG_FLOAT)
    out += _FLOAT_PACK(obj)


def _enc_str(out: bytearray, obj: Any) -> None:
    raw = obj.encode("utf-8")
    out.append(_TAG_STR)
    length = len(raw)
    while length > 0x7F:
        out.append(length & 0x7F | 0x80)
        length >>= 7
    out.append(length)
    out += raw


def _enc_bytes(out: bytearray, obj: Any) -> None:
    out.append(_TAG_BYTES)
    length = len(obj)
    while length > 0x7F:
        out.append(length & 0x7F | 0x80)
        length >>= 7
    out.append(length)
    out += obj


# -- the element loops -----------------------------------------------------
#
# Every container whose elements follow its header back to back — tuple,
# list, and each multi-field extension — is encoded by one closure that
# _items_encoder returns and decoded by one that _items_decoder returns.
# The closure *is* the container codec, so sharing the loop adds no
# Python call per element or per container.  Its loop encodes the
# scalar cases (str, int, float) inline: a `type(item) is ...` chain
# costs a pointer compare, while even a table hit costs a dict lookup
# plus a Python function call per element.  Everything else dispatches
# through the type table.
#
# One bulk case sits in front of the list and tuple loops: at least
# three elements, every one an exact `int` in [_SMALL_INT_LO,
# _SMALL_INT_HI), encode as one `b"".join` over precomputed tag +
# zig-zag varint bytes (PageRank's adjacency lists).  The exact-type
# check is what keeps `True`, `1.0` and IntEnum members, which hash
# equal to table keys, out of the table.  Scalars never look the table
# up: per scalar, the lookup costs more than the inline ladder.

_SMALL_INT_LO = -128
_SMALL_INT_HI = 2048
_INT_ONLY = frozenset((int,))


def _int_encoding(value: int) -> bytes:
    out = bytearray()
    _enc_int(out, value)
    return bytes(out)


_SMALL_INT_ENCODING = {
    value: _int_encoding(value)
    for value in range(_SMALL_INT_LO, _SMALL_INT_HI)
}.__getitem__


def _small_int_run(obj: Any) -> bytes | None:
    """The elements of ``obj`` encoded back to back, if every one is an
    exact ``int`` inside the table; otherwise None."""
    if set(map(type, obj)) == _INT_ONLY:
        try:
            return b"".join(map(_SMALL_INT_ENCODING, obj))
        except KeyError:
            pass
    return None


def _items_encoder(
    head: int, counted: bool
) -> Callable[[bytearray, Any], None]:
    """The encoder of a container written as the tag byte ``head`` and
    its elements: a tuple or list when ``counted`` (a varint element
    count follows the tag, and the small-int bulk path applies), a
    multi-field extension otherwise (the class fixes the arity)."""
    # The tag and a one-byte count go out as one of these.
    heads = [bytes((head, n)) for n in range(0x80)] if counted else []

    def enc(out: bytearray, obj: Any) -> None:
        if counted:
            length = len(obj)
            run = (
                _small_int_run(obj)
                if length > 2 and type(obj[0]) is int
                else None
            )
            if length < 0x80:
                out += heads[length]
            else:
                out.append(head)
                while length > 0x7F:
                    out.append(length & 0x7F | 0x80)
                    length >>= 7
                out.append(length)
            if run is not None:
                out += run
                return
        else:
            out.append(head)
        append = out.append
        get = _ENCODERS.get
        for item in obj:
            kind = type(item)
            if kind is str:
                raw = item.encode("utf-8")
                append(0x05)  # _TAG_STR
                size = len(raw)
                while size > 0x7F:
                    append(size & 0x7F | 0x80)
                    size >>= 7
                append(size)
                out += raw
            elif kind is int:
                if _INT_LO <= item < _INT_HI:
                    append(0x03)  # _TAG_INT
                    value = (item << 1) ^ (item >> 63)
                    while value > 0x7F:
                        append(value & 0x7F | 0x80)
                        value >>= 7
                    append(value)
                else:
                    _enc_int(out, item)
            elif kind is float:
                append(0x04)  # _TAG_FLOAT
                out += _FLOAT_PACK(item)
            else:
                get(kind, _encode_fallback)(out, item)

    return enc


_enc_tuple = _items_encoder(_TAG_TUPLE, True)
_enc_list = _items_encoder(_TAG_LIST, True)


def _enc_dict(out: bytearray, obj: Any) -> None:
    out.append(_TAG_DICT)
    write_varint(out, len(obj))
    get = _ENCODERS.get
    for key, value in obj.items():
        get(type(key), _encode_fallback)(out, key)
        get(type(value), _encode_fallback)(out, value)


def _enc_frozenset(out: bytearray, obj: Any) -> None:
    out.append(_TAG_FROZENSET)
    # Canonical element order: sorted by serialised representation.
    items = sorted(obj, key=encode)
    write_varint(out, len(items))
    get = _ENCODERS.get
    for item in items:
        get(type(item), _encode_fallback)(out, item)


#: Exact type -> encoder.  The insertion order is also the order
#: :func:`_encode_fallback` tries base types in; registered extension
#: classes are appended after ``tuple``.
_ENCODERS: dict[type, Callable[[bytearray, Any], None]] = {
    type(None): _enc_none,
    bool: _enc_bool,
    int: _enc_int,
    float: _enc_float,
    str: _enc_str,
    bytes: _enc_bytes,
    tuple: _enc_tuple,
    list: _enc_list,
    dict: _enc_dict,
    frozenset: _enc_frozenset,
}


def _encode_fallback(out: bytearray, obj: Any) -> None:
    """Exact-type dispatch missed: a subclass (IntEnum, a NamedTuple
    that is not a registered extension, ...) encodes as the first base
    type it is an instance of — ``bool`` before ``int``, ``tuple``
    before any extension class, as the reference encoder has it."""
    for base, encoder in _ENCODERS.items():
        if isinstance(obj, base):
            encoder(out, obj)
            return
    raise SerdeError(f"unsupported type: {type(obj).__name__}")


def encode_into(out: bytearray, obj: Any) -> None:
    """Append the serialisation of one object to ``out`` (streaming)."""
    _ENCODERS.get(type(obj), _encode_fallback)(out, obj)


def _make_ext1_encoder(ext_id: int) -> Callable[[bytearray, Any], None]:
    """The encoder of a one-field extension: no item loop, and the
    field's ``str``/``int`` tag goes out with the extension tag."""
    tag = _TAG_EXT_BASE | ext_id
    str_head = bytes((tag, _TAG_STR))
    int_head = bytes((tag, _TAG_INT))

    def enc(out: bytearray, obj: Any) -> None:
        item = obj[0]
        kind = type(item)
        if kind is str:
            raw = item.encode("utf-8")
            out += str_head
            size = len(raw)
            while size > 0x7F:
                out.append(size & 0x7F | 0x80)
                size >>= 7
            out.append(size)
            out += raw
        elif kind is int and _INT_LO <= item < _INT_HI:
            out += int_head
            value = (item << 1) ^ (item >> 63)
            while value > 0x7F:
                out.append(value & 0x7F | 0x80)
                value >>= 7
            out.append(value)
        else:
            out.append(tag)
            encode_into(out, item)

    return enc


# -- decoding --------------------------------------------------------------
#
# A 256-entry dispatch table indexed by the tag byte.  Decoders take
# ``(data, offset)`` with ``offset`` already past the tag and return
# ``(value, new_offset)``.  ``data`` may be ``bytes`` or a
# ``memoryview``; only length-delimited payloads are sliced.  Per-byte
# reads rely on IndexError for truncation (converted to SerdeError at
# the public entry points), which keeps the hot loop branch-free.


def _read_len(data: Any, offset: int) -> tuple[int, int]:
    """Inline-friendly varint read for length prefixes."""
    byte = data[offset]
    offset += 1
    if not byte & 0x80:
        return byte, offset
    result = byte & 0x7F
    shift = 7
    while True:
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 70:
            raise SerdeError("varint too long")


def _read_len_cont(data: Any, offset: int, acc: int) -> tuple[int, int]:
    """Finish a varint whose first byte (`acc`, high bit stripped) had
    the continuation bit set.  The slow tail of the inline length reads
    in the hot decoders below."""
    shift = 7
    while True:
        byte = data[offset]
        offset += 1
        acc |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return acc, offset
        shift += 7
        if shift > 70:
            raise SerdeError("varint too long")


#: Values for the three payload-less tags, indexed by tag byte.
_SMALL_VALUES = (None, False, True)


def _dec_none(data: Any, offset: int) -> tuple[Any, int]:
    return None, offset


def _dec_false(data: Any, offset: int) -> tuple[Any, int]:
    return False, offset


def _dec_true(data: Any, offset: int) -> tuple[Any, int]:
    return True, offset


def _dec_int(data: Any, offset: int) -> tuple[Any, int]:
    byte = data[offset]
    offset += 1
    if not byte & 0x80:
        return (byte >> 1) ^ -(byte & 1), offset
    result = byte & 0x7F
    shift = 7
    while True:
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return (result >> 1) ^ -(result & 1), offset
        shift += 7
        if shift > 70:
            raise SerdeError("varint too long")


def _dec_bigint(data: Any, offset: int) -> tuple[Any, int]:
    length, offset = _read_len(data, offset)
    end = offset + length
    if end > len(data):
        raise SerdeError("truncated bigint")
    return int.from_bytes(data[offset:end], "big", signed=True), end


def _dec_float(data: Any, offset: int) -> tuple[Any, int]:
    end = offset + 8
    if end > len(data):
        raise SerdeError("truncated float")
    return _FLOAT_UNPACK_FROM(data, offset)[0], end


def _dec_str(data: Any, offset: int) -> tuple[Any, int]:
    length, offset = _read_len(data, offset)
    end = offset + length
    if end > len(data):
        raise SerdeError("truncated string")
    try:
        return str(data[offset:end], "utf-8"), end
    except UnicodeDecodeError:
        raise SerdeError("invalid utf-8 in string payload") from None


def _dec_bytes(data: Any, offset: int) -> tuple[Any, int]:
    length, offset = _read_len(data, offset)
    end = offset + length
    if end > len(data):
        raise SerdeError("truncated bytes")
    return bytes(data[offset:end]), end


def _items_decoder(
    build: Callable[[list], Any] | None, arity: int | None = None
) -> Callable[[Any, int], tuple[Any, int]]:
    """The decoder of what :func:`_items_encoder` writes: ``arity``
    elements, or a varint element count first when ``arity`` is None.
    ``build`` turns the element list into the value; with None the
    list is the value."""

    def dec(data: Any, offset: int) -> tuple[Any, int]:
        if arity is None:
            length = data[offset]
            offset += 1
            if length > 0x7F:
                length &= 0x7F
                shift = 7
                while True:
                    byte = data[offset]
                    offset += 1
                    length |= (byte & 0x7F) << shift
                    if not byte & 0x80:
                        break
                    shift += 7
                    if shift > 70:
                        raise SerdeError("varint too long")
        else:
            length = arity
        items = []
        append = items.append
        size = len(data)
        for _ in range(length):
            tag = data[offset]
            offset += 1
            if tag == 0x03:  # _TAG_INT
                byte = data[offset]
                offset += 1
                if byte < 0x80:
                    item = (byte >> 1) ^ -(byte & 1)
                else:
                    acc = byte & 0x7F
                    shift = 7
                    while True:
                        byte = data[offset]
                        offset += 1
                        acc |= (byte & 0x7F) << shift
                        if not byte & 0x80:
                            item = (acc >> 1) ^ -(acc & 1)
                            break
                        shift += 7
                        if shift > 70:
                            raise SerdeError("varint too long")
            elif tag == 0x05:  # _TAG_STR
                n = data[offset]
                offset += 1
                if n > 0x7F:
                    n, offset = _read_len_cont(data, offset, n & 0x7F)
                end = offset + n
                if end > size:
                    raise SerdeError("truncated string")
                try:
                    item = str(data[offset:end], "utf-8")
                except UnicodeDecodeError:
                    raise SerdeError(
                        "invalid utf-8 in string payload"
                    ) from None
                offset = end
            elif tag == 0x04:  # _TAG_FLOAT
                end = offset + 8
                if end > size:
                    raise SerdeError("truncated float")
                item = _FLOAT_UNPACK_FROM(data, offset)[0]
                offset = end
            elif tag <= 0x02:  # _TAG_NONE / _TAG_FALSE / _TAG_TRUE
                item = _SMALL_VALUES[tag]
            else:
                item, offset = _DECODERS[tag](data, offset)
            append(item)
        return (items if build is None else build(items)), offset

    return dec


_dec_tuple = _items_decoder(tuple)
_dec_list = _items_decoder(None)


def _dec_frozenset(data: Any, offset: int) -> tuple[Any, int]:
    length, offset = _read_len(data, offset)
    items = []
    append = items.append
    decoders = _DECODERS
    for _ in range(length):
        decoder = decoders[data[offset]]
        item, offset = decoder(data, offset + 1)
        append(item)
    try:
        return frozenset(items), offset
    except TypeError:
        raise SerdeError("unhashable frozenset element") from None


def _dec_dict(data: Any, offset: int) -> tuple[Any, int]:
    length, offset = _read_len(data, offset)
    result: dict[Any, Any] = {}
    decoders = _DECODERS
    try:
        for _ in range(length):
            decoder = decoders[data[offset]]
            key, offset = decoder(data, offset + 1)
            decoder = decoders[data[offset]]
            value, offset = decoder(data, offset + 1)
            result[key] = value
    except TypeError:
        raise SerdeError("unhashable dict key") from None
    return result, offset


def _dec_unknown_tag(tag: int) -> Callable[[Any, int], tuple[Any, int]]:
    def dec(data: Any, offset: int) -> tuple[Any, int]:
        raise SerdeError(f"unknown tag byte: 0x{tag:02x}")

    return dec


def _dec_unregistered_ext(
    ext_id: int,
) -> Callable[[Any, int], tuple[Any, int]]:
    def dec(data: Any, offset: int) -> tuple[Any, int]:
        raise SerdeError(f"unregistered extension id {ext_id}")

    return dec


def _make_ext1_decoder(cls: type) -> Callable[[Any, int], tuple[Any, int]]:
    """The decoder of a one-field extension: no item list, ``str`` and
    ``int`` fields inline, and the value built as the tuple it is
    (what ``cls._make`` does) rather than through ``cls.__new__``."""
    new = tuple.__new__

    def dec(data: Any, offset: int) -> tuple[Any, int]:
        tag = data[offset]
        offset += 1
        if tag == 0x03:  # _TAG_INT
            byte = data[offset]
            offset += 1
            acc = byte & 0x7F
            shift = 7
            while byte & 0x80:
                if shift > 70:
                    raise SerdeError("varint too long")
                byte = data[offset]
                offset += 1
                acc |= (byte & 0x7F) << shift
                shift += 7
            return new(cls, ((acc >> 1) ^ -(acc & 1),)), offset
        if tag == 0x05:  # _TAG_STR
            n = data[offset]
            offset += 1
            if n > 0x7F:
                n, offset = _read_len_cont(data, offset, n & 0x7F)
            end = offset + n
            if end > len(data):
                raise SerdeError("truncated string")
            try:
                return new(cls, (str(data[offset:end], "utf-8"),)), end
            except UnicodeDecodeError:
                raise SerdeError("invalid utf-8 in string payload") from None
        item, offset = _DECODERS[tag](data, offset)
        return new(cls, (item,)), offset

    return dec


_DECODERS: list[Callable[[Any, int], tuple[Any, int]]] = [
    _dec_unknown_tag(tag) for tag in range(256)
]
_DECODERS[_TAG_NONE] = _dec_none
_DECODERS[_TAG_FALSE] = _dec_false
_DECODERS[_TAG_TRUE] = _dec_true
_DECODERS[_TAG_INT] = _dec_int
_DECODERS[_TAG_FLOAT] = _dec_float
_DECODERS[_TAG_STR] = _dec_str
_DECODERS[_TAG_BYTES] = _dec_bytes
_DECODERS[_TAG_TUPLE] = _dec_tuple
_DECODERS[_TAG_LIST] = _dec_list
_DECODERS[_TAG_DICT] = _dec_dict
_DECODERS[_TAG_FROZENSET] = _dec_frozenset
_DECODERS[_TAG_BIGINT] = _dec_bigint
for _ext_id in range(_MAX_EXTENSIONS):
    _DECODERS[_TAG_EXT_BASE | _ext_id] = _dec_unregistered_ext(_ext_id)
del _ext_id


def register_extension(ext_id: int, cls: type) -> None:
    """Register a NamedTuple class as a compact extension type.

    Extension values serialise as one tag byte followed by their fields
    — no length prefix, since the arity is fixed by the class.  This is
    how the Anti-Combining encodings achieve the paper's "a few bits"
    of per-record overhead (see :mod:`repro.core.encoding`).  A
    one-field class gets the loop-free codec above; any other arity
    gets the element loops, building the value as the tuple it is.

    Registration is idempotent for the same ``(ext_id, cls)`` pair.
    """
    if not 0 <= ext_id < _MAX_EXTENSIONS:
        raise SerdeError(f"ext_id must be in [0, {_MAX_EXTENSIONS})")
    fields = getattr(cls, "_fields", None)
    if fields is None:
        raise SerdeError("extension class must be a NamedTuple")
    existing = _EXTENSIONS.get(ext_id)
    if existing is not None:
        if existing.cls is cls:
            return
        raise SerdeError(f"ext_id {ext_id} already registered")
    extension = _Extension(ext_id, cls, len(fields))
    _EXTENSIONS[ext_id] = extension
    _EXTENSION_BY_CLS[cls] = extension
    tag = _TAG_EXT_BASE | ext_id
    if len(fields) == 1:
        _ENCODERS[cls] = _make_ext1_encoder(ext_id)
        _DECODERS[tag] = _make_ext1_decoder(cls)
    else:
        _ENCODERS[cls] = _items_encoder(tag, False)
        _DECODERS[tag] = _items_decoder(
            partial(tuple.__new__, cls), len(fields)
        )
    _APPROX_SIZERS[cls] = _approx_ext


# -- public API ------------------------------------------------------------


def decode_from(data: Any, offset: int = 0) -> tuple[Any, int]:
    """Decode one object starting at ``offset``; return ``(obj, end)``.

    ``data`` may be ``bytes``, ``bytearray`` or a ``memoryview``; the
    decoder advances by integer offsets and never slices except to
    materialise string/bytes/bigint payloads.
    """
    try:
        decoder = _DECODERS[data[offset]]
        return decoder(data, offset + 1)
    except IndexError:
        raise SerdeError("truncated record") from None


def encode(obj: Any) -> bytes:
    """Serialise one object to its binary representation."""
    out = bytearray()
    _ENCODERS.get(type(obj), _encode_fallback)(out, obj)
    return bytes(out)


def decode(data: Any) -> Any:
    """Deserialise one object; the buffer must contain exactly one."""
    obj, offset = decode_from(data, 0)
    if offset != len(data):
        raise SerdeError(f"{len(data) - offset} trailing bytes after object")
    return obj


def encode_kv(key: Any, value: Any) -> bytes:
    """Serialise a key/value record (key first, then value)."""
    out = bytearray()
    encode_kv_into(out, key, value)
    return bytes(out)


def encode_kv_into(out: bytearray, key: Any, value: Any) -> int:
    """Append a key/value record to ``out``; return its size in bytes.

    This is the per-record entry point of the map-side collect path, so
    the key and value take the element loop's inline scalar chain
    rather than a call each.
    """
    before = len(out)
    append = out.append
    get = _ENCODERS.get
    for item in (key, value):
        kind = type(item)
        if kind is str:
            raw = item.encode("utf-8")
            append(0x05)  # _TAG_STR
            size = len(raw)
            while size > 0x7F:
                append(size & 0x7F | 0x80)
                size >>= 7
            append(size)
            out += raw
        elif kind is int:
            if _INT_LO <= item < _INT_HI:
                append(0x03)  # _TAG_INT
                zigzag = (item << 1) ^ (item >> 63)
                while zigzag > 0x7F:
                    append(zigzag & 0x7F | 0x80)
                    zigzag >>= 7
                append(zigzag)
            else:
                _enc_int(out, item)
        elif kind is float:
            append(0x04)  # _TAG_FLOAT
            out += _FLOAT_PACK(item)
        else:
            get(kind, _encode_fallback)(out, item)
    return len(out) - before


def decode_kv(data: Any) -> tuple[Any, Any]:
    """Deserialise a key/value record produced by :func:`encode_kv`."""
    key, offset = decode_from(data, 0)
    value, offset = decode_from(data, offset)
    if offset != len(data):
        raise SerdeError(f"{len(data) - offset} trailing bytes after record")
    return key, value


#: Per-process memo of ``(str, str)`` record encodings, used by the
#: batch encoder's dominant run shape.  Capped; cleared wholesale when
#: full (the working set of any one job fits comfortably).
_KV_PAIR_MEMO: dict[tuple[str, str], bytes] = {}
_KV_PAIR_MEMO_LIMIT = 1 << 16


def same_items(value: Any, other: Any) -> bool:
    """Exact tuples of the very same objects: they encode and size alike."""
    return type(value) is tuple is type(other) and (
        len(value) == len(other) and all(map(is_, value, other))
    )


def encode_kv_batch(out: bytearray, pairs: Any) -> list[int]:
    """Append the encoding of every ``(key, value)`` record in ``pairs``
    to ``out``; return the per-record payload sizes.

    This is the run-oriented encoder of the batched dataflow (DESIGN.md
    §11).  The batch is segmented into *runs* of identical ``(key type,
    value type)`` — in-memory run-length type headers — and each run is
    encoded with one encoder dispatch instead of one per record; the
    dominant shuffle shape (``str`` key, ``str`` value) is fully
    inlined.  A heterogeneous tail degenerates to runs of length one
    and falls back to the scalar entry point, so the output is
    byte-identical to calling :func:`encode_kv_into` once per record —
    the on-disk format never changes.
    """
    sizes: list[int] = []
    n = len(pairs)
    if not n:
        return sizes
    append = out.append
    sizes_append = sizes.append
    get = _ENCODERS.get
    i = 0
    while i < n:
        key, value = pairs[i]
        key_kind = type(key)
        value_kind = type(value)
        j = i + 1
        while j < n:
            next_key, next_value = pairs[j]
            if (
                type(next_key) is not key_kind
                or type(next_value) is not value_kind
            ):
                break
            j += 1
        if j - i == 1:
            # Heterogeneous tail / singleton run: the scalar path.
            sizes_append(encode_kv_into(out, key, value))
            i = j
            continue
        if key_kind is str and value_kind is str:
            # Memoised per distinct pair: intermediate (key, value)
            # pairs repeat heavily (duplicate inputs, multi-job
            # experiments over one log), and the hit path is a dict
            # lookup + one buffer extend instead of two utf-8 encodes
            # and eight appends.  Equal pairs encode identically, so
            # the bytes are exactly the inline encode's.  A record
            # given as a list is memoised as the tuple of its items.
            memo_get = _KV_PAIR_MEMO.get
            for index in range(i, j):
                pair = pairs[index]
                try:
                    cached = memo_get(pair)
                except TypeError:
                    pair = tuple(pair)
                    cached = memo_get(pair)
                if cached is not None:
                    out += cached
                    sizes_append(len(cached))
                    continue
                key, value = pair
                before = len(out)
                raw = key.encode("utf-8")
                append(0x05)  # _TAG_STR
                size = len(raw)
                while size > 0x7F:
                    append(size & 0x7F | 0x80)
                    size >>= 7
                append(size)
                out += raw
                raw = value.encode("utf-8")
                append(0x05)  # _TAG_STR
                size = len(raw)
                while size > 0x7F:
                    append(size & 0x7F | 0x80)
                    size >>= 7
                append(size)
                out += raw
                size = len(out) - before
                sizes_append(size)
                if len(_KV_PAIR_MEMO) >= _KV_PAIR_MEMO_LIMIT:
                    _KV_PAIR_MEMO.clear()
                _KV_PAIR_MEMO[pair] = bytes(out[before:])
        elif key_kind is str and value_kind is list:
            # The reduce-output shape (str key, list value) — inline
            # the key encode and the list header, and dispatch only on
            # non-str elements; byte-identical to _enc_str + _enc_list.
            for index in range(i, j):
                key, value = pairs[index]
                before = len(out)
                raw = key.encode("utf-8")
                append(0x05)  # _TAG_STR
                size = len(raw)
                while size > 0x7F:
                    append(size & 0x7F | 0x80)
                    size >>= 7
                append(size)
                out += raw
                append(0x08)  # _TAG_LIST
                size = len(value)
                while size > 0x7F:
                    append(size & 0x7F | 0x80)
                    size >>= 7
                append(size)
                for item in value:
                    if type(item) is str:
                        raw = item.encode("utf-8")
                        append(0x05)  # _TAG_STR
                        size = len(raw)
                        while size > 0x7F:
                            append(size & 0x7F | 0x80)
                            size >>= 7
                        append(size)
                        out += raw
                    else:
                        get(type(item), _encode_fallback)(out, item)
                sizes_append(len(out) - before)
        else:
            enc_key = get(key_kind, _encode_fallback)
            enc_value = get(value_kind, _encode_fallback)
            reuse = same_items if value_kind is tuple else is_
            last = object()  # the value last encoded, at out[at:]
            for index in range(i, j):
                key, value = pairs[index]
                before = len(out)
                enc_key(out, key)
                if reuse(value, last):  # ``last`` ended the record before
                    reused = reused or out[at:before]  # (never empty)
                    out += reused
                else:
                    at = len(out)
                    enc_value(out, value)
                    last, reused = value, None
                sizes_append(len(out) - before)
        i = j
    return sizes


# -- exact batch sizing ----------------------------------------------------
#
# What encode_kv_batch would append, without building the bytes: a run
# of one (key type, value type) shape is sized a column at a time, and
# each column sizer makes only C-level passes (map, "".join,
# str.isascii, bytes.translate).  A run with a column of a type that
# has no sizer here, or that its sizer returns None for, goes through
# encode_kv_batch.

#: ``bytes.translate`` table from the bit length of ``i`` (of ``~i``
#: below 0; the zig-zag value is one bit longer) to the tag byte plus
#: zig-zag varint width of ``i``; 0 outside [_INT_LO, _INT_HI).
_INT_SIZE_BY_BITS = bytes(
    1 + (bits + 7) // 7 if bits < 63 else 0 for bits in range(256)
)


def _str_column_size(column: Any) -> int | None:
    """Exact ``str``s: tag, one-byte length, ASCII payload; None for
    any string of 128 bytes or more, or outside ASCII."""
    text = "".join(column)
    if not text.isascii() or max(map(len, column)) > 0x7F:
        return None
    return 2 * len(column) + len(text)


def _int_column_size(column: Any) -> int | None:
    """Exact ``int``s: tag and zig-zag varint; None for any bigint."""
    if min(column) < 0:
        # i ^ (i >> 63) is ~i below 0 and i otherwise.
        column = list(map(xor, column, map(rshift, column, repeat(63))))
    try:
        sizes = bytes(map(int.bit_length, column)).translate(
            _INT_SIZE_BY_BITS
        )
    except ValueError:  # a bit length past 255
        return None
    return None if 0 in sizes else sum(sizes)


def _list_column_size(column: Any) -> int | None:
    """Exact ``list``s of under 128 items that all have one exact,
    covered type: tag, one-byte count, items."""
    if max(map(len, column)) > 0x7F:
        return None
    items = list(chain.from_iterable(column))
    kinds = set(map(type, items))
    if not kinds:
        return 2 * len(column)
    sizer = _COLUMN_SIZERS.get(kinds.pop()) if len(kinds) == 1 else None
    if sizer is None:
        return None
    items_size = sizer(items)
    return None if items_size is None else 2 * len(column) + items_size


_COLUMN_SIZERS: dict[type, Callable[[Any], int | None]] = {
    str: _str_column_size,
    int: _int_column_size,
    list: _list_column_size,
}


def kv_batch_size(pairs: Any) -> int:
    """``len`` of what :func:`encode_kv_batch` appends for ``pairs``.

    Exact, and cheaper than encoding: a run of one ``(key type, value
    type)`` shape whose key and value columns are covered is sized
    without building its bytes; any other run is encoded.  Records are
    unpacked as the encoder unpacks them, so a malformed one raises the
    same error.
    """
    keys = [key for key, _ in pairs]
    values = [value for _, value in pairs]
    key_kinds = set(map(type, keys))
    value_kinds = set(map(type, values))
    if len(key_kinds) == 1 == len(value_kinds):
        return _run_size(pairs, keys, values, *key_kinds, *value_kinds)
    total = 0
    start = 0
    for (key_kind, value_kind), run in groupby(
        zip(map(type, keys), map(type, values))
    ):
        end = start + len(list(run))
        total += _run_size(
            pairs[start:end],
            keys[start:end],
            values[start:end],
            key_kind,
            value_kind,
        )
        start = end
    return total


def _run_size(
    pairs: Any, keys: list, values: list, key_kind: type, value_kind: type
) -> int:
    key_sizer = _COLUMN_SIZERS.get(key_kind)
    value_sizer = _COLUMN_SIZERS.get(value_kind)
    if key_sizer is not None and value_sizer is not None:
        size = key_sizer(keys)
        if size is not None:
            value_size = value_sizer(values)
            if value_size is not None:
                return size + value_size
    out = bytearray()
    encode_kv_batch(out, pairs)
    return len(out)


# -- framed record streams -------------------------------------------------
#
# Segments and spill runs store records as varint(length) + record
# bytes.  The framing codec lives here with the record codec so the
# data plane's two hottest loops — write a sorted run, scan a sorted
# run — are each a single call with no per-record Python function
# boundaries.


def append_record(out: bytearray, key: Any, value: Any) -> int:
    """Append one varint-framed record to ``out``; return the record's
    payload size (the framed size is the return plus the prefix width).

    The length prefix is written as a placeholder byte and patched
    after the record is encoded, so no scratch buffer or intermediate
    ``bytes`` object is needed.  On a serialisation error ``out`` may
    be left with a partial record — callers treat that as a failed
    task attempt, never as a stream to read back.
    """
    pos = len(out)
    out.append(0)
    length = encode_kv_into(out, key, value)
    if length > 0x7F:
        prefix = bytearray()
        write_varint(prefix, length)
        out[pos : pos + 1] = prefix
    else:
        out[pos] = length
    return length


def append_records(out: bytearray, pairs: Any) -> list[int]:
    """Append a whole batch of varint-framed records to ``out``; return
    the per-record payload sizes.

    Byte-identical to calling :func:`append_record` once per record:
    the batch is encoded run-oriented (:func:`encode_kv_batch`) into a
    scratch buffer and then framed from the recorded sizes, so the
    placeholder-patching of the scalar path is not needed.
    """
    scratch = bytearray()
    sizes = encode_kv_batch(scratch, pairs)
    view = memoryview(scratch)
    append = out.append
    offset = 0
    for size in sizes:
        if size > 0x7F:
            write_varint(out, size)
        else:
            append(size)
        end = offset + size
        out += view[offset:end]
        offset = end
    return sizes


def decode_stream(data: Any) -> list[tuple[Any, Any]]:
    """Decode a whole varint-framed record stream into a list of pairs.

    The scan-side twin of :func:`append_record` and the hottest decode
    loop in the data plane: one Python call decodes an entire segment,
    walking ``data`` by integer offsets.  The key's and the value's
    scalar tags are decoded inline, with the element loop's chain;
    containers and extensions dispatch through the tag table.
    """
    out: list[tuple[Any, Any]] = []
    append = out.append
    decoders = _DECODERS
    size = len(data)
    unpack = _FLOAT_UNPACK_FROM
    small = _SMALL_VALUES
    offset = 0
    try:
        while offset < size:
            # Frame prefix: advance past it (the payload is
            # self-describing, so only the width matters here).
            byte = data[offset]
            offset += 1
            if byte > 0x7F:
                _, offset = _read_len_cont(data, offset, byte & 0x7F)
            # --- key ---
            tag = data[offset]
            offset += 1
            if tag == 0x05:  # _TAG_STR
                n = data[offset]
                offset += 1
                if n > 0x7F:
                    n, offset = _read_len_cont(data, offset, n & 0x7F)
                end = offset + n
                if end > size:
                    raise SerdeError("truncated string")
                try:
                    key = str(data[offset:end], "utf-8")
                except UnicodeDecodeError:
                    raise SerdeError(
                        "invalid utf-8 in string payload"
                    ) from None
                offset = end
            elif tag == 0x03:  # _TAG_INT
                byte = data[offset]
                offset += 1
                if byte < 0x80:
                    key = (byte >> 1) ^ -(byte & 1)
                else:
                    acc = byte & 0x7F
                    shift = 7
                    while True:
                        byte = data[offset]
                        offset += 1
                        acc |= (byte & 0x7F) << shift
                        if not byte & 0x80:
                            key = (acc >> 1) ^ -(acc & 1)
                            break
                        shift += 7
                        if shift > 70:
                            raise SerdeError("varint too long")
            elif tag == 0x04:  # _TAG_FLOAT
                end = offset + 8
                if end > size:
                    raise SerdeError("truncated float")
                key = unpack(data, offset)[0]
                offset = end
            elif tag <= 0x02:  # _TAG_NONE / _TAG_FALSE / _TAG_TRUE
                key = small[tag]
            else:
                key, offset = decoders[tag](data, offset)
            # --- value ---
            tag = data[offset]
            offset += 1
            if tag == 0x05:  # _TAG_STR
                n = data[offset]
                offset += 1
                if n > 0x7F:
                    n, offset = _read_len_cont(data, offset, n & 0x7F)
                end = offset + n
                if end > size:
                    raise SerdeError("truncated string")
                try:
                    value = str(data[offset:end], "utf-8")
                except UnicodeDecodeError:
                    raise SerdeError(
                        "invalid utf-8 in string payload"
                    ) from None
                offset = end
            elif tag == 0x03:  # _TAG_INT
                byte = data[offset]
                offset += 1
                if byte < 0x80:
                    value = (byte >> 1) ^ -(byte & 1)
                else:
                    acc = byte & 0x7F
                    shift = 7
                    while True:
                        byte = data[offset]
                        offset += 1
                        acc |= (byte & 0x7F) << shift
                        if not byte & 0x80:
                            value = (acc >> 1) ^ -(acc & 1)
                            break
                        shift += 7
                        if shift > 70:
                            raise SerdeError("varint too long")
            elif tag == 0x04:  # _TAG_FLOAT
                end = offset + 8
                if end > size:
                    raise SerdeError("truncated float")
                value = unpack(data, offset)[0]
                offset = end
            elif tag <= 0x02:  # _TAG_NONE / _TAG_FALSE / _TAG_TRUE
                value = small[tag]
            else:
                value, offset = decoders[tag](data, offset)
            append((key, value))
    except IndexError:
        raise SerdeError("truncated record") from None
    return out


def decode_frames(data: bytes) -> list[tuple[Any, bytes]]:
    """Split a varint-framed record stream into ``(key, frame)`` pairs.

    The reader of the merge passes that run no user code: only each
    record's key is decoded (to order it); ``frame`` is the record's
    stored bytes, length prefix included, so ``b"".join`` of the frames
    is the stream again.  The encoder is canonical — one object, one
    encoding, minimal varints — so a frame is exactly what decoding its
    record and appending it again (:func:`append_records`) would write.
    """
    out: list[tuple[Any, bytes]] = []
    append = out.append
    decoders = _DECODERS
    size = len(data)
    offset = 0
    try:
        while offset < size:
            start = offset
            n = data[offset]
            offset += 1
            if n > 0x7F:
                n, offset = _read_len_cont(data, offset, n & 0x7F)
            end = offset + n
            if end > size:
                raise SerdeError("truncated record")
            tag = data[offset]
            offset += 1
            if tag == 0x05:  # _TAG_STR
                n = data[offset]
                offset += 1
                if n > 0x7F:
                    n, offset = _read_len_cont(data, offset, n & 0x7F)
                key_end = offset + n
                if key_end > end:
                    raise SerdeError("truncated string")
                try:
                    key = str(data[offset:key_end], "utf-8")
                except UnicodeDecodeError:
                    raise SerdeError(
                        "invalid utf-8 in string payload"
                    ) from None
            elif tag == 0x03 and offset < end and data[offset] < 0x80:
                byte = data[offset]  # a one-byte _TAG_INT
                key = (byte >> 1) ^ -(byte & 1)
            else:
                key, offset = decoders[tag](data, offset)
                if offset > end:
                    raise SerdeError("key overruns its record")
            append((key, data[start:end]))
            offset = end
    except IndexError:
        raise SerdeError("truncated record") from None
    return out


def record_size(key: Any, value: Any) -> int:
    """Exact serialised size in bytes of a key/value record."""
    return encode_kv_into(bytearray(), key, value)


def sizeof(obj: Any) -> int:
    """Exact serialised size in bytes of a single object."""
    out = bytearray()
    encode_into(out, obj)
    return len(out)


def approx_size(obj: Any) -> int:
    """Fast estimate of the serialised size (within a few bytes).

    Used for advisory memory accounting (the Shared structure's spill
    trigger) and for AdaptiveSH's eager-vs-lazy comparison, where a
    full serialisation pass per record would dominate the cost being
    modelled.  Every size-derived trigger — ``Shared``'s spill points,
    the AntiMapper's decisions — rests on these exact numbers: a change
    of estimate is a change of behaviour.
    """
    kind = type(obj)
    if kind is str:
        return 2 + len(obj)
    if kind is int:
        return 1 + (obj.bit_length() + 7) // 7
    sizer = _APPROX_SIZERS.get(kind)
    if sizer is not None:
        return sizer(obj)
    return _approx_size_fallback(obj)


def approx_size_sum(items: Any, total: int = 0) -> int:
    """``total`` plus :func:`approx_size` of every item, in one pass.

    The sizing kernel: exact-type ``int``/``str``/``float`` items are
    sized inline, only nested containers and the rarer scalars go
    through the table (a lookup plus a Python call per item otherwise).
    """
    get = _APPROX_SIZERS.get
    for item in items:
        kind = type(item)
        if kind is int:
            total += 1 + (item.bit_length() + 7) // 7
        elif kind is str:
            total += 2 + len(item)
        elif kind is float:
            total += 9
        else:
            sizer = get(kind)
            total += (
                sizer(item)
                if sizer is not None
                else _approx_size_fallback(item)
            )
    return total


def approx_kv_size(key: Any, value: Any) -> int:
    """:func:`approx_size` of a key plus that of its value.

    One call per decoded pair on the reduce side, so the ``str`` case —
    most keys and values of every workload — is decided before the
    call into :func:`approx_size`.
    """
    return (
        (2 + len(key)) if type(key) is str else approx_size(key)
    ) + ((2 + len(value)) if type(value) is str else approx_size(value))


def _approx_one(obj: Any) -> int:
    return 1


def _approx_int(obj: Any) -> int:
    return 1 + (obj.bit_length() + 7) // 7


def _approx_float(obj: Any) -> int:
    return 9


def _approx_sized(obj: Any) -> int:
    return 2 + len(obj)


def _approx_seq(obj: Any) -> int:
    return approx_size_sum(obj, 2)


def _approx_dict(obj: Any) -> int:
    return approx_size_sum(obj.values(), approx_size_sum(obj, 2))


def _approx_ext(obj: Any) -> int:
    return approx_size_sum(obj, 1)


_APPROX_SIZERS: dict[type, Callable[[Any], int]] = {
    type(None): _approx_one,
    bool: _approx_one,
    int: _approx_int,
    float: _approx_float,
    str: _approx_sized,
    bytes: _approx_sized,
    tuple: _approx_seq,
    list: _approx_seq,
    frozenset: _approx_seq,
    dict: _approx_dict,
}


def _approx_size_fallback(obj: Any) -> int:
    """Exact-type dispatch missed: a subclass (IntEnum, unregistered
    NamedTuple, ...) is sized as the first base type it is an instance
    of — ``bool`` before ``int``, as the encoder's ladder has it."""
    for base, sizer in _APPROX_SIZERS.items():
        if isinstance(obj, base):
            return sizer(obj)
    raise SerdeError(f"unsupported type: {type(obj).__name__}")
