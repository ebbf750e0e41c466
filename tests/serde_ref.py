"""Straightforward reference implementation of the serde byte format.

This is the original, obviously-correct encoder/decoder pair: a
type-check ladder on the encode side, a tag ``if``-chain walking plain
byte offsets on the decode side.  The optimised implementation in
:mod:`repro.mr.serde` must produce and consume **bit-identical** bytes;
the property tests (``tests/test_property_serde_fuzz.py``) fuzz the two
against each other.

The extension registry is shared with :mod:`repro.mr.serde` — register
extension types there (:func:`repro.mr.serde.register_extension`); this
module only reads the registry.
"""

from __future__ import annotations

from typing import Any

from repro.mr.serde import (
    _EXTENSION_BY_CLS,
    _EXTENSIONS,
    _FLOAT_STRUCT,
    _TAG_BIGINT,
    _TAG_BYTES,
    _TAG_DICT,
    _TAG_EXT_BASE,
    _TAG_FALSE,
    _TAG_FLOAT,
    _TAG_FROZENSET,
    _TAG_INT,
    _TAG_LIST,
    _TAG_NONE,
    _TAG_STR,
    _TAG_TRUE,
    _TAG_TUPLE,
    SerdeError,
    _unzigzag,
    _zigzag,
)


def write_varint(out: bytearray, value: int) -> None:
    """Append an unsigned LEB128 varint to ``out``."""
    if value < 0:
        raise SerdeError(f"varint must be non-negative, got {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def read_varint(data: bytes, offset: int) -> tuple[int, int]:
    """Read an unsigned LEB128 varint; return ``(value, new_offset)``."""
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise SerdeError("truncated varint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 70:
            raise SerdeError("varint too long")


def _encode_into(out: bytearray, obj: Any) -> None:
    extension = _EXTENSION_BY_CLS.get(type(obj))
    if extension is not None:
        out.append(_TAG_EXT_BASE | extension.ext_id)
        for item in obj:
            _encode_into(out, item)
        return
    if obj is None:
        out.append(_TAG_NONE)
    elif obj is True:
        out.append(_TAG_TRUE)
    elif obj is False:
        out.append(_TAG_FALSE)
    elif isinstance(obj, int):
        if -(1 << 62) <= obj < (1 << 62):
            out.append(_TAG_INT)
            write_varint(out, _zigzag(obj))
        else:
            raw = obj.to_bytes((obj.bit_length() + 8) // 8, "big", signed=True)
            out.append(_TAG_BIGINT)
            write_varint(out, len(raw))
            out.extend(raw)
    elif isinstance(obj, float):
        out.append(_TAG_FLOAT)
        out.extend(_FLOAT_STRUCT.pack(obj))
    elif isinstance(obj, str):
        raw = obj.encode("utf-8")
        out.append(_TAG_STR)
        write_varint(out, len(raw))
        out.extend(raw)
    elif isinstance(obj, bytes):
        out.append(_TAG_BYTES)
        write_varint(out, len(obj))
        out.extend(obj)
    elif isinstance(obj, tuple):
        out.append(_TAG_TUPLE)
        write_varint(out, len(obj))
        for item in obj:
            _encode_into(out, item)
    elif isinstance(obj, list):
        out.append(_TAG_LIST)
        write_varint(out, len(obj))
        for item in obj:
            _encode_into(out, item)
    elif isinstance(obj, dict):
        out.append(_TAG_DICT)
        write_varint(out, len(obj))
        for key, value in obj.items():
            _encode_into(out, key)
            _encode_into(out, value)
    elif isinstance(obj, frozenset):
        out.append(_TAG_FROZENSET)
        items = sorted(obj, key=lambda item: encode(item))
        write_varint(out, len(items))
        for item in items:
            _encode_into(out, item)
    else:
        raise SerdeError(f"unsupported type: {type(obj).__name__}")


def _decode_from(data: bytes, offset: int) -> tuple[Any, int]:
    if offset >= len(data):
        raise SerdeError("truncated record")
    tag = data[offset]
    offset += 1
    if tag & 0xF0 == _TAG_EXT_BASE:
        extension = _EXTENSIONS.get(tag & 0x0F)
        if extension is None:
            raise SerdeError(f"unregistered extension id {tag & 0x0F}")
        items = []
        for _ in range(extension.arity):
            item, offset = _decode_from(data, offset)
            items.append(item)
        return extension.cls(*items), offset
    if tag == _TAG_NONE:
        return None, offset
    if tag == _TAG_TRUE:
        return True, offset
    if tag == _TAG_FALSE:
        return False, offset
    if tag == _TAG_INT:
        raw, offset = read_varint(data, offset)
        return _unzigzag(raw), offset
    if tag == _TAG_BIGINT:
        length, offset = read_varint(data, offset)
        end = offset + length
        if end > len(data):
            raise SerdeError("truncated bigint")
        return int.from_bytes(data[offset:end], "big", signed=True), end
    if tag == _TAG_FLOAT:
        end = offset + 8
        if end > len(data):
            raise SerdeError("truncated float")
        return _FLOAT_STRUCT.unpack_from(data, offset)[0], end
    if tag == _TAG_STR:
        length, offset = read_varint(data, offset)
        end = offset + length
        if end > len(data):
            raise SerdeError("truncated string")
        try:
            return data[offset:end].decode("utf-8"), end
        except UnicodeDecodeError:
            raise SerdeError("invalid utf-8 in string payload") from None
    if tag == _TAG_BYTES:
        length, offset = read_varint(data, offset)
        end = offset + length
        if end > len(data):
            raise SerdeError("truncated bytes")
        return bytes(data[offset:end]), end
    if tag in (_TAG_TUPLE, _TAG_LIST, _TAG_FROZENSET):
        length, offset = read_varint(data, offset)
        items = []
        for _ in range(length):
            item, offset = _decode_from(data, offset)
            items.append(item)
        if tag == _TAG_TUPLE:
            return tuple(items), offset
        if tag == _TAG_LIST:
            return items, offset
        try:
            return frozenset(items), offset
        except TypeError:
            raise SerdeError("unhashable frozenset element") from None
    if tag == _TAG_DICT:
        length, offset = read_varint(data, offset)
        result = {}
        for _ in range(length):
            key, offset = _decode_from(data, offset)
            value, offset = _decode_from(data, offset)
            try:
                result[key] = value
            except TypeError:
                raise SerdeError("unhashable dict key") from None
        return result, offset
    raise SerdeError(f"unknown tag byte: 0x{tag:02x}")


def encode(obj: Any) -> bytes:
    """Reference serialisation of one object."""
    out = bytearray()
    _encode_into(out, obj)
    return bytes(out)


def decode(data: bytes) -> Any:
    """Reference deserialisation; the buffer must contain exactly one."""
    obj, offset = _decode_from(data, 0)
    if offset != len(data):
        raise SerdeError(f"{len(data) - offset} trailing bytes after object")
    return obj


def encode_kv(key: Any, value: Any) -> bytes:
    """Reference serialisation of a key/value record."""
    out = bytearray()
    _encode_into(out, key)
    _encode_into(out, value)
    return bytes(out)


def decode_kv(data: bytes) -> tuple[Any, Any]:
    """Reference deserialisation of a key/value record."""
    key, offset = _decode_from(data, 0)
    value, offset = _decode_from(data, offset)
    if offset != len(data):
        raise SerdeError(f"{len(data) - offset} trailing bytes after record")
    return key, value


def iter_records(raw: bytes):
    """Reference scan of a length-prefixed record stream (uncompressed)."""
    offset = 0
    while offset < len(raw):
        length, offset = read_varint(raw, offset)
        end = offset + length
        yield decode_kv(raw[offset:end])
        offset = end
