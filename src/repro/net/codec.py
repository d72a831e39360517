"""Binary wire codec for protocol payloads (substrate S31).

The simulator passes Python objects between player generators; a real
deployment would serialize them.  This codec pins down that wire format —
a compact, self-describing TLV encoding of the payload vocabulary the
protocols use (strings for tags, ints for field elements and ids, nested
tuples, None for absences) — and doubles as ground truth for the byte
sizes the metrics layer estimates.

Format (big-endian):

=========  ==============================================
type byte  encoding
=========  ==============================================
``N``      None
``T``      bool True        ``F``  bool False
``i``      varint-length + unsigned big-endian int
``j``      like ``i`` but negative (absolute value stored)
``s``      varint-length + UTF-8 bytes
``(``      varint count + that many encoded items (tuple)
=========  ==============================================

Varints are LEB128 (7 bits per byte, high bit = continuation).  Tuples
nest at most :data:`MAX_DEPTH` deep, on both sides of the wire: deeper
input is a :class:`CodecError`, never a ``RecursionError``.

Off the coin path (docs/CENSUS.md, class ii); run by CI's `--flight-log`
/ `repro replay` steps, `examples/trace_walkthrough.py` and
`examples/forensics_demo.py`.
"""

from __future__ import annotations

from typing import Any, Callable, Tuple


class CodecError(Exception):
    """Malformed wire data or unsupported payload type."""


#: deepest tuple nesting the codec writes or reads; protocol payloads
#: nest a handful of levels
MAX_DEPTH = 64


def _write_varint(value: int, out: bytearray) -> None:
    if value < 0:
        raise CodecError("varint must be non-negative")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_varint(data: bytes, offset: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise CodecError("truncated varint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 10 * 7:
            raise CodecError("varint too long")


def _encode_into(payload: Any, out: bytearray, depth: int = 0) -> None:
    if payload is None:
        out.append(ord("N"))
    elif payload is True:
        out.append(ord("T"))
    elif payload is False:
        out.append(ord("F"))
    elif isinstance(payload, int):
        magnitude = abs(payload)
        raw = magnitude.to_bytes((magnitude.bit_length() + 7) // 8 or 1, "big")
        out.append(ord("i") if payload >= 0 else ord("j"))
        _write_varint(len(raw), out)
        out.extend(raw)
    elif isinstance(payload, str):
        raw = payload.encode("utf-8")
        out.append(ord("s"))
        _write_varint(len(raw), out)
        out.extend(raw)
    elif isinstance(payload, tuple):
        if depth == MAX_DEPTH:
            raise CodecError(f"tuples nested deeper than {MAX_DEPTH}")
        out.append(ord("("))
        _write_varint(len(payload), out)
        for item in payload:
            _encode_into(item, out, depth + 1)
    else:
        raise CodecError(
            f"unsupported payload type {type(payload).__name__}; the wire "
            f"vocabulary is None/bool/int/str/tuple"
        )


def encode(payload: Any) -> bytes:
    """Serialize a protocol payload to bytes."""
    out = bytearray()
    _encode_into(payload, out)
    return bytes(out)


def _decode_from(data: bytes, offset: int, depth: int = 0) -> Tuple[Any, int]:
    if offset >= len(data):
        raise CodecError("truncated payload")
    kind = data[offset]
    offset += 1
    if kind == ord("N"):
        return None, offset
    if kind == ord("T"):
        return True, offset
    if kind == ord("F"):
        return False, offset
    if kind in (ord("i"), ord("j")):
        length, offset = _read_varint(data, offset)
        if offset + length > len(data):
            raise CodecError("truncated int")
        value = int.from_bytes(data[offset : offset + length], "big")
        offset += length
        return (value if kind == ord("i") else -value), offset
    if kind == ord("s"):
        length, offset = _read_varint(data, offset)
        if offset + length > len(data):
            raise CodecError("truncated string")
        try:
            text = data[offset : offset + length].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError("invalid UTF-8") from exc
        return text, offset + length
    if kind == ord("("):
        if depth == MAX_DEPTH:
            raise CodecError(f"tuples nested deeper than {MAX_DEPTH}")
        count, offset = _read_varint(data, offset)
        items = []
        for _ in range(count):
            item, offset = _decode_from(data, offset, depth + 1)
            items.append(item)
        return tuple(items), offset
    raise CodecError(f"unknown type byte {kind:#x}")


def decode(data: bytes) -> Any:
    """Deserialize wire bytes back into a payload."""
    payload, offset = _decode_from(data, 0)
    if offset != len(data):
        raise CodecError(f"{len(data) - offset} trailing bytes")
    return payload


def wire_key(payload: Any, opaque: Callable[[str], Any] = str) -> Any:
    """A payload's identity: its wire bytes in hex.

    Outside the codec vocabulary there is no wire form and ``repr``
    stands in, passed through ``opaque`` so a caller that stores keys
    (the flight log) can mark them apart from hex.  Flight logs, log
    diffs, causal pairing and forensics all name payloads this way.
    """
    try:
        return encode(payload).hex()
    except CodecError:
        return opaque(repr(payload))


def encoded_size(payload: Any) -> int:
    """Exact wire size in bytes (the metrics layer's k-bit accounting is
    the paper's model; this is the engineering ground truth)."""
    return len(encode(payload))
