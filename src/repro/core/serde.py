"""Versioned binary serialization for sketches.

Every sketch supports ``to_bytes()`` / ``Class.from_bytes(buf)`` and the
generic :func:`loads`, which dispatches on the class name recorded in the
header.  The wire format is:

    magic ``b"RPRO"`` | format version (u16) | class-name (str) | payload

The payload is the sketch's ``state_dict()`` encoded with a small typed
binary encoder (:func:`encode_value` / :func:`decode_value`) supporting
``None``, ``bool``, ``int``, ``float``, ``str``, ``bytes``, ``list``,
``tuple``, ``dict`` and numpy arrays.  The encoder is self-describing, so
format evolution only needs key-level compatibility.
"""

from __future__ import annotations

import io
import json
import struct

import numpy as np

from .exceptions import DeserializationError

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "encode_value",
    "decode_value",
    "dump_sketch",
    "load_header",
    "encoded_nbytes",
    "blob_nbytes",
    "pack_rng_state",
    "unpack_rng_state",
]

MAGIC = b"RPRO"
FORMAT_VERSION = 1

_T_NONE = 0
_T_FALSE = 1
_T_TRUE = 2
_T_INT = 3
_T_FLOAT = 4
_T_STR = 5
_T_BYTES = 6
_T_LIST = 7
_T_DICT = 8
_T_NDARRAY = 9
_T_TUPLE = 10


def _write_len(out: io.BytesIO, n: int) -> None:
    out.write(struct.pack("<Q", n))


def _read_len(buf: io.BytesIO, per_item: int = 1) -> int:
    """Read a length/count field, validating it against the bytes left.

    A corrupt blob can carry an absurd length (up to 2^64 − 1) that
    would otherwise drive a huge allocation; any declared length whose
    payload (``per_item`` bytes per element) cannot fit in the
    remaining buffer is rejected up front.
    """
    raw = buf.read(8)
    if len(raw) != 8:
        raise DeserializationError("truncated length field")
    n = struct.unpack("<Q", raw)[0]
    if per_item:
        remaining = buf.getbuffer().nbytes - buf.tell()
        if n * per_item > remaining:
            raise DeserializationError(
                f"corrupt length field: {n} exceeds the {remaining} bytes remaining"
            )
    return n


def encode_value(value: object, out: io.BytesIO) -> None:
    """Append the typed binary encoding of ``value`` to ``out``."""
    if value is None:
        out.write(bytes([_T_NONE]))
    elif value is False:
        out.write(bytes([_T_FALSE]))
    elif value is True:
        out.write(bytes([_T_TRUE]))
    elif isinstance(value, int):
        out.write(bytes([_T_INT]))
        raw = value.to_bytes((value.bit_length() + 8) // 8 + 1, "little", signed=True)
        _write_len(out, len(raw))
        out.write(raw)
    elif isinstance(value, float):
        out.write(bytes([_T_FLOAT]))
        out.write(struct.pack("<d", value))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.write(bytes([_T_STR]))
        _write_len(out, len(raw))
        out.write(raw)
    elif isinstance(value, (bytes, bytearray)):
        out.write(bytes([_T_BYTES]))
        _write_len(out, len(value))
        out.write(bytes(value))
    elif isinstance(value, np.ndarray):
        out.write(bytes([_T_NDARRAY]))
        dtype_name = value.dtype.str
        raw = dtype_name.encode("ascii")
        _write_len(out, len(raw))
        out.write(raw)
        _write_len(out, value.ndim)
        for dim in value.shape:
            _write_len(out, dim)
        data = np.ascontiguousarray(value).tobytes()
        _write_len(out, len(data))
        out.write(data)
    elif isinstance(value, (list, tuple)):
        out.write(bytes([_T_LIST if isinstance(value, list) else _T_TUPLE]))
        _write_len(out, len(value))
        for part in value:
            encode_value(part, out)
    elif isinstance(value, dict):
        out.write(bytes([_T_DICT]))
        _write_len(out, len(value))
        for key, part in value.items():
            if not isinstance(key, str):
                raise TypeError(f"state dict keys must be str, got {type(key)!r}")
            encode_value(key, out)
            encode_value(part, out)
    elif isinstance(value, (np.integer,)):
        encode_value(int(value), out)
    elif isinstance(value, (np.floating,)):
        encode_value(float(value), out)
    else:
        raise TypeError(f"cannot serialize value of type {type(value).__name__!r}")


def decode_value(buf: io.BytesIO) -> object:
    """Decode the next typed value from ``buf``."""
    tag_raw = buf.read(1)
    if not tag_raw:
        raise DeserializationError("truncated payload: missing type tag")
    tag = tag_raw[0]
    if tag == _T_NONE:
        return None
    if tag == _T_FALSE:
        return False
    if tag == _T_TRUE:
        return True
    if tag == _T_INT:
        n = _read_len(buf)
        raw = buf.read(n)
        if len(raw) != n:
            raise DeserializationError("truncated int payload")
        return int.from_bytes(raw, "little", signed=True)
    if tag == _T_FLOAT:
        raw = buf.read(8)
        if len(raw) != 8:
            raise DeserializationError("truncated float payload")
        return struct.unpack("<d", raw)[0]
    if tag == _T_STR:
        n = _read_len(buf)
        raw = buf.read(n)
        if len(raw) != n:
            raise DeserializationError("truncated str payload")
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DeserializationError(f"corrupt str payload: {exc}") from exc
    if tag == _T_BYTES:
        n = _read_len(buf)
        raw = buf.read(n)
        if len(raw) != n:
            raise DeserializationError("truncated bytes payload")
        return raw
    if tag == _T_NDARRAY:
        n = _read_len(buf)
        try:
            dtype = np.dtype(buf.read(n).decode("ascii"))
        except (TypeError, ValueError, UnicodeDecodeError) as exc:
            raise DeserializationError(f"corrupt ndarray dtype: {exc}") from exc
        ndim = _read_len(buf, per_item=8)
        # Dims are validated via the byte-count consistency check below
        # (a zero dim legitimately allows other dims to be huge).
        shape = tuple(_read_len(buf, per_item=0) for _ in range(ndim))
        nbytes = _read_len(buf)
        expected = dtype.itemsize
        for dim in shape:
            expected *= dim
        if nbytes != expected:
            raise DeserializationError(
                f"corrupt ndarray payload: {nbytes} bytes for dtype {dtype} "
                f"and shape {shape} (expected {expected})"
            )
        raw = buf.read(nbytes)
        if len(raw) != nbytes:
            raise DeserializationError("truncated ndarray payload")
        try:
            return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
        except (TypeError, ValueError) as exc:
            raise DeserializationError(f"corrupt ndarray payload: {exc}") from exc
    if tag in (_T_LIST, _T_TUPLE):
        n = _read_len(buf)  # every element needs at least a 1-byte tag
        items = [decode_value(buf) for _ in range(n)]
        return items if tag == _T_LIST else tuple(items)
    if tag == _T_DICT:
        n = _read_len(buf, per_item=2)  # a key tag and a value tag each
        return {decode_value(buf): decode_value(buf) for _ in range(n)}
    raise DeserializationError(f"unknown type tag {tag}")


def encoded_nbytes(value: object) -> int:
    """Exact size of :func:`encode_value`'s output, without building it.

    Mirrors the encoder case-for-case; the ndarray branch is the point —
    it charges ``value.nbytes`` straight off the live buffer instead of
    copying the data through ``tobytes()``, so sizing a sketch's state
    is allocation-free.  This is the engine behind the
    ``memory_footprint()`` protocol's serde-size fallback.
    """
    if value is None or value is False or value is True:
        return 1
    if isinstance(value, (bool, np.bool_)):
        return 1
    if isinstance(value, (int, np.integer)):
        return 1 + 8 + (int(value).bit_length() + 8) // 8 + 1
    if isinstance(value, (float, np.floating)):
        return 1 + 8
    if isinstance(value, str):
        return 1 + 8 + len(value.encode("utf-8"))
    if isinstance(value, (bytes, bytearray)):
        return 1 + 8 + len(value)
    if isinstance(value, np.ndarray):
        return (
            1
            + 8 + len(value.dtype.str.encode("ascii"))
            + 8  # ndim
            + 8 * value.ndim
            + 8  # byte count
            + value.nbytes
        )
    if isinstance(value, (list, tuple)):
        return 1 + 8 + sum(encoded_nbytes(part) for part in value)
    if isinstance(value, dict):
        return 1 + 8 + sum(
            encoded_nbytes(key) + encoded_nbytes(part) for key, part in value.items()
        )
    raise TypeError(f"cannot size value of type {type(value).__name__!r}")


def blob_nbytes(class_name: str, state: dict) -> int:
    """Exact ``len(dump_sketch(class_name, state))`` without serializing."""
    return len(MAGIC) + 2 + encoded_nbytes(class_name) + encoded_nbytes(state)


#: Mersenne Twister state length: 624 state words plus the position.
_MT_STATE_WORDS = 625


def pack_rng_state(state: tuple) -> tuple:
    """Encode ``random.Random.getstate()`` as ``(version, uint32 words, gauss_next)``.

    The Mersenne Twister state is ``(version, (624 words + position),
    gauss_next)``.  The 625 words travel as one ``uint32`` ndarray —
    a single tagged buffer on the wire instead of 625 separately
    tagged ints, which is what makes a persisted randomized sketch
    cheap to encode and decode.  No string round-trip, no ``eval``.
    """
    version, internal, gauss_next = state
    return (
        int(version),
        np.fromiter(internal, dtype=np.uint32, count=len(internal)),
        None if gauss_next is None else float(gauss_next),
    )


def _rng_words(internal: object) -> tuple:
    """Validate a packed word vector; returns it as a tuple of ints."""
    if isinstance(internal, np.ndarray):
        if internal.dtype.kind != "u":
            raise DeserializationError(
                f"corrupt rng state: words have dtype {internal.dtype}, expected uint32"
            )
        if internal.ndim != 1:
            raise DeserializationError(
                f"corrupt rng state: words have ndim {internal.ndim}, expected 1"
            )
        words = tuple(internal.tolist())
    else:
        words = tuple(int(word) for word in internal)
    if len(words) != _MT_STATE_WORDS:
        raise DeserializationError(
            f"corrupt rng state: {len(words)} words, expected {_MT_STATE_WORDS}"
        )
    if not 0 <= words[-1] <= _MT_STATE_WORDS - 1:
        raise DeserializationError(
            f"corrupt rng state: position {words[-1]} outside [0, 624]"
        )
    return words


def unpack_rng_state(value: object) -> tuple:
    """Decode a packed RNG state into ``random.Random.setstate()`` form.

    Accepts the ``uint32`` ndarray written by :func:`pack_rng_state`
    and the older structured tuple/list encoding (lists appear when a
    state dict came through a non-tuple-preserving channel).  Legacy
    blobs stored ``repr(getstate())`` as a string — a tuple literal of
    ints with an optional trailing float/``None`` — which maps 1:1
    onto JSON, so it parses with ``json.loads`` after bracket/``None``
    translation; no form of evaluation ever touches deserialized data.
    A malformed state of any form raises ``DeserializationError``.
    """
    if isinstance(value, str):
        translated = (
            value.replace("(", "[").replace(")", "]").replace("None", "null")
        )
        try:
            value = json.loads(translated)
        except ValueError as exc:
            raise DeserializationError(f"corrupt legacy rng state: {exc}") from exc
    try:
        version, internal, gauss_next = value
        return (
            int(version),
            _rng_words(internal),
            None if gauss_next is None else float(gauss_next),
        )
    except (TypeError, ValueError) as exc:
        raise DeserializationError(f"corrupt rng state: {exc}") from exc


def dump_sketch(class_name: str, state: dict) -> bytes:
    """Serialize a sketch's state dict under the versioned header."""
    out = io.BytesIO()
    out.write(MAGIC)
    out.write(struct.pack("<H", FORMAT_VERSION))
    encode_value(class_name, out)
    encode_value(state, out)
    return out.getvalue()


def load_header(data: bytes) -> tuple[str, dict]:
    """Parse a serialized sketch, returning ``(class_name, state_dict)``."""
    buf = io.BytesIO(data)
    if buf.read(4) != MAGIC:
        raise DeserializationError("bad magic: not a repro sketch blob")
    raw = buf.read(2)
    if len(raw) != 2:
        raise DeserializationError("truncated header")
    version = struct.unpack("<H", raw)[0]
    if version != FORMAT_VERSION:
        raise DeserializationError(
            f"unsupported format version {version} (expected {FORMAT_VERSION})"
        )
    class_name = decode_value(buf)
    if not isinstance(class_name, str):
        raise DeserializationError("corrupt header: class name is not a string")
    state = decode_value(buf)
    if not isinstance(state, dict):
        raise DeserializationError("corrupt payload: state is not a dict")
    return class_name, state
