"""Versioned binary serialization for sketches.

Every sketch supports ``to_bytes()`` / ``Class.from_bytes(buf)`` and the
generic :func:`repro.from_bytes_any`, which dispatches on the class name in the
header.  The wire format is:

    magic ``b"RPRO"`` | format version (u16) | class-name (str) | payload

The payload takes one of two forms, told apart by its first byte:

- **generic** — the sketch's ``state_dict()`` encoded with a small typed
  binary encoder (:func:`encode_value` / :func:`decode_value`) supporting
  ``None``, ``bool``, ``int``, ``float``, ``str``, ``bytes``, ``list``,
  ``tuple``, ``dict`` and numpy arrays (type tags 0–10).  The encoder is
  self-describing, so format evolution only needs key-level
  compatibility.
- **fixed layout** — type tag 11, then the family's int fields packed
  in one little-endian ``struct``, then ``u32 count | count × u32
  lengths`` and the raw bytes of its arrays, back to back.  This is the
  shape of an Apache DataSketches compact image: a fixed preamble plus
  raw arrays, decoded without a per-value tag walk.  A family declares
  its :class:`Layout` as ``wire_layout`` in its own class body, and the
  layout is keyed by that exact class name, so a subclass never
  inherits it (``HyperLogLogPlusPlus`` stays generic).

==================  ===============================  ==================
family              struct (after tag 11)            arrays (length =
                                                     element count)
==================  ===============================  ==================
``KLLSketch``       k u32, seed i64, n i64,          ``compactors``: one
``ReqSketch``       rng_state u64                    float64 per level
``HyperLogLog``     p u8, seed i64                   ``registers``: one
                                                     uint8 array
==================  ===============================  ==================

:func:`load_header` reads a layout blob back into the same state dict
the generic path yields, so ``from_state_dict`` validates both alike.
A state that does not fit its layout — a missing or extra key, an int
outside its struct field (a seed ≥ 2⁶³, a boolean), an array of another
dtype or ndim, a tuple of levels — is written generically, and so is
every family without a layout.  Blobs written before the layout existed
decode unchanged: the tag, not a ``FORMAT_VERSION`` bump, selects the
form, so readers never reject an unchanged family's blob.

Downgrade note: a reader older than the fixed layout rejects a layout
blob with ``DeserializationError("unknown type tag 11")``; it never
misreads one.
"""

from __future__ import annotations

import functools
import io
import json
import struct
from itertools import accumulate

import numpy as np

from .exceptions import DeserializationError

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "Layout",
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
_T_LAYOUT = 11
_LAYOUT_TAG = bytes([_T_LAYOUT])

_TAG_LEN = struct.Struct("<BQ").pack  # type tag + u64 length
_TAG_FLOAT = struct.Struct("<Bd").pack
_U32 = struct.Struct("<I")
#: a single-array layout's length table: the count (1) and the length.
_ONE_ARRAY = struct.Struct("<II")

#: fixed layouts by exact class name (filled by ``Sketch.__init_subclass__``).
LAYOUTS: dict[str, "Layout"] = {}


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
        # With no buffer export alive, getvalue() hands back the buffer's
        # own bytes object (no copy), so this is cheap on every field.
        remaining = len(buf.getvalue()) - buf.tell()
        if n * per_item > remaining:
            raise DeserializationError(
                f"corrupt length field: {n} exceeds the {remaining} bytes remaining"
            )
    return n


# -- generic encoder: one function per exact type ------------------------------


def _enc_int(value, write) -> None:
    raw = value.to_bytes((value.bit_length() + 8) // 8 + 1, "little", signed=True)
    write(_TAG_LEN(_T_INT, len(raw)))
    write(raw)


def _enc_str(value, write) -> None:
    raw = value.encode("utf-8")
    write(_TAG_LEN(_T_STR, len(raw)))
    write(raw)


def _enc_bytes(value, write) -> None:
    write(_TAG_LEN(_T_BYTES, len(value)))
    write(value)


def _enc_ndarray(value, write) -> None:
    dtype = value.dtype.str.encode("ascii")
    write(_TAG_LEN(_T_NDARRAY, len(dtype)) + dtype)
    write(struct.pack(f"<{value.ndim + 2}Q", value.ndim, *value.shape, value.nbytes))
    write(np.ascontiguousarray(value))  # the buffer itself, in C order


def _enc_seq(tag: int):
    def encode(value, write) -> None:
        write(_TAG_LEN(tag, len(value)))
        for part in value:  # _encode inlined: this runs once per element
            (_ENCODERS.get(type(part)) or _subclass_encoder(part))(part, write)

    return encode


def _enc_dict(value, write) -> None:
    write(_TAG_LEN(_T_DICT, len(value)))
    for key, part in value.items():
        if not isinstance(key, str):
            raise TypeError(f"state dict keys must be str, got {type(key)!r}")
        _enc_str(key, write)
        (_ENCODERS.get(type(part)) or _subclass_encoder(part))(part, write)


_ENCODERS = {
    type(None): lambda value, write: write(b"\x00"),
    bool: lambda value, write: write(b"\x02" if value else b"\x01"),
    int: _enc_int,
    float: lambda value, write: write(_TAG_FLOAT(_T_FLOAT, value)),
    str: _enc_str,
    bytes: _enc_bytes,
    bytearray: _enc_bytes,
    np.ndarray: _enc_ndarray,
    list: _enc_seq(_T_LIST),
    tuple: _enc_seq(_T_TUPLE),
    dict: _enc_dict,
}

def _subclass_encoder(value):
    """The encoder of a subclass of an ``_ENCODERS`` type, or of a numpy scalar."""
    for base, encode in _ENCODERS.items():  # the generic format's order
        if isinstance(value, base):
            return encode
    if isinstance(value, np.integer):
        return lambda value, write: _enc_int(int(value), write)
    if isinstance(value, np.floating):
        return lambda value, write: _ENCODERS[float](float(value), write)
    raise TypeError(f"cannot serialize value of type {type(value).__name__!r}")


def _encode(value: object, write) -> None:
    (_ENCODERS.get(type(value)) or _subclass_encoder(value))(value, write)


def encode_value(value: object, out: io.BytesIO) -> None:
    """Append the typed binary encoding of ``value`` to ``out``."""
    _encode(value, out.write)


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


# -- fixed layouts ---------------------------------------------------------------


class Layout:
    """A family's fixed wire layout: int fields in one struct, one array field raw.

    Keyword arguments list the state dict's keys in order.  A ``struct``
    code (``"I"``, ``"q"``, ...) makes an int field; a dtype makes one
    1-D array field, and ``[dtype]`` a list of 1-D arrays.  Exactly one
    array field is allowed.
    """

    def __init__(self, **fields) -> None:
        self.keys = tuple(fields)
        self.names = tuple(k for k, v in fields.items() if isinstance(v, str))
        (self.key,) = (k for k, v in fields.items() if not isinstance(v, str))
        spec = fields[self.key]
        self.many = isinstance(spec, list)
        self.dtype = np.dtype(spec[0] if self.many else spec).newbyteorder("<")
        self.struct = struct.Struct("<" + "".join(fields[k] for k in self.names))
        self._at = self.keys.index(self.key)

    def fit(self, state: dict) -> tuple[bytes, list] | None:
        """``(packed struct, arrays)`` when ``state`` fits this layout, else None."""
        if len(state) != len(self.keys):
            return None
        try:
            values = [state[k] for k in self.names]
            arrays = state[self.key] if self.many else [state[self.key]]
        except KeyError:
            return None
        if self.many and type(arrays) is not list:
            return None
        for value in values:
            if type(value) is not int:
                return None
        for array in arrays:
            if (
                type(array) is not np.ndarray
                or array.ndim != 1
                or array.dtype != self.dtype
                or len(array) > 0xFFFFFFFF
            ):
                return None
        try:
            return self.struct.pack(*values), arrays
        except struct.error:
            return None

    def pack(self, state: dict, header: bytes) -> bytes | None:
        """The blob ``header`` + tag 11 + layout body, or None when ``state`` does not fit.

        One join builds it: the arrays go in as buffers, not ``tobytes()``
        copies, and the header is not concatenated on afterwards.
        """
        fit = self.fit(state)
        if fit is None:
            return None
        head, arrays = fit
        if self.many:
            table = struct.pack(f"<I{len(arrays)}I", len(arrays), *map(len, arrays))
        else:
            table = _ONE_ARRAY.pack(1, len(arrays[0]))
        try:
            return b"".join([header, _LAYOUT_TAG, head, table, *arrays])
        except TypeError:  # a strided array exports no flat buffer
            return b"".join([header, _LAYOUT_TAG, head, table, *(a.tobytes() for a in arrays)])

    def blob_nbytes(self, class_name: str, lengths: list[int]) -> int:
        """Size of a whole layout blob of ``class_name`` over arrays of ``lengths`` elements."""
        table = 4 + 4 * len(lengths)
        data = self.dtype.itemsize * sum(lengths)
        return len(_header(class_name)) + 1 + self.struct.size + table + data

    def unpack(self, data: bytes, pos: int) -> dict:
        """The state dict of the layout body at ``data[pos:]`` (after its tag)."""
        size = len(data)
        end = pos + self.struct.size + 4
        if end > size:
            raise DeserializationError("truncated fixed-layout header")
        values = self.struct.unpack_from(data, pos)
        count = _U32.unpack_from(data, end - 4)[0]
        if (count != 1 and not self.many) or 4 * count > size - end:
            raise DeserializationError(
                f"corrupt fixed layout: {count} arrays in {size - end} bytes"
            )
        lengths = struct.unpack_from(f"<{count}I", data, end)
        end += 4 * count
        total = sum(lengths)
        if total * self.dtype.itemsize != size - end:
            raise DeserializationError(
                f"corrupt fixed layout: length table claims "
                f"{total * self.dtype.itemsize} bytes, {size - end} remain"
            )
        arrays = np.frombuffer(data, self.dtype, total, end).copy()
        if self.many:
            bounds = list(accumulate(lengths, initial=0))
            arrays = [arrays[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        items = list(zip(self.names, values))
        items.insert(self._at, (self.key, arrays))
        return dict(items)


@functools.lru_cache(maxsize=256)
def _header(class_name: str) -> bytes:
    """Magic, format version and the encoded class name."""
    out = io.BytesIO()
    out.write(MAGIC)
    out.write(struct.pack("<H", FORMAT_VERSION))
    encode_value(class_name, out)
    return out.getvalue()


def encoded_nbytes(value: object) -> int:
    """Exact size of :func:`encode_value`'s output, without building it.

    Runs the encoder into a writer that only counts: arrays hand over
    their buffers, so sizing a sketch's state copies no data.  This is
    the engine behind the ``memory_footprint()`` protocol's serde-size
    fallback.
    """
    sizes = []
    _encode(value, lambda chunk: sizes.append(memoryview(chunk).nbytes))
    return sum(sizes)


def blob_nbytes(class_name: str, state: dict) -> int:
    """Exact ``len(dump_sketch(class_name, state))``; arrays are sized, not copied."""
    layout = LAYOUTS.get(class_name)
    fit = None if layout is None else layout.fit(state)
    if fit is not None:
        return layout.blob_nbytes(class_name, [len(array) for array in fit[1]])
    return len(_header(class_name)) + encoded_nbytes(state)


#: Mersenne Twister state length: 624 state words plus the position.
_MT_STATE_WORDS = 625


def pack_rng_state(state: tuple) -> tuple:
    """Encode ``random.Random.getstate()`` as ``(version, uint32 words, gauss_next)``.

    KLL/REQ write an int coin state; this packs the MT state of Morris
    and the reservoirs, which :func:`unpack_rng_state` reads back (as it
    does the MT state of legacy KLL/REQ blobs).  The Mersenne Twister
    state is ``(version, (624 words + position), gauss_next)``.  The 625
    words travel as one ``uint32`` ndarray — a single tagged buffer on
    the wire instead of 625 separately tagged ints, which is what makes
    a persisted randomized sketch cheap to encode and decode.  No string
    round-trip, no ``eval``.
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
    """Serialize a sketch's state dict under the versioned header.

    The family's fixed layout when it has one and ``state`` fits it,
    the generic typed encoding otherwise.
    """
    layout = LAYOUTS.get(class_name)
    header = _header(class_name)
    blob = None if layout is None else layout.pack(state, header)
    if blob is not None:
        return blob
    out = io.BytesIO()
    out.write(header)
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
    pos = buf.tell()
    if data[pos : pos + 1] == _LAYOUT_TAG:
        layout = LAYOUTS.get(class_name)
        if layout is None:
            raise DeserializationError(
                f"type tag {_T_LAYOUT} under {class_name!r}, which has no fixed layout"
            )
        return class_name, layout.unpack(data, pos + 1)
    state = decode_value(buf)
    if not isinstance(state, dict):
        raise DeserializationError("corrupt payload: state is not a dict")
    trailing = len(data) - buf.tell()
    if trailing:
        raise DeserializationError(f"corrupt payload: {trailing} trailing bytes")
    return class_name, state
