"""Append-only segment files: the on-disk unit of the sketch store.

A segment is one file holding a run of *window records* — per-window
telemetry partials (counter deltas, gauge last-values, serde-encoded
sketch partials) keyed by ``(metric, labels)`` — under a versioned
header, with an optional in-file key index written when the segment is
sealed.  The layout is designed so a crash mid-flush can never make a
segment unreadable:

``header``
    ``b"RSG1"`` | format version (u16) | decay level (u16) |
    reserved (u32) — 12 bytes.
``records``
    ``type (u8) | payload length (u32) | crc32 (u32) | payload``.
    Window payloads are the :mod:`repro.core.serde` typed binary
    encoding of ``{"start", "end", "series": [...]}``; each series
    entry is ``{"name", "labels", "kind", "value" | "blob"}``.
``index + footer`` (sealed segments only)
    One index record (type 2) mapping every ``(name, labels)`` key to
    its window-record offsets, then a fixed 12-byte footer
    ``index offset (u64) | b"RSGX"`` — readers check the footer first
    and fall back to a sequential scan when it is absent (unsealed or
    crashed segment).  The index also carries an optional
    ``"windows"`` entry — parallel ``offset`` (int64), ``start`` and
    ``end`` (float64) arrays, one row per window record — so a
    time-range read skips records outside its range without decoding
    them.  Readers that predate the key ignore it; indexes without it
    fall back to decode-then-filter.

Every record carries its own CRC32, so a torn tail write (partial
frame, partial payload, garbage after a crash) truncates the readable
record stream instead of corrupting it: :meth:`SegmentReader.scan`
stops cleanly at the first frame that fails validation and reports the
number of bytes it had to abandon (:attr:`SegmentReader.tail_garbage`).
"""

from __future__ import annotations

import io
import math
import os
import struct
import zlib

import numpy as np

from ..core.exceptions import DeserializationError
from ..core.serde import decode_value, encode_value

__all__ = ["SegmentReader", "SegmentWriter", "series_key"]

SEGMENT_MAGIC = b"RSG1"
FOOTER_MAGIC = b"RSGX"
SEGMENT_VERSION = 1

#: record types.
REC_WINDOW = 1
REC_INDEX = 2

_HEADER = struct.Struct("<HHI")  # version, level, reserved
_FRAME = struct.Struct("<BII")  # type, payload length, crc32
_FOOTER = struct.Struct("<Q4s")  # index offset, footer magic

HEADER_SIZE = len(SEGMENT_MAGIC) + _HEADER.size
FRAME_SIZE = _FRAME.size
FOOTER_SIZE = _FOOTER.size

#: hard cap on one record payload; a corrupt length field must not
#: drive a multi-gigabyte allocation.
MAX_RECORD_BYTES = 1 << 30


def series_key(name: str, labels: dict) -> tuple:
    """Canonical ``(name, sorted-labels-tuple)`` identity of one series."""
    return (name, tuple(sorted((str(k), str(v)) for k, v in labels.items())))


def _encode_record(record: dict) -> bytes:
    out = io.BytesIO()
    encode_value(record, out)
    return out.getvalue()


def _frame(rec_type: int, payload: bytes) -> bytes:
    return _FRAME.pack(rec_type, len(payload), zlib.crc32(payload)) + payload


def _windows_of(value: object, n_records: int) -> dict[int, tuple[float, float]]:
    """Decode an index's ``"windows"`` entry; ``{}`` when absent or malformed."""
    if not isinstance(value, dict):
        return {}
    columns = [value.get(name) for name in ("offset", "start", "end")]
    if not all(
        isinstance(col, np.ndarray) and col.ndim == 1 and len(col) == n_records
        for col in columns
    ):
        return {}
    offsets, starts, ends = (col.tolist() for col in columns)
    return {int(o): (float(s), float(e)) for o, s, e in zip(offsets, starts, ends)}


class SegmentWriter:
    """Appends window records to one segment file.

    Writers are single-owner (the store serializes access); ``append``
    buffers through the OS file object, :meth:`flush` pushes to the
    kernel (``fsync=True`` for durability past a host crash), and
    :meth:`seal` writes the key index plus footer and closes the file —
    after which the segment is immutable.
    """

    def __init__(self, path: str, level: int = 0) -> None:
        self.path = path
        self.level = int(level)
        self._file = open(path, "xb")
        self._file.write(SEGMENT_MAGIC)
        self._file.write(_HEADER.pack(SEGMENT_VERSION, self.level, 0))
        self.nbytes = HEADER_SIZE
        self.n_records = 0
        self.start: float | None = None
        self.end: float | None = None
        # key -> {"kind": str, "offsets": [int, ...]} in first-seen order.
        self._index: dict[tuple, dict] = {}
        # (offset, start, end) of every record, in append order.
        self._windows: list[tuple[int, float, float]] = []
        self._reader: SegmentReader | None = None
        self._sealed = False

    @property
    def sealed(self) -> bool:
        return self._sealed

    def append(self, start: float, end: float, series: list[dict]) -> int:
        """Write one window record; returns its file offset."""
        if self._file is None:
            raise ValueError(f"segment {self.path} is closed")
        record = {"start": float(start), "end": float(end), "series": series}
        payload = _encode_record(record)
        offset = self.nbytes
        data = _frame(REC_WINDOW, payload)
        self._file.write(data)
        self.nbytes += len(data)
        self.n_records += 1
        self.start = record["start"] if self.start is None else min(self.start, record["start"])
        self.end = record["end"] if self.end is None else max(self.end, record["end"])
        self._windows.append((offset, record["start"], record["end"]))
        self._reader = None
        for entry in series:
            key = series_key(entry["name"], entry.get("labels", {}))
            slot = self._index.get(key)
            if slot is None:
                slot = {"kind": entry.get("kind", "sketch"), "offsets": []}
                self._index[key] = slot
            slot["offsets"].append(offset)
        return offset

    def flush(self, fsync: bool = False) -> None:
        """Push buffered records to the OS (and to disk when ``fsync``)."""
        if self._file is None:
            return
        self._file.flush()
        if fsync:
            os.fsync(self._file.fileno())

    def index(self) -> dict:
        """The key index of the records appended so far (sealed form)."""
        offsets, starts, ends = zip(*self._windows) if self._windows else ((), (), ())
        return {
            "start": self.start,
            "end": self.end,
            "n_records": self.n_records,
            "series": [
                {
                    "name": name,
                    "labels": {k: v for k, v in labels},
                    "kind": slot["kind"],
                    "offsets": slot["offsets"],
                }
                for (name, labels), slot in self._index.items()
            ],
            "windows": {
                "offset": np.array(offsets, dtype=np.int64),
                "start": np.array(starts, dtype=np.float64),
                "end": np.array(ends, dtype=np.float64),
            },
        }

    def reader(self) -> "SegmentReader":
        """A reader over every record appended so far, built from memory.

        It holds exactly what :meth:`SegmentReader.load` would parse
        from the sealed index, without touching the file; records are
        still read from disk, so unsealed writers must :meth:`flush`
        first.  Cached until the next append or the seal.
        """
        if self._reader is None:
            reader = SegmentReader(self.path)
            reader.level = self.level
            reader.sealed = self._sealed
            self._reader = reader._adopt_index(self.index())
        return self._reader

    def seal(self, fsync: bool = False) -> None:
        """Write the key index and footer, then close (idempotent)."""
        if self._file is None:
            return
        index_offset = self.nbytes
        data = _frame(REC_INDEX, _encode_record(self.index()))
        data += _FOOTER.pack(index_offset, FOOTER_MAGIC)
        self._file.write(data)
        self.nbytes += len(data)
        self.flush(fsync=fsync)
        self._file.close()
        self._file = None
        self._sealed = True
        self._reader = None

    def close(self) -> None:
        """Close without sealing (the segment stays scan-readable)."""
        if self._file is not None:
            self.flush()
            self._file.close()
            self._file = None

    def __repr__(self) -> str:
        state = "sealed" if self._sealed else ("open" if self._file else "closed")
        return (
            f"SegmentWriter({os.path.basename(self.path)}, {state}, "
            f"records={self.n_records}, bytes={self.nbytes})"
        )


class SegmentReader:
    """Reads one segment file, sealed or not.

    :meth:`load` parses the header and — when the footer is present and
    valid — the key index; otherwise it falls back to one sequential
    scan to recover record offsets and the covered time range.  Either
    way the reader ends up with :attr:`start`/:attr:`end`/
    :attr:`n_records` plus a key → offsets map, so lookups by
    ``(metric, labels)`` touch only the records that carry the key, and
    — when the index lists each record's window, or the scan saw it —
    an offset → ``(start, end)`` map, so range reads touch only the
    records inside the range.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.level = 0
        self.start: float | None = None
        self.end: float | None = None
        self.n_records = 0
        self.sealed = False
        #: bytes abandoned after the last valid record (torn tail write).
        self.tail_garbage = 0
        self._index: dict[tuple, dict] = {}
        self._offsets: list[int] = []
        # offset -> (start, end); empty when the index predates it.
        self._windows: dict[int, tuple[float, float]] = {}
        self._loaded = False

    # -- parsing ---------------------------------------------------------------

    def load(self) -> "SegmentReader":
        """Parse header + index (or scan); idempotent."""
        if self._loaded:
            return self
        with open(self.path, "rb") as fh:
            head = fh.read(HEADER_SIZE)
            if len(head) < HEADER_SIZE or head[:4] != SEGMENT_MAGIC:
                raise DeserializationError(f"{self.path}: not a repro segment file")
            version, level, _ = _HEADER.unpack(head[4:])
            if version != SEGMENT_VERSION:
                raise DeserializationError(
                    f"{self.path}: unsupported segment version {version} "
                    f"(expected {SEGMENT_VERSION})"
                )
            self.level = level
            index = self._try_footer(fh)
            if index is not None:
                self.sealed = True
                self._adopt_index(index)
            else:
                self._scan_all(fh)
        self._loaded = True
        return self

    def _adopt_index(self, index: dict) -> "SegmentReader":
        """Take range, key index and record windows from a sealed-form index."""
        self.start = index["start"]
        self.end = index["end"]
        self.n_records = index["n_records"]
        for entry in index["series"]:
            key = series_key(entry["name"], entry["labels"])
            self._index[key] = {
                "kind": entry["kind"],
                "offsets": [int(o) for o in entry["offsets"]],
            }
        seen = set()
        for slot in self._index.values():
            seen.update(slot["offsets"])
        windows = _windows_of(index.get("windows"), self.n_records)
        if seen <= windows.keys():
            self._windows = windows
            seen.update(windows)
        self._offsets = sorted(seen)
        self._loaded = True
        return self

    def _try_footer(self, fh) -> dict | None:
        """The sealed index, or None (unsealed / torn seal -> scan path)."""
        fh.seek(0, os.SEEK_END)
        size = fh.tell()
        if size < HEADER_SIZE + FOOTER_SIZE:
            return None
        fh.seek(size - FOOTER_SIZE)
        index_offset, magic = _FOOTER.unpack(fh.read(FOOTER_SIZE))
        if magic != FOOTER_MAGIC:
            return None
        if not HEADER_SIZE <= index_offset <= size - FOOTER_SIZE - FRAME_SIZE:
            return None
        fh.seek(index_offset)
        try:
            rec_type, record = self._read_frame(fh, size - FOOTER_SIZE)
        except DeserializationError:
            return None
        if rec_type != REC_INDEX or not isinstance(record, dict):
            return None
        if not {"start", "end", "n_records", "series"} <= set(record):
            return None
        return record

    def _read_frame(self, fh, limit: int) -> tuple[int, dict]:
        """Read one framed record at the current position, validating CRC."""
        at = fh.tell()
        head = fh.read(FRAME_SIZE)
        if len(head) < FRAME_SIZE:
            raise DeserializationError(f"{self.path}@{at}: truncated frame")
        rec_type, length, crc = _FRAME.unpack(head)
        if rec_type not in (REC_WINDOW, REC_INDEX):
            raise DeserializationError(f"{self.path}@{at}: unknown record type {rec_type}")
        if length > MAX_RECORD_BYTES or fh.tell() + length > limit:
            raise DeserializationError(f"{self.path}@{at}: record overruns the file")
        payload = fh.read(length)
        if len(payload) < length:
            raise DeserializationError(f"{self.path}@{at}: truncated payload")
        if zlib.crc32(payload) != crc:
            raise DeserializationError(f"{self.path}@{at}: payload fails CRC32")
        record = decode_value(io.BytesIO(payload))
        if not isinstance(record, dict):
            raise DeserializationError(f"{self.path}@{at}: record is not a dict")
        return rec_type, record

    def _scan_all(self, fh) -> None:
        """Sequential recovery scan: index every valid record, stop at the tear."""
        fh.seek(0, os.SEEK_END)
        size = fh.tell()
        fh.seek(HEADER_SIZE)
        while fh.tell() < size:
            offset = fh.tell()
            try:
                rec_type, record = self._read_frame(fh, size)
            except DeserializationError:
                self.tail_garbage = size - offset
                break
            if rec_type != REC_WINDOW:
                continue
            self.n_records += 1
            self._offsets.append(offset)
            start, end = float(record["start"]), float(record["end"])
            self._windows[offset] = (start, end)
            self.start = start if self.start is None else min(self.start, start)
            self.end = end if self.end is None else max(self.end, end)
            for entry in record.get("series", []):
                key = series_key(entry["name"], entry.get("labels", {}))
                slot = self._index.get(key)
                if slot is None:
                    slot = {"kind": entry.get("kind", "sketch"), "offsets": []}
                    self._index[key] = slot
                slot["offsets"].append(offset)

    # -- access ----------------------------------------------------------------

    def keys(self) -> list[tuple]:
        """Every ``(name, labels-tuple)`` key present, with its kind."""
        self.load()
        return list(self._index)

    def kind_of(self, key: tuple) -> str | None:
        self.load()
        slot = self._index.get(key)
        return slot["kind"] if slot else None

    def offsets_for(self, key: tuple) -> list[int]:
        """Window-record offsets carrying ``key`` (empty when absent)."""
        self.load()
        slot = self._index.get(key)
        return list(slot["offsets"]) if slot else []

    def read_at(self, fh, offset: int) -> dict:
        """Decode the window record at ``offset`` from an open handle."""
        fh.seek(0, os.SEEK_END)
        size = fh.tell()
        limit = size - FOOTER_SIZE if self.sealed else size
        fh.seek(offset)
        rec_type, record = self._read_frame(fh, limit)
        if rec_type != REC_WINDOW:
            raise DeserializationError(f"{self.path}@{offset}: not a window record")
        return record

    def records(
        self,
        offsets: list[int] | None = None,
        since: float = -math.inf,
        until: float = math.inf,
    ):
        """Yield ``(offset, record)`` for the given offsets (default: all).

        Records whose window is known to lie outside ``[since, until)``
        are skipped without being read; records of an index that does
        not list windows are all read, and the caller filters them.
        """
        self.load()
        wanted = self._offsets if offsets is None else sorted(set(offsets))
        if self._windows:
            windows = self._windows
            wanted = [
                offset
                for offset in wanted
                if offset not in windows
                or (windows[offset][1] > since and windows[offset][0] < until)
            ]
        if not wanted:
            return
        with open(self.path, "rb") as fh:
            for offset in wanted:
                yield offset, self.read_at(fh, offset)

    def overlaps(self, since: float, until: float) -> bool:
        """Whether any record's window can intersect ``[since, until)``."""
        self.load()
        if self.start is None or self.end is None:
            return False
        return self.end > since and self.start < until

    def __repr__(self) -> str:
        state = "sealed" if self.sealed else "unsealed"
        return (
            f"SegmentReader({os.path.basename(self.path)}, {state}, "
            f"records={self.n_records}, level={self.level})"
        )
