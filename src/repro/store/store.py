"""`SketchStore`: a time-partitioned, durable store for sketch partials.

The persistence layer under the telemetry timeline (the paper's "huge
numbers of sketches in parallel for GROUP BY" deployment, made
durable): window partials keyed by ``(metric, group-labels, window)``
land in append-only :mod:`segment <repro.store.segment>` files
partitioned by time, and arbitrary time-range + GROUP BY queries are
answered by ``merge_many``-folding the covered window partials — KLL
merges carry no error inflation, so a quantile read over six hours of
persisted windows has the same rank guarantee as a live histogram fed
those hours' raw observations.

- :meth:`SketchStore.append` writes one window record (counter deltas,
  gauge last-values, live sketches serialized through the serde wire
  format); the active segment rolls when a window crosses the
  ``partition_seconds`` boundary, and sealed segments gain an in-file
  key index for label lookup.
- :meth:`SketchStore.query` folds every covered window for one metric
  into a :class:`~repro.obs.RangeResult`; ``group_by="label"``
  partitions the fold by that label's value — the GROUP BY read path.
- :meth:`SketchStore.iter_windows` replays windows oldest-first (the
  rehydration path behind
  :meth:`~repro.obs.TimelineRecorder.attach_store`).
- A reopened store (``SketchStore(same_path)``) recovers sealed
  segments through their indexes and crashed/unsealed segments through
  a CRC-validated scan that drops only the torn tail record.

Every write and read is counted in ``repro_store_*`` metrics, so the
store's own write amplification and query traffic show up on the very
dashboard it persists.
"""

from __future__ import annotations

import math
import os
import re
import threading
import time
from typing import Any, Callable, Iterable

from ..core.base import Sketch, sketch_registry
from ..core.exceptions import DeserializationError
from ..core.serde import dump_sketch, load_header
from ..obs.registry import MetricsRegistry, get_registry
from ..obs.timeline import RangeResult
from .segment import SegmentReader, SegmentWriter, series_key

__all__ = ["SketchStore"]

#: default time-partition width: one segment file per minute of windows.
DEFAULT_PARTITION_SECONDS = 60.0

_SEGMENT_RE = re.compile(r"^seg-L(\d+)-(\d+)-(\d+)\.rseg$")

#: series kinds a record may carry.
KINDS = ("counter", "gauge", "histogram", "sketch")


def encode_partial(sketch: Sketch) -> bytes:
    """Serialize a sketch partial without re-entering the obs hooks.

    The store persisting telemetry must not pollute the registry it
    persists (every flush would otherwise count as ``to_bytes`` traffic
    and show up as new per-window series), so this goes straight to
    :func:`~repro.core.serde.dump_sketch` rather than
    ``sketch.to_bytes()``.
    """
    return dump_sketch(type(sketch).__name__, sketch.state_dict())


def decode_partial(blob: bytes) -> Sketch:
    """Revive a persisted sketch partial (hook-free, like :func:`encode_partial`)."""
    class_name, state = load_header(blob)
    cls = sketch_registry.get(class_name)
    if cls is None:
        raise DeserializationError(f"unknown sketch class {class_name!r}")
    try:
        return cls.from_state_dict(state)
    except DeserializationError:
        raise
    except Exception as exc:
        raise DeserializationError(
            f"corrupt {class_name} state: {type(exc).__name__}: {exc}"
        ) from exc


def fold_partials(parts: list):
    """k-way fold of sketch partials via ``_merge_many_impl`` when available.

    Families without a vectorized kernel fold pairwise into the first
    part (queries revive fresh copies from disk, so mutation is safe).
    Returns None for an empty list.
    """
    parts = [p for p in parts if p is not None]
    if not parts:
        return None
    if len(parts) == 1:
        return parts[0]
    cls = type(parts[0])
    impl = getattr(cls, "_merge_many_impl", None)
    if impl is not None:
        return impl(parts)
    first = parts[0]
    for other in parts[1:]:
        first.merge(other)
    return first


class SketchStore:
    """Durable, time-partitioned window-partial store.

    Parameters
    ----------
    path:
        Directory for the segment files (created if missing).  Opening
        an existing directory recovers every segment in it — sealed
        ones through their in-file index, crashed ones through the
        tail-tolerant scan — and continues appending into a fresh
        segment (existing files are never appended to).
    partition_seconds:
        Time width of one segment: the active segment seals and a new
        one opens when an appended window's start crosses the current
        partition boundary.
    registry:
        Registry for the ``repro_store_*`` counters; None resolves the
        process-global one live (the :class:`~repro.obs.Tracer`
        drop-counter convention).
    fsync:
        When True every flush fsyncs, making each appended window
        durable against host crashes (default False: durable against
        process crashes only).
    clock:
        Epoch-seconds source (injectable for deterministic tests).

    A single store instance is thread-safe (one internal lock covers
    appends, queries, and compaction swaps); one *directory* must be
    owned by one live store instance.
    """

    def __init__(
        self,
        path: str,
        partition_seconds: float = DEFAULT_PARTITION_SECONDS,
        registry: MetricsRegistry | None = None,
        fsync: bool = False,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if partition_seconds <= 0:
            raise ValueError(f"partition_seconds must be > 0, got {partition_seconds}")
        self.path = os.fspath(path)
        self.partition_seconds = float(partition_seconds)
        self.fsync = bool(fsync)
        self._registry = registry
        self._clock = clock
        self._lock = threading.RLock()
        self._segments: list[SegmentReader] = []
        self._active: SegmentWriter | None = None
        self._partition_start: float | None = None
        self._seq = 0
        os.makedirs(self.path, exist_ok=True)
        self._recover()

    # -- metrics ---------------------------------------------------------------

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

    def _count(self, name: str, help: str, amount: float = 1.0, **labels: str) -> None:
        self.registry.counter(name, help, **labels).inc(amount)

    # -- recovery --------------------------------------------------------------

    def _recover(self) -> None:
        """Load every segment already on disk (oldest partition first)."""
        found = []
        for entry in os.listdir(self.path):
            match = _SEGMENT_RE.match(entry)
            if not match:
                continue
            seq = int(match.group(3))
            self._seq = max(self._seq, seq + 1)
            found.append((int(match.group(2)), seq, entry))
        for _, _, entry in sorted(found):
            reader = SegmentReader(os.path.join(self.path, entry))
            try:
                reader.load()
            except DeserializationError:
                # Not salvageable even by the scan (bad header); leave
                # the file alone but serve without it.
                self._count(
                    "repro_store_segments_unreadable_total",
                    "Segment files skipped at open (bad header/version).",
                )
                continue
            if reader.tail_garbage:
                self._count(
                    "repro_store_tail_bytes_dropped_total",
                    "Bytes abandoned after the last valid record "
                    "(torn tail writes recovered at open).",
                    reader.tail_garbage,
                )
            self._segments.append(reader)

    # -- writing ---------------------------------------------------------------

    def _segment_path(self, level: int, start: float) -> str:
        name = f"seg-L{level}-{max(0, int(start * 1000)):013d}-{self._seq:06d}.rseg"
        self._seq += 1
        return os.path.join(self.path, name)

    def _roll(self, start: float) -> None:
        """Ensure the active segment covers the partition holding ``start``."""
        if (
            self._active is not None
            and self._partition_start is not None
            and start < self._partition_start + self.partition_seconds
        ):
            return
        self.seal_active()
        self._partition_start = (
            math.floor(start / self.partition_seconds) * self.partition_seconds
        )
        self._active = SegmentWriter(self._segment_path(0, start), level=0)
        self._count(
            "repro_store_segments_created_total",
            "Segment files opened for appending.",
        )

    def append(self, start: float, end: float, series: Iterable[dict]) -> int:
        """Persist one window of series partials; returns series written.

        Each series entry is ``{"name", "labels", "kind", ...}`` with
        the payload under ``"value"`` (counter delta / gauge
        last-value), ``"sketch"`` (a live sketch, serialized here), or
        ``"blob"`` (an already-encoded partial).  Entries are
        normalized onto the wire form; unknown kinds raise
        ``ValueError`` before anything is written.
        """
        if end <= start:
            raise ValueError(f"window end must be > start, got [{start}, {end})")
        encoded = []
        for entry in series:
            kind = entry.get("kind", "sketch")
            if kind not in KINDS:
                raise ValueError(f"unknown series kind {kind!r} for {entry.get('name')!r}")
            wire: dict[str, Any] = {
                "name": str(entry["name"]),
                "labels": {str(k): str(v) for k, v in (entry.get("labels") or {}).items()},
                "kind": kind,
            }
            if kind in ("counter", "gauge"):
                wire["value"] = float(entry["value"])
            elif "blob" in entry:
                wire["blob"] = bytes(entry["blob"])
            else:
                wire["blob"] = encode_partial(entry["sketch"])
            encoded.append(wire)
        with self._lock:
            self._roll(float(start))
            before = self._active.nbytes
            self._active.append(float(start), float(end), encoded)
            written = self._active.nbytes - before
        self._count("repro_store_appends_total", "Window records appended.")
        self._count(
            "repro_store_series_total", "Series partials appended.", len(encoded)
        )
        self._count(
            "repro_store_bytes_written_total", "Bytes appended to segment files.",
            written,
        )
        return len(encoded)

    def flush(self, fsync: bool | None = None) -> None:
        """Flush the active segment (``fsync`` overrides the store default)."""
        with self._lock:
            if self._active is not None:
                self._active.flush(fsync=self.fsync if fsync is None else fsync)

    def seal_active(self) -> None:
        """Seal the active segment (writes its key index) and index it."""
        with self._lock:
            writer = self._active
            self._active = None
            self._partition_start = None
            if writer is None:
                return
            if writer.n_records == 0:
                # Nothing in it: drop the empty file instead of sealing.
                writer.close()
                os.unlink(writer.path)
                return
            writer.seal(fsync=self.fsync)
            self._segments.append(writer.reader())
        self._count(
            "repro_store_segments_sealed_total",
            "Segments sealed (key index + footer written).",
        )

    def close(self) -> None:
        """Seal the active segment; the store stays readable."""
        self.seal_active()

    def __enter__(self) -> "SketchStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- reading ---------------------------------------------------------------

    def _readers(self) -> list[SegmentReader]:
        """Every readable segment, including the active one's current state.

        The active segment is served from its writer's in-memory index
        (flushed first, so every appended record is readable) instead
        of re-parsing the file; sealed readers are cached.
        """
        readers = list(self._segments)
        if self._active is not None and self._active.n_records:
            self._active.flush()
            readers.append(self._active.reader())
        readers.sort(key=lambda r: (r.start if r.start is not None else math.inf, r.path))
        return readers

    def segments(self) -> list[SegmentReader]:
        """Snapshot of the sealed segment manifest (oldest first)."""
        with self._lock:
            return sorted(
                self._segments,
                key=lambda r: (r.start if r.start is not None else math.inf, r.path),
            )

    def coverage(self) -> tuple[float, float] | None:
        """(oldest window start, newest window end) across all segments."""
        with self._lock:
            readers = self._readers()
        starts = [r.start for r in readers if r.start is not None]
        ends = [r.end for r in readers if r.end is not None]
        if not starts:
            return None
        return (min(starts), max(ends))

    def metrics(self) -> list[dict]:
        """Every persisted series: ``{name, labels, kind}`` dicts, sorted."""
        seen: dict[tuple, str] = {}
        with self._lock:
            readers = self._readers()
        for reader in readers:
            for key in reader.keys():
                seen.setdefault(key, reader.kind_of(key))
        return [
            {"name": name, "labels": dict(labels), "kind": kind}
            for (name, labels), kind in sorted(seen.items())
        ]

    def _matching_rows(
        self,
        metric: str,
        since: float,
        until: float,
        label_filter: dict[str, str],
    ):
        """Yield ``(start, end, labels-tuple, entry)`` rows, time-ordered.

        A row matches when the series name equals ``metric``, its
        labels are a superset of ``label_filter``, and its window
        overlaps ``[since, until)``.  Rows come out ordered by
        ``(window start, segment, offset)``.  Records the segment index
        places outside the range are never decoded.
        """
        wanted = set(label_filter.items())
        with self._lock:
            readers = [r for r in self._readers() if r.overlaps(since, until)]
            rows = []
            windows_read = 0
            for reader in readers:
                keys = [
                    key
                    for key in reader.keys()
                    if key[0] == metric and wanted <= set(key[1])
                ]
                if not keys:
                    continue
                offsets = sorted({o for key in keys for o in reader.offsets_for(key)})
                for offset, record in reader.records(offsets, since, until):
                    windows_read += 1
                    start, end = float(record["start"]), float(record["end"])
                    if not (end > since and start < until):
                        continue
                    for entry in record["series"]:
                        key = series_key(entry["name"], entry.get("labels", {}))
                        if key[0] == metric and wanted <= set(key[1]):
                            rows.append((start, end, key[1], entry))
        if windows_read:
            self._count(
                "repro_store_windows_read_total",
                "Window records decoded while answering queries.",
                windows_read,
            )
        rows.sort(key=lambda row: (row[0], row[1]))
        return rows

    def _fold_rows(
        self,
        metric: str,
        rows: list,
        labels: dict,
        since: float,
        until: float,
    ) -> RangeResult:
        """Fold matching rows into one :class:`~repro.obs.RangeResult`."""
        result = RangeResult(metric, "", labels, since, until)
        partials = []
        windows = set()
        for start, end, _, entry in rows:
            windows.add((start, end))
            result.start = start if result.start is None else min(result.start, start)
            result.end = end if result.end is None else max(result.end, end)
            kind = entry["kind"]
            result.kind = kind if result.kind in ("", kind) else "mixed"
            if kind == "counter":
                value = float(entry["value"])
                result.total += value
                result.values.append((start, value))
            elif kind == "gauge":
                result.values.append((start, float(entry["value"])))
            else:
                partials.append(decode_partial(entry["blob"]))
        result.n_windows = len(windows)
        result.sketch = fold_partials(partials)
        return result

    def query(
        self,
        metric: str,
        since: float | None = None,
        until: float | None = None,
        group_by: str | None = None,
        **labels: str,
    ):
        """Aggregate one metric over every persisted window in range.

        Counters sum their per-window deltas, gauges keep time-ordered
        per-window last values, sketch partials ``merge_many``-fold —
        so ``query(...).quantile(0.99)`` over persisted windows carries
        the same rank guarantee as the live timeline's range queries.

        ``labels`` filter by *subset* match (a series matches when it
        carries every given label with the given value); with
        ``group_by="label"`` the fold partitions by that label's value
        and a ``{value: RangeResult}`` dict comes back (series without
        the label are left out) — the windowed GROUP BY read.  Without
        ``group_by`` all matching series fold into one
        :class:`~repro.obs.RangeResult`.
        """
        lo = -math.inf if since is None else float(since)
        hi = math.inf if until is None else float(until)
        self._count("repro_store_queries_total", "Range/GROUP BY queries answered.")
        rows = self._matching_rows(metric, lo, hi, labels)
        if group_by is None:
            return self._fold_rows(metric, rows, labels, lo, hi)
        grouped: dict[str, list] = {}
        for row in rows:
            value = dict(row[2]).get(group_by)
            if value is not None:
                grouped.setdefault(value, []).append(row)
        return {
            value: self._fold_rows(
                metric, group_rows, {**labels, group_by: value}, lo, hi
            )
            for value, group_rows in sorted(grouped.items())
        }

    def iter_windows(
        self,
        since: float | None = None,
        until: float | None = None,
        revive: bool = True,
    ):
        """Yield persisted windows oldest-first (the replay path).

        Each item is ``{"start", "end", "series": [...]}``; with
        ``revive`` (default) sketch-kind entries carry a live
        ``"sketch"`` object instead of the raw ``"blob"``.  Windows
        come out ordered by ``(start, append order)``; records from a
        torn segment tail are already excluded by recovery.
        """
        lo = -math.inf if since is None else float(since)
        hi = math.inf if until is None else float(until)
        with self._lock:
            readers = [r for r in self._readers() if r.overlaps(lo, hi)]
        rows = []
        count = 0
        for reader in readers:
            for offset, record in reader.records(since=lo, until=hi):
                count += 1
                start, end = float(record["start"]), float(record["end"])
                if not (end > lo and start < hi):
                    continue
                rows.append((start, end, record["series"]))
        if count:
            self._count(
                "repro_store_windows_read_total",
                "Window records decoded while answering queries.",
                count,
            )
        rows.sort(key=lambda row: (row[0], row[1]))
        for start, end, series in rows:
            if revive:
                out = []
                for entry in series:
                    if entry["kind"] in ("histogram", "sketch"):
                        entry = {
                            key: value for key, value in entry.items() if key != "blob"
                        } | {"sketch": decode_partial(entry["blob"])}
                    out.append(entry)
                series = out
            yield {"start": start, "end": end, "series": series}

    # -- compaction support (used by repro.store.compact) ----------------------

    def remove_segments(self, readers: list[SegmentReader]) -> int:
        """Drop sealed segments from the manifest and delete their files.

        Returns the bytes reclaimed.  Unknown readers are ignored; the
        active segment can never be removed (it is not in the sealed
        manifest).
        """
        reclaimed = 0
        with self._lock:
            paths = {r.path for r in readers}
            keep = []
            for reader in self._segments:
                if reader.path in paths:
                    try:
                        reclaimed += os.path.getsize(reader.path)
                        os.unlink(reader.path)
                    except OSError:
                        pass
                else:
                    keep.append(reader)
            self._segments = keep
        return reclaimed

    def write_sealed_segment(self, level: int, windows: list[dict]) -> SegmentReader:
        """Write a pre-built list of windows as one sealed segment.

        ``windows`` are ``{"start", "end", "series"}`` dicts whose
        entries are already in wire form (``value``/``blob``) or carry
        live ``"sketch"`` objects.  Used by the compactor to publish
        coarsened level-N segments; the new segment joins the manifest
        atomically with respect to queries.
        """
        if not windows:
            raise ValueError("write_sealed_segment needs at least one window")
        windows = sorted(windows, key=lambda w: (w["start"], w["end"]))
        with self._lock:
            writer = SegmentWriter(
                self._segment_path(level, windows[0]["start"]), level=level
            )
            for window in windows:
                encoded = []
                for entry in window["series"]:
                    wire = {
                        "name": entry["name"],
                        "labels": dict(entry.get("labels") or {}),
                        "kind": entry["kind"],
                    }
                    if entry["kind"] in ("counter", "gauge"):
                        wire["value"] = float(entry["value"])
                    elif "blob" in entry:
                        wire["blob"] = entry["blob"]
                    else:
                        wire["blob"] = encode_partial(entry["sketch"])
                    encoded.append(wire)
                writer.append(window["start"], window["end"], encoded)
            writer.seal(fsync=self.fsync)
            reader = writer.reader()
            self._segments.append(reader)
        self._count(
            "repro_store_bytes_written_total", "Bytes appended to segment files.",
            writer.nbytes,
        )
        return reader

    # -- introspection ---------------------------------------------------------

    def total_bytes(self) -> int:
        """Bytes on disk across every segment (including the active one)."""
        with self._lock:
            total = sum(os.path.getsize(r.path) for r in self._segments)
            if self._active is not None:
                total += self._active.nbytes
            return total

    def stats(self) -> dict:
        """Store shape: segment/record/byte counts and coverage."""
        with self._lock:
            sealed = len(self._segments)
            active_records = self._active.n_records if self._active else 0
            n_records = sum(r.n_records for r in self._segments) + active_records
        coverage = self.coverage()
        return {
            "path": self.path,
            "segments": sealed + (1 if active_records else 0),
            "sealed_segments": sealed,
            "windows": n_records,
            "bytes": self.total_bytes(),
            "partition_seconds": self.partition_seconds,
            "coverage": list(coverage) if coverage else None,
        }

    def __len__(self) -> int:
        with self._lock:
            n = len(self._segments)
            if self._active is not None and self._active.n_records:
                n += 1
            return n

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"SketchStore({self.path!r}, segments={stats['segments']}, "
            f"windows={stats['windows']}, bytes={stats['bytes']})"
        )
