"""Self-sketching telemetry timeline: windowed metric history + range queries.

:mod:`repro.obs` so far exposes *instantaneous* state — ``/metrics``
renders current values, nothing answers "what was p99 ingest latency
between 12:00 and 12:05".  This module adds the time dimension, built
out of the library's own mergeable sketches (the paper's "huge numbers
of sketches in parallel" telemetry deployment, prototyped on the
telemetry plane):

- :class:`TimelineRecorder` snapshots a
  :class:`~repro.obs.MetricsRegistry` every ``interval`` seconds into
  fixed-width :class:`TimelineWindow`\\ s held in a bounded ring:
  **counters** as per-window deltas, **gauges** as last-value, and
  **histograms** as per-window KLL *partials* (while a recorder is
  attached, each :class:`~repro.obs.SketchHistogram` feeds its
  observations into a current-window sketch only, swapped out
  atomically at every tick; the histogram's cumulative sketch merges
  each closed window on its next observe or read, never on the tick).
- An arbitrary ``[t0, t1)`` range query (:meth:`TimelineRecorder.query`)
  folds the covered window partials with the k-way KLL merge kernel —
  KLL merges carry no error inflation, so ``query(...).quantile(0.99)``
  has the same rank guarantee as a live histogram over that window's
  raw stream.
- :meth:`TimelineRecorder.series` re-buckets windows onto a ``step``
  grid (counters summed, gauges last, histogram buckets merged) — the
  payload behind ``GET /timeline`` and the ``/dashboard`` sparklines
  on :class:`~repro.obs.ObsServer`.  A published window never changes,
  so it answers once: a bucket of one ring window reads the point
  fields and encoded JSON that window keeps after its first read, and
  only a bucket of several windows (or of a window read from the store)
  folds on every poll.

The recorder is **off by default**: nothing records until
:meth:`~TimelineRecorder.start` (or an explicit :meth:`tick`).  An
attached recorder adds no per-observation work — an observation enters
the window sketch instead of the cumulative one — only one merge per
closed non-empty window and histogram, on the histogram's next observe
or read.  ``scripts/check_overhead.py`` holds a recorder that was never
started under 2% and a running 1 s recorder under 5%, via the
:mod:`repro.obs.bench` paired-overhead protocol.

>>> recorder = TimelineRecorder(interval=1.0, max_windows=600)
>>> recorder.start()                       # daemon thread, ticks on boundaries
>>> result = recorder.query("repro_ingest_seconds", since=t0, until=t1)
>>> result.quantile(0.99)                  # merged from covered window partials
>>> recorder.stop()                        # idempotent; flushes the open window

The thread is a :class:`~repro.obs.ticker.Ticker`: a tick that raises
is counted in ``repro_background_errors_total`` and the next one runs.

Range queries are *window-resolution*: a window is covered when it
overlaps ``[since, until)``, so boundaries snap outward to at most one
``interval`` on each side.

With a :class:`~repro.store.SketchStore` attached
(:meth:`TimelineRecorder.attach_store`), every published window is
also written through to disk, a restart rehydrates the ring (and the
``/dashboard`` sparklines) from the store, and :meth:`~TimelineRecorder.query`
/ :meth:`~TimelineRecorder.series` with an explicit ``since`` reach past
the ring, reading only the asked-for series' rows of older windows
from the store.  Ring, store, ``/timeline`` and decay-compaction reads
all fold ``(start, end, labels, kind, value-or-partial, window)`` rows
through one function; ``window`` is the ring window that keeps the
row's answers (``None`` for a row read from the store).
"""

from __future__ import annotations

import json
import math
import threading
import time
from collections import deque
from typing import Any, Callable

from .registry import (
    Counter,
    Gauge,
    MetricsRegistry,
    SketchHistogram,
    _labels_key,
)
from .ticker import Ticker

__all__ = ["RangeResult", "TimelineRecorder", "TimelineWindow"]

#: default ring capacity: 600 windows = 10 minutes at 1 s resolution.
DEFAULT_MAX_WINDOWS = 600


class TimelineWindow:
    """One fixed-width snapshot interval ``[start, end)``.

    Built completely by the recorder's tick (while it is private),
    then published into the ring — readers never see a half-filled
    window.  ``counters`` hold per-window deltas, ``gauges`` the value
    at window close, ``histograms`` the per-window KLL partial; all
    keyed by ``(name, sorted-labels-tuple)``.

    A published window never changes, so it answers once: ``answers``
    keeps each series' one-window bucket answer (the point's fields and
    their encoded JSON) once a read asks for it, one per ``(name,
    labels)``, replaced when a histogram is asked other quantiles.  It
    is freed with the window when the ring evicts it.
    """

    __slots__ = ("index", "start", "end", "counters", "gauges", "histograms", "kinds",
                 "answers")

    def __init__(self, index: int, start: float, end: float) -> None:
        self.index = index
        self.start = start
        self.end = end
        self.counters: dict[tuple, float] = {}
        self.gauges: dict[tuple, float] = {}
        self.histograms: dict[tuple, Any] = {}
        #: key -> "counter" | "gauge" | "histogram" for every key above.
        self.kinds: dict[tuple, str] = {}
        #: this window's :meth:`~TimelineRecorder.series` answers, made
        #: by the first read that asks (None until then).
        self.answers: dict | None = None

    @property
    def width(self) -> float:
        return self.end - self.start

    def overlaps(self, since: float, until: float) -> bool:
        """Whether this window intersects the half-open range [since, until)."""
        return self.end > since and self.start < until

    def _table(self, kind: str) -> dict:
        """The dict holding series of ``kind``."""
        return self.counters if kind == "counter" else (
            self.gauges if kind == "gauge" else self.histograms
        )

    def __repr__(self) -> str:
        return (
            f"TimelineWindow(#{self.index}, [{self.start:.3f}, {self.end:.3f}), "
            f"{len(self.kinds)} series)"
        )


class RangeResult:
    """Answer to one ``[since, until)`` range query over one metric.

    ``kind`` decides which accessors are meaningful:

    - counter: :attr:`total` (sum of window deltas), :attr:`rate`;
    - gauge: :attr:`last` / :attr:`minimum` / :attr:`maximum`,
      :attr:`values` per window;
    - histogram: :meth:`quantile` / :attr:`count` on :attr:`sketch`,
      the ``merge_many`` fold of the covered window partials.

    ``start``/``end`` are the actual coverage (window-aligned, so they
    may extend past the requested range by up to one interval);
    ``n_windows`` counts the windows folded in.
    """

    __slots__ = (
        "metric", "kind", "labels", "since", "until",
        "start", "end", "n_windows", "total", "values", "sketch",
    )

    def __init__(self, metric: str, kind: str, labels: dict, since: float, until: float):
        self.metric = metric
        self.kind = kind
        self.labels = dict(labels)
        self.since = since
        self.until = until
        self.start: float | None = None
        self.end: float | None = None
        self.n_windows = 0
        self.total = 0.0
        #: per-window (window_start, value) pairs (gauge / counter kinds).
        self.values: list[tuple[float, float]] = []
        #: merged KLL over the covered windows (histogram kind; None when empty).
        self.sketch = None

    @property
    def duration(self) -> float:
        """Covered wall-clock span in seconds (0 when nothing covered)."""
        if self.start is None or self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def rate(self) -> float:
        """Counter increments per second over the covered span."""
        duration = self.duration
        return self.total / duration if duration > 0 else float("nan")

    @property
    def last(self) -> float:
        """Most recent per-window value (NaN when nothing covered)."""
        return self.values[-1][1] if self.values else float("nan")

    @property
    def minimum(self) -> float:
        return min((v for _, v in self.values), default=float("nan"))

    @property
    def maximum(self) -> float:
        return max((v for _, v in self.values), default=float("nan"))

    @property
    def count(self) -> int:
        """Observations inside the covered windows (histogram kind)."""
        return self.sketch.n if self.sketch is not None else 0

    def quantile(self, q: float) -> float:
        """q-quantile of the merged window partials (NaN when empty).

        The fold is a plain KLL merge, so the estimate carries the same
        rank-error bound as a single histogram fed the covered windows'
        raw observations.
        """
        if self.sketch is None or self.sketch.n == 0:
            return float("nan")
        return self.sketch.quantile(q)

    def __repr__(self) -> str:
        return (
            f"RangeResult({self.metric!r}, {self.kind}, windows={self.n_windows}, "
            f"[{self.since:.3f}, {self.until:.3f}))"
        )


def fold_partials(parts: list):
    """k-way fold of window partials through ``_merge_many_impl``, hook-free.

    One part comes back as is — possibly a published ring or cached store
    partial, with its read view — so callers must not mutate a fold result.
    Families without a kernel fold pairwise into a clone of the first
    part, leaving every part untouched.  None for no parts.
    """
    parts = [p for p in parts if p is not None]
    if not parts:
        return None
    if len(parts) == 1:
        return parts[0]
    impl = getattr(type(parts[0]), "_merge_many_impl", None)
    if impl is not None:
        return impl(parts)
    first = type(parts[0]).from_state_dict(parts[0].state_dict())
    for other in parts[1:]:
        first.merge(other)
    return first


def _fold_window_rows(metric: str, rows: list, labels: dict | tuple = (),
                      since: float = -math.inf, until: float = math.inf) -> RangeResult:
    """Fold time-ordered ``(start, end, labels-tuple, kind, value-or-partial, window)`` rows.

    ``window`` is the ring :class:`TimelineWindow` the row was read
    from, which holds its answers (``None`` for a store row).  Counters
    sum, gauges keep time-ordered values, partials go through
    :func:`fold_partials`; ``kind`` reads ``"mixed"`` when rows disagree
    and ``n_windows`` counts distinct windows.  The one range fold of
    the recorder, the store (GROUP BY included) and decay compaction.
    """
    result = RangeResult(metric, "", labels, since, until)
    partials = []
    windows = set()
    for start, end, _, kind, value, _ in rows:
        windows.add((start, end))
        result.start = start if result.start is None else min(result.start, start)
        result.end = end if result.end is None else max(result.end, end)
        result.kind = kind if result.kind in ("", kind) else "mixed"
        if kind == "counter":
            result.total += value
            result.values.append((start, value))
        elif kind == "gauge":
            result.values.append((start, value))
        else:
            partials.append(value)
    result.n_windows = len(windows)
    if partials:
        result.sketch = fold_partials(partials)
    return result


def _fold_point(metric: str, rows: list, quantiles: tuple) -> tuple[dict, str]:
    """``(fields, encoded)`` of the point that folds ``rows``.

    ``fields`` follow ``t`` in the point: the counter's or gauge's
    ``value``, or a histogram's ``count`` and ``quantiles``;
    ``encoded`` is their JSON as it follows ``"t": ...`` in the point's.
    """
    folded = _fold_window_rows(metric, rows)
    if folded.kind == "counter":
        fields = {"value": folded.total}
    elif folded.kind == "gauge":
        fields = {"value": folded.last}
    else:
        fields = {
            "count": folded.count,
            "quantiles": {str(q): (folded.quantile(q) if folded.count else None)
                          for q in quantiles},
        }
    return fields, json.dumps(fields)[1:]


def _answer(metric: str, rows: list, quantiles: tuple, qkey: tuple) -> tuple[dict, str]:
    """:func:`_fold_point` of one bucket; a one-window bucket's is its window's answer.

    A ring window keeps one answer per series, made on the first read
    that asks and replaced when a histogram's ``qkey`` changes; rows
    read past the ring (window ``None``) and buckets of several rows
    fold on every read.  Callers copy ``fields`` before handing it out.
    """
    if len(rows) != 1 or rows[0][5] is None:
        return _fold_point(metric, rows, quantiles)
    _, _, labels, kind, _, window = rows[0]
    if kind != "histogram":
        qkey = None  # a counter's or gauge's value does not depend on q
    answers = window.answers
    if answers is None:
        answers = window.answers = {}
    answer = answers.get((metric, labels))
    if answer is None or answer[0] != qkey:
        answer = answers[metric, labels] = (qkey, *_fold_point(metric, rows, quantiles))
    return answer[1], answer[2]


def _json_number(x) -> str:
    """``json.dumps(x)`` for a number, without the encoder for a finite float."""
    return float.__repr__(x) if type(x) is float and math.isfinite(x) else json.dumps(x)


def _points_json(points: list) -> str:
    """The JSON of a series' points from ``(t, fields, encoded)`` triples.

    Byte-identical to ``json.dumps`` of the point dicts
    :meth:`TimelineRecorder.series` returns, written from the encoded
    answers instead of re-encoding them.
    """
    return "[" + ", ".join(['{"t": ' + _json_number(t) + ", " + encoded
                            for t, _, encoded in points]) + "]"


def _object_json(obj: dict, **raw: str) -> str:
    """``json.dumps(obj)``, with the value of each key in ``raw`` written as that JSON text."""
    return "{" + ", ".join(
        json.dumps(key) + ": " + (raw[key] if key in raw else json.dumps(value))
        for key, value in obj.items()
    ) + "}"


def _point(t: float, fields: dict) -> dict:
    """A fresh point dict: no caller shares the window's answer."""
    point = {"t": t, **fields}
    if "quantiles" in fields:
        point["quantiles"] = dict(fields["quantiles"])
    return point


class TimelineRecorder(Ticker):
    """Background registry snapshotter with windowed range queries.

    Parameters
    ----------
    registry:
        The registry to record; None (default) resolves the
        process-global one live at every tick, like
        :class:`~repro.obs.ObsServer`.
    interval:
        Window width in seconds; the daemon thread ticks on wall-clock
        boundaries aligned to it.
    max_windows:
        Ring capacity — oldest windows are evicted beyond this
        (:attr:`evicted` counts them).
    clock:
        Epoch-seconds source, injectable for deterministic tests
        (drive :meth:`tick` manually instead of :meth:`start`).

    One recorder per registry: the recorder owns the histograms'
    current-window sketches, which a second concurrent recorder would
    steal on every tick.
    """

    _thread_name = "repro-obs-timeline"

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        interval: float = 1.0,
        max_windows: int = DEFAULT_MAX_WINDOWS,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        if max_windows < 1:
            raise ValueError(f"max_windows must be >= 1, got {max_windows}")
        self.interval = float(interval)
        self.max_windows = max_windows
        self._registry = registry
        self._clock = self._now = clock  # ticks keep to this clock's grid
        self._windows: list[TimelineWindow] = []
        self._lock = threading.Lock()
        self._tick_lock = threading.Lock()
        self._prev_counters: dict[tuple, float] = {}
        self._last_tick: float | None = None
        self._store = None
        #: windows dropped off the ring so far.
        self.evicted = 0
        #: ticks taken (thread or manual).
        self.ticks = 0

    # -- recording -------------------------------------------------------------

    def tick(self, now: float | None = None) -> TimelineWindow:
        """Close the current window and publish it into the ring.

        Normally driven by the background thread on interval
        boundaries; callable directly (with an explicit ``now``) for
        deterministic tests and manual flushes.  Returns the published
        window.
        """
        with self._tick_lock:
            if now is None:
                now = self._clock()
            start = self._last_tick
            if start is None or start >= now:
                start = now - self.interval
            self._last_tick = now
            window = TimelineWindow(int(math.floor(now / self.interval)), start, now)
            for metric in self.registry.iter_metrics():
                key = (metric.name, _labels_key(metric.labels))
                if isinstance(metric, SketchHistogram):
                    partial = metric._take_window()
                    if partial is None:
                        # Created since the last tick: start its window
                        # now; this window records it as empty.
                        metric._attach_window()
                        continue
                    window.histograms[key] = partial
                    window.kinds[key] = "histogram"
                elif isinstance(metric, Counter):
                    value = metric.value
                    previous = self._prev_counters.get(key, 0.0)
                    # A registry reset can only make value < previous;
                    # clamp instead of reporting a negative delta.
                    window.counters[key] = max(0.0, value - previous)
                    self._prev_counters[key] = value
                    window.kinds[key] = "counter"
                elif isinstance(metric, Gauge):
                    window.gauges[key] = metric.value
                    window.kinds[key] = "gauge"
            with self._lock:
                self._windows.append(window)
                drop = len(self._windows) - self.max_windows
                if drop > 0:
                    del self._windows[:drop]
                    self.evicted += drop
                self.ticks += 1
            if drop > 0:
                self._count_dropped(drop)
            if self._store is not None:
                self._write_through(window)
            return window

    def _count_dropped(self, n: int) -> None:
        """Surface ring evictions as a registry counter.

        ``repro_timeline_windows_dropped_total`` makes silent history
        loss visible on every ``/metrics`` scrape — the signal that
        ``max_windows`` is undersized for the retention you expect
        (or that a store should be attached to absorb the overflow).
        Unlike :attr:`evicted`, the counter is a cumulative ``_total``.
        """
        self.registry.counter(
            "repro_timeline_windows_dropped_total",
            "Timeline windows evicted from the in-memory ring.",
        ).inc(n)

    def _write_through(self, window: TimelineWindow) -> None:
        """Persist one published window into the attached store.

        Store failures (disk full, store closed underneath us) must
        never take down the tick loop: they are swallowed and counted
        in ``repro_timeline_store_write_errors_total`` instead.
        """
        series = [
            {"name": key[0], "labels": dict(key[1]), "kind": kind,
             "sketch" if kind == "histogram" else "value": window._table(kind)[key]}
            for key, kind in window.kinds.items()
        ]
        if not series:
            return
        try:
            self._store.append(window.start, window.end, series)
            self._store.flush()
        except Exception:
            self.registry.counter(
                "repro_timeline_store_write_errors_total",
                "Timeline windows that failed to persist to the attached store.",
            ).inc()

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "TimelineRecorder":
        """Open the histograms' windows and tick on ``interval`` boundaries of the clock.

        A tick that raises is counted and the next one still runs
        (:mod:`repro.obs.ticker`); :meth:`stop` flushes the open window.
        """
        return self._start(self.interval)

    def _on_start(self) -> None:
        for metric in self.registry.iter_metrics():
            if isinstance(metric, SketchHistogram):
                metric._attach_window()
        self._last_tick = self._clock()

    def _pass(self, deadline: float) -> None:
        # Stamp the tick with the grid boundary, not the post-wait
        # clock: window edges stay exact multiples of ``interval``.
        self.tick(deadline)

    def _on_stop(self) -> None:
        self.tick()  # flush the partial window
        for metric in self.registry.iter_metrics():
            if isinstance(metric, SketchHistogram):
                metric._detach_window()

    # -- durable store ---------------------------------------------------------

    @property
    def store(self):
        """The attached :class:`~repro.store.SketchStore`, or None."""
        return self._store

    def attach_store(self, store, replay: bool = True) -> "TimelineRecorder":
        """Write every published window through to ``store``.

        With ``replay=True`` (the default) and an *empty* ring, the
        most recent ``max_windows`` persisted windows are rehydrated
        into the ring first — so after a restart the ``/dashboard``
        sparklines and ring-resolution queries pick up where the dead
        process left off (``repro_store_windows_replayed_total`` counts
        them).  Only the kept windows are read and only their partials
        decoded (:meth:`SketchStore.since_for_newest`).  Once
        attached, :meth:`query` and :meth:`series` with an explicit
        ``since`` also reach past the ring into the store's older history.
        """
        with self._tick_lock:
            self._store = store
            if not replay:
                return self
            with self._lock:
                empty = not self._windows
            if not empty:
                return self
            since = store.since_for_newest(self.max_windows)
            records = store.iter_windows(since=since, revive=False)
            kept = deque(records, maxlen=self.max_windows)
            replayed = [self._window_from_record(record) for record in kept]
            with self._lock:
                if not self._windows:  # still empty: publish the history
                    self._windows = replayed
            if replayed:
                if self._last_tick is None:
                    self._last_tick = replayed[-1].end
                self.registry.counter(
                    "repro_store_windows_replayed_total",
                    "Persisted timeline windows rehydrated into the ring.",
                ).inc(len(replayed))
        return self

    def detach_store(self) -> None:
        """Stop writing through; ring contents and the store both keep their data."""
        with self._tick_lock:
            self._store = None

    def _window_from_record(self, record: dict) -> TimelineWindow:
        """Revive one raw store window record into a :class:`TimelineWindow` (replay)."""
        from ..store.store import decode_partial

        start = float(record["start"])
        end = float(record["end"])
        window = TimelineWindow(int(math.floor(end / self.interval)), start, end)
        for entry in record["series"]:
            key = (entry["name"], _labels_key(entry.get("labels", {})))
            if "blob" in entry:
                window.histograms[key] = decode_partial(entry["blob"])
                window.kinds[key] = "histogram"
            else:
                window._table(entry["kind"])[key] = float(entry["value"])
                window.kinds[key] = entry["kind"]
        return window

    # -- introspection ---------------------------------------------------------

    def windows(self, since: float | None = None, until: float | None = None):
        """Ring windows (oldest first) overlapping ``[since, until)``.

        The ring only: history older than it is read through
        :meth:`query` and :meth:`series`.
        """
        with self._lock:
            windows = list(self._windows)
        if since is None and until is None:
            return windows
        lo = -math.inf if since is None else since
        hi = math.inf if until is None else until
        return [w for w in windows if w.overlaps(lo, hi)]

    def coverage(self) -> tuple[float, float] | None:
        """(oldest window start, newest window end), or None when empty."""
        with self._lock:
            if not self._windows:
                return None
            return (self._windows[0].start, self._windows[-1].end)

    def metrics(self) -> list[dict]:
        """Every series seen in the ring: ``{name, labels, kind}`` dicts."""
        return self._series_of(None)

    def _series_of(self, metric: str | None) -> list[dict]:
        """:meth:`metrics`, sorted the same way, of one metric's series (None: all)."""
        seen: dict[tuple, str] = {}
        for window in self.windows():
            for key, kind in window.kinds.items():
                if metric is None or key[0] == metric:
                    seen.setdefault(key, kind)
        return [
            {"name": name, "labels": dict(labels), "kind": kind}
            for (name, labels), kind in sorted(seen.items())
        ]

    def __len__(self) -> int:
        return len(self._windows)

    # -- queries ---------------------------------------------------------------

    def _rows(self, metric: str, since, until, labels: dict) -> tuple[tuple, list]:
        """``(labels-tuple, fold rows)`` of one series over ``[since, until)``.

        With a store and an explicit ``since``, the store's rows of
        windows older than the ring come first, then the ring's (ring
        windows shadow their persisted copies).  ``labels`` is the exact
        labelset; without it the labelset is inferred when unambiguous,
        else ``ValueError``.
        """
        lo = -math.inf if since is None else float(since)
        hi = math.inf if until is None else float(until)
        with self._lock:
            ring = list(self._windows)
        wanted = _labels_key(labels) if labels else None
        rows = []
        store = self._store
        if store is not None and since is not None:
            cutoff = ring[0].start if ring else hi
            if lo < cutoff:
                rows = [
                    row for row in store._matching_rows(metric, lo, min(hi, cutoff), labels)
                    if wanted is None or row[2] == wanted
                ]
        for window in ring:
            if window.end <= lo or window.start >= hi:
                continue
            keys = [(metric, wanted)] if wanted else [k for k in window.kinds if k[0] == metric]
            for key in keys:
                kind = window.kinds.get(key)
                if kind is not None:
                    value = window._table(kind)[key]
                    rows.append((window.start, window.end, key[1], kind, value, window))
        if wanted is None:
            candidates = sorted({row[2] for row in rows})
            if len(candidates) > 1:
                raise ValueError(
                    f"metric {metric!r} has {len(candidates)} labelsets "
                    f"{[dict(c) for c in candidates]}; pass labels to disambiguate"
                )
            wanted = candidates[0] if candidates else ()
        return wanted, rows

    def query(
        self,
        metric: str,
        since: float | None = None,
        until: float | None = None,
        **labels: str,
    ) -> RangeResult:
        """Aggregate one metric over every window overlapping [since, until).

        Counters sum their per-window deltas, gauges keep per-window
        last values, histograms fold their window partials with the
        k-way KLL merge — so ``query(...).quantile(0.99)`` is the
        p99 *of the observations inside the covered windows*, with the
        live histogram's rank guarantee.  Defaults cover the whole
        ring; an explicit ``since`` reaches past it into an attached
        store.  Unknown metrics yield an empty result (``n_windows=0``).
        """
        lo = -math.inf if since is None else float(since)
        hi = math.inf if until is None else float(until)
        wanted, rows = self._rows(metric, since, until, labels)
        return _fold_window_rows(metric, rows, wanted, lo, hi)

    def _answers(self, metric: str, since, until, step, quantiles: tuple,
                 labels: dict) -> tuple[tuple, list, list]:
        """``(labels-tuple, rows, points)`` of one series from one row gather.

        ``rows`` are :meth:`_rows`' (the range fold's input); ``points``
        hold ``(t, fields, encoded)`` per non-empty bucket of the
        ``step`` grid, oldest first (:func:`_answer`: a one-window
        bucket of the ring reads its window's answer).  ``fields`` are
        shared with the window and must be copied before they are
        handed out.
        """
        step = self.interval if step is None else step
        if step <= 0:
            raise ValueError(f"step must be > 0, got {step}")
        wanted, rows = self._rows(metric, since, until, labels)
        buckets: dict[int, list] = {}
        for row in rows:
            buckets.setdefault(int(math.floor(row[0] / step)), []).append(row)
        qkey = tuple(str(q) for q in quantiles)
        points = [(index * step, *_answer(metric, buckets[index], quantiles, qkey))
                  for index in sorted(buckets)]
        return wanted, rows, points

    def series(
        self,
        metric: str,
        since: float | None = None,
        until: float | None = None,
        step: float | None = None,
        quantiles: tuple[float, ...] = (0.5, 0.99),
        **labels: str,
    ) -> list[dict]:
        """Per-step points for one metric (the ``/timeline`` JSON body).

        Windows are bucketed onto a grid of width ``step`` (default:
        the recorder interval) aligned to the epoch and each bucket is
        folded like :meth:`query`: counter points carry the summed
        deltas, gauge points the last value, histogram points ``count``
        plus the requested ``quantiles``.  Each point is
        ``{"t": bucket_start, ...}``; empty buckets are omitted.  A
        bucket of one window reads the answer that window keeps after
        its first read; the points returned are fresh dicts.
        """
        _, _, points = self._answers(metric, since, until, step, quantiles, labels)
        return [_point(t, fields) for t, fields, _ in points]

    def metric_json(
        self,
        metric: str,
        since: float | None = None,
        until: float | None = None,
        step: float | None = None,
        quantiles: tuple[float, ...] = (0.5, 0.99),
    ) -> str | None:
        """The ``GET /timeline?metric=`` body as JSON text (None: no such metric).

        One entry per labelset of ``metric`` in the ring: its
        :meth:`series` points plus a ``range`` block folded like
        :meth:`query`, both from one row gather.  The points are written
        from the encoded answers their windows keep, byte-identical to
        ``json.dumps`` of what :meth:`series` returns.
        """
        entries = self._series_of(metric)
        if not entries:
            return None
        lo = -math.inf if since is None else float(since)
        hi = math.inf if until is None else float(until)
        series = []
        for entry in entries:
            wanted, rows, points = self._answers(metric, since, until, step, quantiles,
                                                 entry["labels"])
            result = _fold_window_rows(metric, rows, wanted, lo, hi)
            block = {
                "since": since,
                "until": until,
                "start": result.start,
                "end": result.end,
                "n_windows": result.n_windows,
            }
            if entry["kind"] == "counter":
                block["total"] = result.total
                rate = result.rate
                block["rate"] = None if rate != rate else rate
            elif entry["kind"] == "gauge":
                block["last"] = None if result.last != result.last else result.last
            else:
                block["count"] = result.count
                block["quantiles"] = {
                    str(q): (result.quantile(q) if result.count else None)
                    for q in quantiles
                }
            item = {**entry, "points": None, "range": block}
            series.append(_object_json(item, points=_points_json(points)))
        return _object_json({"metric": metric, "series": None},
                            series="[" + ", ".join(series) + "]")

    def as_dict(
        self,
        since: float | None = None,
        until: float | None = None,
        step: float | None = None,
        quantiles: tuple[float, ...] = (0.5, 0.99),
    ) -> dict:
        """Full timeline snapshot: meta plus every series (dashboard payload)."""
        coverage = self.coverage()
        return {
            "interval": self.interval,
            "max_windows": self.max_windows,
            "windows": len(self),
            "ticks": self.ticks,
            "evicted": self.evicted,
            "running": self.running,
            "coverage": list(coverage) if coverage else None,
            "store": self._store.stats() if self._store is not None else None,
            "metrics": [
                {**entry, "points": self.series(entry["name"], since=since, until=until,
                                                step=step, quantiles=quantiles,
                                                **entry["labels"])}
                for entry in self.metrics()
            ],
        }

    def __repr__(self) -> str:
        state = "running" if self.running else "stopped"
        return (
            f"TimelineRecorder({state}, interval={self.interval}s, "
            f"windows={len(self)}/{self.max_windows})"
        )
