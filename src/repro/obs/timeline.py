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
  **histograms** as per-window KLL *partials* (each
  :class:`~repro.obs.SketchHistogram` mirrors its observations into a
  current-window sketch, swapped out atomically at every tick).
- An arbitrary ``[t0, t1)`` range query (:meth:`TimelineRecorder.query`)
  folds the covered window partials with the k-way KLL merge kernel —
  KLL merges carry no error inflation, so ``query(...).quantile(0.99)``
  has the same rank guarantee as a live histogram over that window's
  raw stream.
- :meth:`TimelineRecorder.series` re-buckets windows onto a ``step``
  grid (counters summed, gauges last, histogram buckets merged) — the
  payload behind ``GET /timeline`` and the ``/dashboard`` sparklines
  on :class:`~repro.obs.ObsServer`.

The recorder is **off by default**: nothing records until
:meth:`~TimelineRecorder.start` (or an explicit :meth:`tick`), and the
per-observation mirror cost exists only while a recorder is attached —
``scripts/check_timeline_overhead.py`` holds the no-recorder path
under 2% and a running 1 s recorder under 5%, via the
:mod:`repro.obs.bench` paired-overhead protocol.

>>> recorder = TimelineRecorder(interval=1.0, max_windows=600)
>>> recorder.start()                       # daemon thread, ticks on boundaries
>>> result = recorder.query("repro_ingest_seconds", since=t0, until=t1)
>>> result.quantile(0.99)                  # merged from covered window partials
>>> recorder.stop()                        # idempotent; flushes the open window

Range queries are *window-resolution*: a window is covered when it
overlaps ``[since, until)``, so boundaries snap outward to at most one
``interval`` on each side.

With a :class:`~repro.store.SketchStore` attached
(:meth:`TimelineRecorder.attach_store`), every published window is
also written through to disk, a restart rehydrates the ring (and the
``/dashboard`` sparklines) from the store, and range reads with an
explicit ``since`` reach past the ring into persisted history.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Any, Callable

from .registry import (
    Counter,
    Gauge,
    MetricsRegistry,
    SketchHistogram,
    _labels_key,
    get_registry,
)

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
    """

    __slots__ = ("index", "start", "end", "counters", "gauges", "histograms", "kinds")

    def __init__(self, index: int, start: float, end: float) -> None:
        self.index = index
        self.start = start
        self.end = end
        self.counters: dict[tuple, float] = {}
        self.gauges: dict[tuple, float] = {}
        self.histograms: dict[tuple, Any] = {}
        #: key -> "counter" | "gauge" | "histogram" for every key above.
        self.kinds: dict[tuple, str] = {}

    @property
    def width(self) -> float:
        return self.end - self.start

    def overlaps(self, since: float, until: float) -> bool:
        """Whether this window intersects the half-open range [since, until)."""
        return self.end > since and self.start < until

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


class TimelineRecorder:
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
    current-window mirrors, which a second concurrent recorder would
    steal on every tick.
    """

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
        self._clock = clock
        self._windows: list[TimelineWindow] = []
        self._lock = threading.Lock()
        self._tick_lock = threading.Lock()
        self._prev_counters: dict[tuple, float] = {}
        self._last_tick: float | None = None
        self._thread: threading.Thread | None = None
        self._stop_event = threading.Event()
        self._store = None
        #: windows dropped off the ring so far.
        self.evicted = 0
        #: ticks taken (thread or manual).
        self.ticks = 0

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

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
                        # Created since the last tick: start mirroring
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
        series = []
        for key, kind in window.kinds.items():
            name, labels = key
            entry: dict[str, Any] = {"name": name, "labels": dict(labels), "kind": kind}
            if kind == "counter":
                entry["value"] = window.counters[key]
            elif kind == "gauge":
                entry["value"] = window.gauges[key]
            else:
                entry["sketch"] = window.histograms[key]
            series.append(entry)
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

    @property
    def running(self) -> bool:
        return self._thread is not None

    def start(self) -> "TimelineRecorder":
        """Attach mirrors and begin ticking from a daemon thread."""
        if self._thread is not None:
            raise RuntimeError("TimelineRecorder is already running")
        for metric in self.registry.iter_metrics():
            if isinstance(metric, SketchHistogram):
                metric._attach_window()
        self._last_tick = self._clock()
        self._stop_event.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-obs-timeline", daemon=True
        )
        self._thread.start()
        return self

    @staticmethod
    def _advance_deadline(deadline: float, now: float, interval: float) -> float:
        """Next tick deadline strictly after ``now``, staying on the grid.

        The naive ``sleep(interval)``-after-work schedule drifts: every
        tick's snapshot time adds to the period, so window boundaries
        creep off the wall-clock grid over long runs.  Instead the
        deadline advances by exact multiples of ``interval`` — a slow
        snapshot skips the boundaries it missed but the next tick still
        lands *on* a grid point, never ``work_time`` past one.
        """
        deadline += interval
        if deadline <= now:
            missed = math.floor((now - deadline) / interval) + 1
            deadline += missed * interval
        return deadline

    def _run(self) -> None:
        now = self._clock()
        deadline = (math.floor(now / self.interval) + 1) * self.interval
        while True:
            now = self._clock()
            if self._stop_event.wait(max(0.0, deadline - now)):
                return
            # Stamp the tick with the grid boundary, not the post-wait
            # clock: window edges stay exact multiples of ``interval``.
            self.tick(deadline)
            deadline = self._advance_deadline(deadline, self._clock(), self.interval)

    def stop(self) -> None:
        """Stop the thread, flush the open window, detach mirrors (idempotent)."""
        thread = self._thread
        self._thread = None
        if thread is None:
            return
        self._stop_event.set()
        thread.join(timeout=5.0)
        self.tick()  # flush the partial window
        for metric in self.registry.iter_metrics():
            if isinstance(metric, SketchHistogram):
                metric._detach_window()

    def __enter__(self) -> "TimelineRecorder":
        if self._thread is None:
            self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

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
        them).  Once attached, range reads with an explicit ``since``
        also reach past the ring into the store's older history.
        """
        with self._tick_lock:
            self._store = store
            if not replay:
                return self
            with self._lock:
                empty = not self._windows
            if not empty:
                return self
            replayed = [
                self._window_from_record(record)
                for record in store.iter_windows(revive=True)
            ]
            replayed = replayed[-self.max_windows:]
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
        """Convert one store window record back into a :class:`TimelineWindow`."""
        start = float(record["start"])
        end = float(record["end"])
        window = TimelineWindow(int(math.floor(end / self.interval)), start, end)
        for entry in record["series"]:
            key = (entry["name"], _labels_key(entry.get("labels", {})))
            kind = entry["kind"]
            if kind == "counter":
                window.counters[key] = float(entry["value"])
                window.kinds[key] = "counter"
            elif kind == "gauge":
                window.gauges[key] = float(entry["value"])
                window.kinds[key] = "gauge"
            else:
                window.histograms[key] = entry["sketch"]
                window.kinds[key] = "histogram"
        return window

    # -- introspection ---------------------------------------------------------

    def windows(self, since: float | None = None, until: float | None = None):
        """Published windows (oldest first), optionally range-filtered.

        With a store attached and an explicit ``since``, history older
        than the ring's oldest window is fetched from disk and
        prepended — a ``?since=`` that predates the ring transparently
        reaches into persisted segments (ring windows win on overlap,
        so nothing is double-counted).
        """
        with self._lock:
            windows = list(self._windows)
        lo = -math.inf if since is None else since
        hi = math.inf if until is None else until
        store = self._store
        if store is not None and since is not None:
            # Ring windows shadow their persisted copies: only pull
            # disk history strictly older than the ring's oldest start.
            cutoff = windows[0].start if windows else hi
            if lo < cutoff:
                older = [
                    self._window_from_record(record)
                    for record in store.iter_windows(since=lo, until=min(hi, cutoff))
                ]
                windows = [w for w in older if w.start < cutoff] + windows
        if since is not None or until is not None:
            windows = [w for w in windows if w.overlaps(lo, hi)]
        return windows

    def coverage(self) -> tuple[float, float] | None:
        """(oldest window start, newest window end), or None when empty."""
        with self._lock:
            if not self._windows:
                return None
            return (self._windows[0].start, self._windows[-1].end)

    def metrics(self) -> list[dict]:
        """Every series seen in the ring: ``{name, labels, kind}`` dicts."""
        seen: dict[tuple, str] = {}
        for window in self.windows():
            for key, kind in window.kinds.items():
                seen.setdefault(key, kind)
        return [
            {"name": name, "labels": dict(labels), "kind": kind}
            for (name, labels), kind in sorted(seen.items())
        ]

    def __len__(self) -> int:
        return len(self._windows)

    # -- queries ---------------------------------------------------------------

    def _resolve_key(
        self, metric: str, labels: dict[str, str] | None, windows: list | None = None
    ) -> tuple:
        """(metric, labels-tuple), inferring labels when unambiguous."""
        if labels:
            return (metric, _labels_key(labels))
        if windows is None:
            windows = self.windows()
        candidates = {
            key for window in windows for key in window.kinds if key[0] == metric
        }
        if len(candidates) > 1:
            variants = [dict(key[1]) for key in sorted(candidates)]
            raise ValueError(
                f"metric {metric!r} has {len(candidates)} labelsets {variants}; "
                "pass labels to disambiguate"
            )
        if candidates:
            return candidates.pop()
        return (metric, _labels_key(labels or {}))

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
        ring.  Unknown metrics yield an empty result (``n_windows=0``).
        """
        lo = -math.inf if since is None else float(since)
        hi = math.inf if until is None else float(until)
        covered = self.windows(since, until)
        key = self._resolve_key(metric, labels, covered)
        kind = ""
        result = RangeResult(metric, kind, dict(key[1]), lo, hi)
        partials = []
        for window in covered:
            if key not in window.kinds:
                continue
            result.n_windows += 1
            result.start = window.start if result.start is None else result.start
            result.end = window.end
            result.kind = window.kinds[key]
            if key in window.counters:
                delta = window.counters[key]
                result.total += delta
                result.values.append((window.start, delta))
            elif key in window.gauges:
                result.values.append((window.start, window.gauges[key]))
            elif key in window.histograms:
                partials.append(window.histograms[key])
        result.sketch = fold_partials(partials)
        return result

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
        the recorder interval) aligned to the epoch: counter buckets
        sum deltas, gauge buckets keep the last value, histogram
        buckets ``merge_many``-fold their partials and report ``count``
        plus the requested ``quantiles``.  Each point is
        ``{"t": bucket_start, ...}``; empty buckets are omitted.
        """
        if step is None:
            step = self.interval
        if step <= 0:
            raise ValueError(f"step must be > 0, got {step}")
        lo = -math.inf if since is None else float(since)
        hi = math.inf if until is None else float(until)
        covered = self.windows(since, until)
        key = self._resolve_key(metric, labels, covered)
        buckets: dict[int, dict] = {}
        for window in covered:
            if key not in window.kinds:
                continue
            index = int(math.floor(window.start / step))
            bucket = buckets.setdefault(
                index, {"kind": window.kinds[key], "value": 0.0, "partials": []}
            )
            if key in window.counters:
                bucket["value"] += window.counters[key]
            elif key in window.gauges:
                bucket["value"] = window.gauges[key]
            elif key in window.histograms:
                bucket["partials"].append(window.histograms[key])
        points = []
        for index in sorted(buckets):
            bucket = buckets[index]
            point: dict[str, Any] = {"t": index * step}
            if bucket["kind"] == "histogram":
                merged = fold_partials(bucket["partials"])
                point["count"] = merged.n if merged is not None else 0
                point["quantiles"] = {
                    str(q): (merged.quantile(q) if merged is not None and merged.n else None)
                    for q in quantiles
                }
            else:
                point["value"] = bucket["value"]
            points.append(point)
        return points

    def as_dict(
        self,
        since: float | None = None,
        until: float | None = None,
        step: float | None = None,
        quantiles: tuple[float, ...] = (0.5, 0.99),
    ) -> dict:
        """Full timeline snapshot: meta plus every series (dashboard payload)."""
        coverage = self.coverage()
        out: dict[str, Any] = {
            "interval": self.interval,
            "max_windows": self.max_windows,
            "windows": len(self),
            "ticks": self.ticks,
            "evicted": self.evicted,
            "running": self.running,
            "coverage": list(coverage) if coverage else None,
            "store": self._store.stats() if self._store is not None else None,
            "metrics": [],
        }
        for entry in self.metrics():
            out["metrics"].append(
                {
                    **entry,
                    "points": self.series(
                        entry["name"],
                        since=since,
                        until=until,
                        step=step,
                        quantiles=quantiles,
                        **entry["labels"],
                    ),
                }
            )
        return out

    def __repr__(self) -> str:
        state = "running" if self.running else "stopped"
        return (
            f"TimelineRecorder({state}, interval={self.interval}s, "
            f"windows={len(self)}/{self.max_windows})"
        )
