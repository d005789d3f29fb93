"""Metrics registry: counters, gauges, and sketch-backed histograms.

The self-hosting move the paper celebrates (§3's Gigascope/telemetry
story): a sketching library should answer operational questions —
"how many updates ran, how long did they take, which shard is slow" —
*with its own sketches*.  :class:`SketchHistogram` keeps latency and
size distributions in a KLL quantile sketch, so p50/p99/p999 come from
the same machinery the library ships.

Instrumentation is **disabled by default** and designed around a no-op
fast path: every hook in the core guards on a single attribute load
(``STATE.enabled``) before doing any work, which benchmarks at <2%
``update_many`` overhead (A7, ``benchmarks/bench_a07_observability.py``).
Switch it on with the ``REPRO_OBS=1`` environment variable, permanently
with ``repro.obs.enable()``, or for a scope::

    with repro.obs.enable():
        sketch.update_many(stream)
    print(repro.obs.get_registry().to_prometheus())

Metrics land in a process-global default registry
(:func:`get_registry` / :func:`set_registry`); components that should
not share it accept an injectable per-component registry (the
``registry=`` keyword on :class:`~repro.parallel.ShardedBuilder`,
:class:`~repro.streaming.StreamPipeline`,
:class:`~repro.concurrent.ConcurrentSketch`, or
:func:`repro.obs.bind_registry` for an individual sketch).
"""

from __future__ import annotations

import os
import threading
import weakref
from typing import Any

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "STATE",
    "SketchHistogram",
    "disable",
    "enable",
    "enabled",
    "get_registry",
    "set_registry",
]

#: ops whose wall time is recorded (per-item ``update`` is counted but
#: not timed — two clock reads per nanosecond-scale call would distort
#: the very path being measured).
TIMED_OPS = frozenset({"update_many", "merge", "merge_many", "to_bytes", "from_bytes"})

_SERDE_OPS = frozenset({"to_bytes", "from_bytes"})


class _ObsState:
    """Mutable process-global switch; a single attribute load on hot paths."""

    __slots__ = ("enabled",)

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled


class _HotFlag:
    """Union of every obs subsystem switch (metrics, tracing).

    The instrumented core guards on ``HOT.flag`` — one attribute load —
    before doing any work, so adding subsystems (``repro.obs.trace``)
    never adds per-call cost to the disabled path.  Each subsystem's
    state registers itself via :func:`register_hot_source`, and every
    toggle calls :func:`refresh_hot`.
    """

    __slots__ = ("flag",)

    def __init__(self) -> None:
        self.flag = False


HOT = _HotFlag()
_HOT_SOURCES: list[_ObsState] = []


def register_hot_source(state: _ObsState) -> None:
    """Add a subsystem switch to the union behind ``HOT.flag``."""
    _HOT_SOURCES.append(state)
    refresh_hot()


def refresh_hot() -> None:
    """Recompute ``HOT.flag`` after any subsystem toggle."""
    HOT.flag = any(state.enabled for state in _HOT_SOURCES)


def _env_enabled(var: str = "REPRO_OBS") -> bool:
    return os.environ.get(var, "").strip().lower() not in ("", "0", "false", "off")


STATE = _ObsState(_env_enabled())
register_hot_source(STATE)


def enabled() -> bool:
    """Whether instrumentation is currently on."""
    return STATE.enabled


class _EnabledScope:
    """Toggle returned by :func:`enable`/:func:`disable`.

    Usable bare (``repro.obs.enable()`` flips the switch permanently)
    or as a context manager that restores the previous state on exit.
    """

    def __init__(self, value: bool) -> None:
        self._previous = STATE.enabled
        STATE.enabled = value
        refresh_hot()

    def __enter__(self) -> "_EnabledScope":
        return self

    def __exit__(self, *exc: object) -> None:
        STATE.enabled = self._previous
        refresh_hot()

    def restore(self) -> None:
        """Undo the toggle without using the context-manager form."""
        STATE.enabled = self._previous
        refresh_hot()


def enable() -> _EnabledScope:
    """Turn instrumentation on (``with repro.obs.enable(): ...`` to scope it)."""
    return _EnabledScope(True)


def disable() -> _EnabledScope:
    """Turn instrumentation off (context manager restores on exit)."""
    return _EnabledScope(False)


def _labels_key(labels: dict[str, str]) -> tuple:
    return tuple(sorted(labels.items()))


class Counter:
    """A monotonically increasing count (Prometheus ``counter``)."""

    __slots__ = ("name", "help", "labels", "_value", "_lock")

    kind = "counter"

    def __init__(self, name: str, help: str = "", labels: dict[str, str] | None = None):
        self.name = name
        self.help = help
        self.labels = dict(labels or {})
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if not amount >= 0:  # also rejects NaN, which would poison the total
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def __repr__(self) -> str:
        return f"Counter({self.name}{self.labels or ''} = {self._value})"


class Gauge:
    """A value that can go up and down (Prometheus ``gauge``)."""

    __slots__ = ("name", "help", "labels", "_value", "_lock")

    kind = "gauge"

    def __init__(self, name: str, help: str = "", labels: dict[str, str] | None = None):
        self.name = name
        self.help = help
        self.labels = dict(labels or {})
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    def __repr__(self) -> str:
        return f"Gauge({self.name}{self.labels or ''} = {self._value})"


#: observations a histogram buffers before one ``update_many`` flush.
_PENDING_MAX = 64


class SketchHistogram:
    """A KLL-backed distribution (exported as a Prometheus ``summary``).

    Observations stream into a :class:`~repro.quantiles.KLLSketch`, so
    the registry holds O(k) state per metric regardless of how many
    latencies it absorbs, and ``quantile(0.99)`` carries KLL's rank
    guarantee (ε ≈ O(1/k)).  The inner sketches deliberately bypass the
    core instrumentation hooks — a histogram recording itself recording
    itself would recurse, and would re-enter its own lock.

    ``observe`` only appends to a short pending list under the lock;
    every 64 values one bulk update feeds them to a single KLL.  With no
    :class:`~repro.obs.TimelineRecorder` attached that is the cumulative
    sketch.  While one is attached it is the open window's sketch: a tick
    hands the window to the recorder as its partial and queues it, and the
    next ``observe`` or read merges each queued window into the cumulative
    sketch (:func:`~repro.quantiles.kll.merge_levels`, once per window,
    never on the tick).  KLL's bulk path compacts at the same fill points
    as per-item updates, so a window partial — and an unattached
    cumulative — is bitwise-identical to per-item feeding; an attached
    cumulative is the close-order merge of its windows, with the same
    rank bound.  A fill pays for the levels it compacts, not for the
    whole height (:func:`~repro.quantiles.kll.compress`).  Reads answer
    from the cumulative sketch plus the open window without changing
    either; while the open window holds values, each read pays one
    two-part fold (~60–120 µs on a 12-level cumulative), so take several
    quantiles from one :meth:`snapshot`.
    """

    __slots__ = ("name", "help", "labels", "quantiles", "_kll", "_sum", "_lock",
                 "_raw_update_many", "_window_kll", "_pending", "_closed")

    kind = "histogram"

    #: quantiles rendered in the Prometheus exposition.
    DEFAULT_QUANTILES = (0.5, 0.9, 0.99, 0.999)

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: dict[str, str] | None = None,
        k: int = 200,
        quantiles: tuple[float, ...] = DEFAULT_QUANTILES,
    ) -> None:
        # Local import: repro.obs loads during repro.core's own import,
        # before repro.quantiles exists (KLL is itself a Sketch).
        from ..quantiles.kll import KLLSketch

        self.name = name
        self.help = help
        self.labels = dict(labels or {})
        self.quantiles = tuple(quantiles)
        self._kll = KLLSketch(k=k, seed=0)
        # The unwrapped kernel: recording into the histogram must not
        # re-enter the obs hooks wrapped around KLLSketch's methods.
        update_many = KLLSketch.update_many
        self._raw_update_many = getattr(update_many, "__wrapped__", update_many)
        self._sum = 0.0
        self._lock = threading.Lock()
        # The open window's sketch while a TimelineRecorder is attached
        # (None otherwise); pending values flush into it, not _kll.
        self._window_kll = None
        # Values observed but not yet in a sketch.
        self._pending: list[float] = []
        # Closed non-empty windows the cumulative KLL has not merged yet.
        self._closed: list = []

    def observe(self, value: float) -> None:
        """Record one observation (NaN raises ``ValueError``)."""
        value = float(value)
        if value != value:
            raise ValueError("cannot observe NaN")
        with self._lock:
            if self._closed:
                self._absorb()
            pending = self._pending
            pending.append(value)
            self._sum += value
            if len(pending) >= _PENDING_MAX:
                self._flush()

    def observe_many(self, values) -> None:
        """Record a batch of observations through the KLL bulk path."""
        values = [float(v) for v in values]
        if not values:
            return
        if any(v != v for v in values):
            raise ValueError("cannot observe NaN")
        with self._lock:
            self._pending.extend(values)
            self._sum += sum(values)
            self._settle()

    # -- pending buffer (every helper runs with the lock held) -----------------

    def _flush(self) -> None:
        """Feed the pending values to the open window, else to the cumulative KLL.

        Closed windows are absorbed before any flush into the cumulative
        KLL (every caller absorbs first), so it sees them in order.
        """
        pending = self._pending
        if pending:
            window = self._window_kll
            self._raw_update_many(self._kll if window is None else window, pending)
            pending.clear()

    def _absorb(self) -> None:
        """Merge each closed window into the cumulative KLL, in close order.

        Through the unwrapped :func:`~repro.quantiles.kll.merge_levels`:
        the instrumented ``KLLSketch.merge`` records into the registry's
        own histograms while metrics are on, and would re-enter this
        lock.  A closed window is the recorder's partial; the merge only
        reads it.
        """
        from ..quantiles.kll import merge_levels

        for part in self._closed:
            merge_levels(self._kll, part)
        self._closed.clear()

    def _settle(self) -> None:
        """Absorb closed windows, then flush the pending values."""
        if self._closed:
            self._absorb()
        self._flush()

    def _answer(self):
        """The sketch a read answers from: the cumulative KLL plus the open window.

        Both non-empty, a fresh two-part fold, so the read changes neither.
        """
        self._settle()
        window = self._window_kll
        if window is None or not window.n:
            return self._kll
        if not self._kll.n:
            return window
        return type(window)._merge_many_impl([self._kll, window])

    # -- timeline windows (driven by repro.obs.timeline) -----------------------

    def _attach_window(self) -> None:
        """Start feeding observations into a fresh open-window KLL."""
        from ..quantiles.kll import KLLSketch

        with self._lock:
            if self._window_kll is None:
                # Values already pending were observed before the window.
                self._settle()
                self._window_kll = KLLSketch(k=self._kll.k, seed=0)

    def _close_window(self, successor) -> None:
        """Flush into the open window, queue it if non-empty, open ``successor``."""
        window = self._window_kll
        if window is not None:
            self._flush()
            if window.n:
                self._closed.append(window)
            self._window_kll = successor

    def _take_window(self):
        """Swap the open-window KLL out for a fresh one and return it.

        Returns None when no window is attached.  The swap is atomic
        with respect to :meth:`observe` — both run under the histogram
        lock — so an observation lands entirely in one window (never
        torn across two).  The tick only flushes the pending values into
        the window and queues it: the cumulative KLL merges it on the
        next observe or read.
        """
        from ..quantiles.kll import KLLSketch

        with self._lock:
            window = self._window_kll
            if window is not None:
                self._close_window(KLLSketch(k=self._kll.k, seed=0))
            return window

    def _detach_window(self) -> None:
        """Stop windowing; the open window's values still reach the cumulative KLL."""
        with self._lock:
            self._close_window(None)

    @property
    def count(self) -> int:
        with self._lock:
            self._settle()
            window = self._window_kll
            return self._kll.n + (0 if window is None else window.n)

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def k(self) -> int:
        """The inner KLL's ``k`` (window partials share it)."""
        return self._kll.k

    def rank_error_bound(self) -> float:
        """ε of the backing KLL — also the ε of every window partial."""
        return self._kll.rank_error_bound()

    def quantile(self, q: float) -> float:
        """Estimated q-quantile of everything observed (NaN when empty)."""
        with self._lock:
            sketch = self._answer()
            if sketch.n == 0:
                return float("nan")
            return sketch.quantile(q)

    def snapshot(self) -> dict[str, Any]:
        """count/sum/quantiles as plain data (the JSON export form)."""
        with self._lock:
            sketch = self._answer()
            n = sketch.n
            quantiles = {
                str(q): (sketch.quantile(q) if n else None) for q in self.quantiles
            }
            return {"count": n, "sum": self._sum, "quantiles": quantiles}

    def __repr__(self) -> str:
        return f"SketchHistogram({self.name}{self.labels or ''}, n={self.count})"


class MetricsRegistry:
    """A named collection of metrics with get-or-create accessors.

    Metric identity is ``(name, labels)``; asking for an existing
    metric with a different type raises ``TypeError``.  All accessors
    are thread-safe.
    """

    def __init__(self) -> None:
        self._metrics: dict[tuple, Any] = {}
        self._lock = threading.Lock()
        # (sketch, op) -> (ops counter, items counter, seconds hist,
        # bytes hist); one dict hit per instrumented call when enabled.
        self._sketch_cache: dict[tuple[str, str], tuple] = {}
        # id -> weakref of live sketches whose memory_footprint() backs
        # a repro_sketch_state_bytes gauge, refreshed at collect time.
        self._tracked_state: dict[str, weakref.ref] = {}

    # -- get-or-create accessors ----------------------------------------------

    def _get_or_create(self, cls: type, name: str, help: str, labels: dict, **kwargs):
        key = (name, _labels_key(labels))
        metric = self._metrics.get(key)
        if metric is not None:
            if not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {type(metric).__name__}, "
                    f"not {cls.__name__}"
                )
            return metric
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(name, help, labels, **kwargs)
                self._metrics[key] = metric
        return metric

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        """The counter for ``(name, labels)``, created on first use."""
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        """The gauge for ``(name, labels)``, created on first use."""
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        k: int = 200,
        quantiles: tuple[float, ...] = SketchHistogram.DEFAULT_QUANTILES,
        **labels: str,
    ) -> SketchHistogram:
        """The KLL histogram for ``(name, labels)``, created on first use."""
        return self._get_or_create(
            SketchHistogram, name, help, labels, k=k, quantiles=quantiles
        )

    # -- memory introspection --------------------------------------------------

    def track_state(self, sketch, name: str | None = None) -> Gauge:
        """Surface a live sketch's state bytes as a refreshed gauge.

        Registers ``sketch`` (held by weakref — tracking never extends
        a sketch's lifetime) so every :meth:`collect` — and therefore
        every Prometheus scrape or JSON export — refreshes
        ``repro_sketch_state_bytes{sketch=<Class>, id=<name>}`` from
        :meth:`~repro.core.base.Sketch.memory_footprint`.  Benchmarks
        report the same protocol's number in ``BENCH_*.json``, so the
        dashboard and the perf trajectory agree by construction.
        """
        label = name if name is not None else f"0x{id(sketch):x}"
        gauge = self.gauge(
            "repro_sketch_state_bytes",
            "Resident sketch state bytes (memory_footprint protocol).",
            sketch=type(sketch).__name__,
            id=label,
        )
        gauge.set(sketch.memory_footprint())
        with self._lock:
            self._tracked_state[label] = weakref.ref(sketch)
        return gauge

    def refresh_state_gauges(self) -> None:
        """Re-read every tracked sketch's footprint; drop dead weakrefs."""
        with self._lock:
            tracked = list(self._tracked_state.items())
        dead = []
        for label, ref in tracked:
            sketch = ref()
            if sketch is None:
                dead.append(label)
                continue
            self.gauge(
                "repro_sketch_state_bytes",
                "Resident sketch state bytes (memory_footprint protocol).",
                sketch=type(sketch).__name__,
                id=label,
            ).set(sketch.memory_footprint())
        if dead:
            with self._lock:
                for label in dead:
                    self._tracked_state.pop(label, None)

    # -- introspection ---------------------------------------------------------

    def collect(self) -> list:
        """All metrics, sorted by (name, labels) for stable output.

        Tracked state gauges (:meth:`track_state`) refresh first, so
        every export path sees current footprints.
        """
        self.refresh_state_gauges()
        with self._lock:
            return [self._metrics[key] for key in sorted(self._metrics)]

    def get(self, name: str, **labels: str):
        """The metric for ``(name, labels)``, or None."""
        return self._metrics.get((name, _labels_key(labels)))

    def iter_metrics(self) -> list:
        """Unsorted snapshot of every metric (no state-gauge refresh).

        The cheap form :meth:`collect` builds on — what the timeline
        recorder's tick loop reads every interval, where re-sorting and
        re-reading tracked footprints per tick would be waste.
        """
        with self._lock:
            return list(self._metrics.values())

    def clear(self) -> None:
        """Drop every metric (primarily for tests and scrape resets)."""
        with self._lock:
            self._metrics = {}
            self._sketch_cache = {}
            self._tracked_state = {}

    def __len__(self) -> int:
        return len(self._metrics)

    # -- exporters (see repro.obs.export) --------------------------------------

    def to_prometheus(self) -> str:
        """Render the registry in Prometheus text exposition format."""
        from .export import render_prometheus

        return render_prometheus(self)

    def as_dict(self) -> dict:
        """Structured snapshot: {name: [{labels, type, value|distribution}]}."""
        from .export import registry_as_dict

        return registry_as_dict(self)

    def to_json(self, indent: int | None = None) -> str:
        """JSON string form of :meth:`as_dict`."""
        from .export import render_json

        return render_json(self, indent=indent)

    # -- fast-path recording hooks (called from the instrumented core) ---------

    def observe_sketch_op(
        self,
        sketch: str,
        op: str,
        items: int = 0,
        seconds: float | None = None,
        nbytes: int | None = None,
    ) -> None:
        """Record one sketch operation (the ``Sketch._observe`` sink)."""
        key = (sketch, op)
        cached = self._sketch_cache.get(key)
        if cached is None:
            labels = {"sketch": sketch, "op": op}
            cached = (
                self.counter(
                    "repro_sketch_ops_total", "Sketch operations by class and op.",
                    **labels,
                ),
                self.counter(
                    "repro_sketch_items_total", "Items processed by class and op.",
                    **labels,
                ),
                self.histogram(
                    "repro_sketch_op_seconds", "Wall time per sketch operation.",
                    **labels,
                ) if op in TIMED_OPS else None,
                self.histogram(
                    "repro_sketch_serde_bytes", "Serialized blob sizes.",
                    **labels,
                ) if op in _SERDE_OPS else None,
            )
            self._sketch_cache[key] = cached
        ops, items_total, seconds_hist, bytes_hist = cached
        ops.inc()
        if items:
            items_total.inc(items)
        if seconds is not None and seconds_hist is not None:
            seconds_hist.observe(seconds)
        if nbytes is not None and bytes_hist is not None:
            bytes_hist.observe(nbytes)

    def count_error(self, kind: str, sketch: str) -> None:
        """Increment the error counter for a failure path."""
        self.counter(
            "repro_sketch_errors_total",
            "Deserialization and merge-incompatibility failures.",
            kind=kind,
            sketch=sketch,
        ).inc()

    def observe_pipeline_feed(self, records: int, batches: int, seconds: float) -> None:
        """Record one ``StreamPipeline.feed`` run."""
        self.counter(
            "repro_pipeline_records_total", "Records delivered by StreamPipeline.feed."
        ).inc(records)
        self.counter(
            "repro_pipeline_batches_total", "Operator batches dispatched by feed."
        ).inc(batches)
        self.histogram(
            "repro_pipeline_feed_seconds", "Wall time per StreamPipeline.feed call."
        ).observe(seconds)

    def observe_build(self, report) -> None:
        """Record a :class:`~repro.obs.BuildReport` (spans + reduce time)."""
        backend = report.backend
        self.counter(
            "repro_parallel_builds_total", "parallel_build invocations by backend.",
            backend=backend,
        ).inc()
        if report.fallback_reason:
            self.counter(
                "repro_parallel_backend_fallback_total",
                "Silent auto-backend downgrades by reason.",
                reason=report.fallback_reason,
            ).inc()
        spans = report.spans
        if spans:
            self.counter(
                "repro_parallel_shards_total", "Shards built by backend.",
                backend=backend,
            ).inc(len(spans))
            self.counter(
                "repro_parallel_shard_items_total", "Items ingested across shards.",
                backend=backend,
            ).inc(sum(max(span.n_items, 0) for span in spans))
            self.histogram(
                "repro_parallel_shard_build_seconds", "Per-shard build wall time.",
                backend=backend,
            ).observe_many([span.build_seconds for span in spans])
        self.histogram(
            "repro_parallel_merge_seconds", "k-way reduce wall time per build.",
            backend=backend,
        ).observe(report.merge_seconds)


_DEFAULT_REGISTRY: MetricsRegistry | None = None
_DEFAULT_LOCK = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-global default registry (created on first use)."""
    global _DEFAULT_REGISTRY
    if _DEFAULT_REGISTRY is None:
        with _DEFAULT_LOCK:
            if _DEFAULT_REGISTRY is None:
                _DEFAULT_REGISTRY = MetricsRegistry()
    return _DEFAULT_REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry | None:
    """Swap the process-global registry; returns the previous one (or None)."""
    global _DEFAULT_REGISTRY
    with _DEFAULT_LOCK:
        previous = _DEFAULT_REGISTRY
        _DEFAULT_REGISTRY = registry
    return previous
