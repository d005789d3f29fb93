"""repro.obs — self-hosted instrumentation for the sketching library.

The paper's pathway-to-impact runs through production telemetry
(Gigascope, network monitoring) where sketches *are* the monitoring
substrate; this package closes the loop by monitoring the library with
its own sketches.  Latency/size distributions live in KLL-backed
:class:`SketchHistogram` metrics, counters/gauges cover op and error
rates, and the whole registry exports as Prometheus text exposition or
structured JSON.

Instrumentation is off by default (the hooks reduce to one attribute
load); turn it on with ``REPRO_OBS=1`` or::

    import repro, repro.obs

    with repro.obs.enable():
        sketch.update_many(stream)
    print(repro.obs.get_registry().to_prometheus())

Registry and metric kinds
-------------------------

:class:`MetricsRegistry` is a labelled metric store keyed by
``(name, labels)``; ``counter()``/``gauge()``/``histogram()`` are
get-or-create (a kind conflict on a name raises ``TypeError``).  One
process-global default registry backs the core hooks
(:func:`get_registry`/:func:`set_registry`); any component that emits
metrics — pipelines, builders, :class:`~repro.concurrent.ConcurrentSketch`,
or a single sketch via :func:`bind_registry` — can be pointed at a
private registry instead.

:class:`SketchHistogram` semantics: each ``observe()`` feeds a
``KLLSketch`` (default ``k=200``, rank error well under 2%), so
``quantile(q)`` / the exported p50/p90/p99/p999 carry KLL's guarantee
rather than fixed-bucket approximations — the histogram *is* one of
the library's own sketches.  ``count``/``sum`` are exact; the empty
histogram reports ``NaN`` quantiles (``None`` in JSON).  An inline
``observe()`` only appends to a buffer of up to 64 values under the
histogram lock; the buffer flushes through KLL's bulk path when it
fills, into the window mirror on every timeline tick, and into
everything on any read (``count``, ``quantile``, ``snapshot``, the
exporters).  The bulk path compacts at the same fill points as
per-item updates, so the sketches are bitwise what per-item feeding
would give.

What the hooks record
---------------------

The sketch-op, pipeline and shard-build timings below come from the
one helper that also traces the operation,
:func:`repro.obs.trace.op_span`, so a metric's seconds and the
matching span's duration are one measurement.

- ``repro_sketch_ops_total`` / ``repro_sketch_items_total``
  ``{sketch, op}`` for ``update``, ``update_many`` (a family's grouped
  kernel counts as one over all its items), ``merge``,
  ``merge_many``, ``to_bytes``, ``from_bytes``; batch and serde ops
  also time themselves into ``repro_sketch_op_seconds`` (per-item
  ``update`` is counted but never timed — a clock read would dwarf it).
- ``repro_sketch_serde_bytes`` ``{sketch, op}`` — blob-size
  distributions; ``repro_sketch_errors_total`` ``{kind, sketch}`` for
  deserialization failures and merge incompatibilities.
- ``repro_pipeline_records_total`` / ``_batches_total`` /
  ``_feed_seconds`` from ``StreamPipeline.feed``.
- ``repro_parallel_builds_total`` / ``_shards_total`` /
  ``_shard_items_total`` / ``_shard_build_seconds`` /
  ``_merge_seconds`` ``{backend}`` plus
  ``repro_parallel_backend_fallback_total`` ``{reason}`` from
  :func:`~repro.parallel.parallel_build` — sourced from the same
  :class:`BuildReport` / per-shard :class:`ShardSpan` telemetry the
  build returns (``return_report=True``), with spans shipped back from
  process workers over the serde wire format.
- ``repro_concurrent_propagate_total`` / ``_drain_total`` /
  ``_compact_total`` / ``_replicas`` ``{state}`` from
  ``ConcurrentSketch``.
- ``repro_audit_checks_total`` / ``_bound_violations_total`` /
  ``_observed_error`` / ``_error_bound`` ``{sketch, kind}`` from
  :class:`AccuracyAuditor` checks.
- ``repro_sketch_state_bytes`` ``{sketch, id}`` — resident state bytes
  from the :meth:`~repro.core.base.Sketch.memory_footprint` protocol;
  ``registry.track_state(sketch, name=...)`` holds the sketch by
  weakref and re-reads the gauge at every ``collect()`` (every scrape),
  and :class:`~repro.obs.BenchRunner` exports the same gauge per
  benchmark case.

Exporters
---------

``registry.to_prometheus()`` renders the text exposition format
(counters/gauges as their kinds, histograms as ``summary`` with
``quantile`` labels plus ``_sum``/``_count``; label values escaped per
spec).  ``registry.as_dict()`` / ``to_json()`` produce a structured
snapshot ``{name: [{labels, type, value | count/sum/quantiles}]}``;
``scripts/obs_report.py`` pretty-prints either a live demo run or a
saved JSON dump.

Tracing
-------

:mod:`repro.obs.trace` adds distributed-style tracing on the same
switchboard: ``enable_tracing()`` (or ``REPRO_TRACE=1``) turns on
nestable spans around every instrumented sketch op,
``StreamPipeline.feed`` and its batch windows, ``ConcurrentSketch``
propagate/drain/compact, :class:`AccuracyAuditor` checks, and
:func:`~repro.parallel.parallel_build` — whose process workers ship
their span subtrees back over the serde wire format and are
re-parented under the client-side root, so one build is one trace tree
spanning processes.  :class:`Tracer` keeps a bounded ring of finished
spans and exports JSON or the Chrome trace-event format
(``chrome://tracing`` / Perfetto); ``scripts/trace_report.py``
pretty-prints the tree.

Every one of those sites opens its span through one helper,
:func:`repro.obs.trace.op_span`: a span on the current tracer when
tracing is on, a plain timer otherwise, yielding an object with
``.duration`` and ``.attributes`` either way.  No other module opens a
span or reads the tracing switch (``tests/obs/test_one_span_helper.py``),
so a new instrumented site is one
``with op_span(name, **attributes) as span:`` block.

Timeline (windowed history + range queries)
-------------------------------------------

:mod:`repro.obs.timeline` gives the registry a *time dimension* built
from the library's own mergeable sketches: a
:class:`TimelineRecorder` (daemon thread, off until ``start()``)
snapshots the registry every ``interval`` seconds into fixed-width
windows held in a bounded ring — counters as per-window deltas,
gauges as last-value, and every :class:`SketchHistogram` as a
per-window **KLL partial** mirrored atomically under the histogram
lock.  An arbitrary ``[t0, t1)`` range query folds the covered window
partials with the k-way KLL merge kernel (``merge_many``), so
``recorder.query("repro_ingest_seconds", t0, t1).quantile(0.99)``
answers "what was p99 between t0 and t1" with the same rank guarantee
as a live histogram; ``recorder.series(...)`` re-buckets windows onto
a ``step`` grid for dashboards.  Overhead is gated in CI by
``scripts/check_overhead.py`` (a recorder never started <2%, a running
1 s recorder <5%, the A7 paired protocol).

Profiling (statistical, span-keyed)
-----------------------------------

:mod:`repro.obs.profile` adds a sampling profiler:
:class:`SamplingProfiler` ticks ``sys._current_frames()`` from a
daemon thread (default 100 Hz, off until ``start()``), aggregates
stacks into call-tree counts, and keys each stack under the sampled
thread's open :class:`Tracer` span when one exists.  Exports are
collapsed-stack text (``flamegraph.pl`` / speedscope-compatible, span
as a synthetic root frame) and structured JSON;
:func:`profile_for(seconds)` is the one-shot capture behind
``GET /profile?seconds=N``.

Alerting & anomaly detection
----------------------------

:mod:`repro.obs.alerts` closes the observe→detect→notify loop: an
:class:`AlertEngine` evaluates rules against a
:class:`TimelineRecorder`'s windows on its own daemon ticker (deep
baselines transparently reach into an attached
:class:`~repro.store.SketchStore`).  :class:`ThresholdRule` watches
counter rates and gauges, :class:`QuantileRule` is the p99-SLO form
(``p99 > X for duration D``), and two detectors are sketch-native:
:class:`DriftRule` folds a baseline window-range against a recent
range with ``merge_many`` and alarms when their CDFs diverge beyond
the combined KLL rank-error bound, and :class:`ChangePointRule`
scores counter deltas with a robust (median/MAD) z-score.  Rules run
a ``inactive → pending → firing → resolved`` state machine with
``for_duration`` holds and flap damping; transitions go to pluggable
sinks (:class:`LogSink`, :class:`JSONLFileSink`, :class:`WebhookSink`
with retry/backoff) and the engine meters itself
(``repro_alert_evaluations_total``, ``repro_alert_transitions_total``,
``repro_alerts_firing``, ``repro_alert_eval_seconds``).
``ObsServer`` serves the rule states at ``/alerts``, folds firing
critical alerts into ``/healthz``, and panels them on ``/dashboard``;
``tests/obs/test_alert_pipeline.py`` gates detector sanity, and
``scripts/check_overhead.py`` a running engine's <5% overhead, in CI.

Lifecycle
---------

The recorder, the alert engine, the store's compactor and the profiler
are daemon tickers sharing one loop (:mod:`repro.obs.ticker`): passes
keep to a grid of the period, and a pass that raises is counted in
``repro_background_errors_total{thread}`` while the thread goes on.
Nothing stops them at interpreter exit by default.  Opt in with
:func:`install_shutdown_hook` (:mod:`repro.obs.lifecycle`): one
``atexit`` hook that stops engines, recorders (flushing the open
window) and compactors, then seals their stores.

Auditing and serving
--------------------

:class:`AccuracyAuditor` shadows a production sketch with an exact
(reservoir/hash-sampled) substream and periodically checks the
sketch's observed error against its theoretical bound — the online
answer to "is this sketch still telling the truth?".  Verdicts,
metrics, traces, timeline, and profiles are served live by
:class:`ObsServer` (``/metrics`` Prometheus text or
``?format=json``, ``/trace`` JSON/Chrome, ``/healthz`` 200/503,
``/timeline`` windowed range queries, ``/profile?seconds=N`` one-shot
captures, and ``/dashboard`` — a self-contained auto-refreshing HTML
ops page with sparklines, histogram quantile bands, the auditor
verdict strip, and trace-drop/eviction counters), a stdlib-only HTTP
endpoint that is off until started.  ``Tracer`` ring-buffer evictions
surface as the ``repro_trace_spans_dropped_total`` counter, so a
scrape reveals an undersized span buffer.

Overhead
--------

``benchmarks/bench_a07_observability.py`` (A7) measures ``update_many``
against the raw kernels (still reachable as
``update_many.__wrapped__``): disabled is indistinguishable from
uninstrumented (within noise, bound <2%) and fully enabled costs
under 1% on HLL/CountMin/Bloom/KLL batch ingest (bound <5%).
``scripts/check_overhead.py`` enforces both bounds in CI and holds
tracing to the same discipline (disabled <2%, enabled <5%): the
combined metrics+tracing disabled path is still a single shared
hot-flag attribute load.
"""

from . import bench
from .alerts import (
    AlertEngine,
    AlertEvent,
    AlertRule,
    AlertSink,
    ChangePointRule,
    DriftRule,
    JSONLFileSink,
    LogSink,
    QuantileRule,
    ThresholdRule,
    WebhookSink,
)
from .audit import AccuracyAuditor, AuditCheck
from .bench import BenchCase, BenchResult, BenchRunner
from .export import registry_as_dict, render_json, render_prometheus
from .http import ObsServer
from .lifecycle import install_shutdown_hook, uninstall_shutdown_hook
from .registry import (
    Counter,
    Gauge,
    MetricsRegistry,
    SketchHistogram,
    disable,
    enable,
    enabled,
    get_registry,
    set_registry,
)
from .profile import SamplingProfiler, profile_for
from .report import BuildReport, ShardSpan
from .timeline import RangeResult, TimelineRecorder, TimelineWindow
from .trace import (
    Span,
    SpanContext,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    set_tracer,
    tracing_enabled,
)

__all__ = [
    "AccuracyAuditor",
    "AlertEngine",
    "AlertEvent",
    "AlertRule",
    "AlertSink",
    "AuditCheck",
    "BenchCase",
    "BenchResult",
    "BenchRunner",
    "BuildReport",
    "bench",
    "ChangePointRule",
    "Counter",
    "DriftRule",
    "Gauge",
    "JSONLFileSink",
    "LogSink",
    "MetricsRegistry",
    "ObsServer",
    "QuantileRule",
    "RangeResult",
    "SamplingProfiler",
    "ShardSpan",
    "SketchHistogram",
    "Span",
    "SpanContext",
    "ThresholdRule",
    "TimelineRecorder",
    "TimelineWindow",
    "Tracer",
    "WebhookSink",
    "bind_registry",
    "disable",
    "disable_tracing",
    "enable",
    "enable_tracing",
    "enabled",
    "get_registry",
    "get_tracer",
    "install_shutdown_hook",
    "profile_for",
    "registry_as_dict",
    "render_json",
    "render_prometheus",
    "set_registry",
    "set_tracer",
    "tracing_enabled",
    "uninstall_shutdown_hook",
]


def bind_registry(component, registry: MetricsRegistry | None) -> None:
    """Point one component (sketch, pipeline, builder…) at its own registry.

    Passing ``None`` re-binds the component to the process-global
    default.  Components with a ``registry=`` constructor keyword are
    equivalent; this helper covers individual sketches, which do not
    take constructor keywords.
    """
    component._obs_registry = registry
