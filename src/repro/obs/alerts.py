"""Sketch-native alerting & anomaly detection over the telemetry timeline.

The repo records its own telemetry (:mod:`repro.obs.timeline`) and
persists it (:mod:`repro.store`), but until now nothing *watched* it.
This module closes the observe→detect→notify loop the "Sketchy With a
Chance of Adoption" deployment story describes: operators monitor
fleets with sketches because the KLL/quantile machinery makes
distribution-level checks cheap enough to run continuously.

:class:`AlertEngine` evaluates a set of rules against a
:class:`~repro.obs.TimelineRecorder`'s windows on its own daemon
ticker (rules with long baselines transparently reach past the ring
into an attached :class:`~repro.store.SketchStore`: their
``recorder.query`` reads fold the store's rows for the windows older
than the ring).  Four rule families:

- :class:`ThresholdRule` — counter rate/total or gauge last-value
  against a fixed threshold over the last ``over`` windows
  (``rate > X over last N windows``).
- :class:`QuantileRule` — a quantile of a
  :class:`~repro.obs.SketchHistogram` timeline against a threshold
  (``p99 > X``); the ``for_duration`` hold turns it into a
  Prometheus-style SLO rule (``p99 > X for duration D``).  The value
  comes from the ``merge_many`` fold of the covered window KLL
  partials, so it carries the live histogram's rank guarantee.
- :class:`DriftRule` — the sketch-native detector: fold a baseline
  window range and a recent range with the k-way KLL merge kernel,
  probe both CDFs at fixed baseline ranks, and alarm when the largest
  divergence exceeds the *combined rank-error bound* — ε of each fold
  (merges add no error, so ε is just the sketch's own bound) plus a
  binomial sampling-noise term.  A gap a KLL pair cannot explain away
  is a real distribution change, by construction.
- :class:`ChangePointRule` — cardinality/frequency change-points on
  counter deltas: a robust z-score (median/MAD, the Iglewicz–Hoaglin
  modified z) of the newest window's delta against a trailing window.

Each rule drives a four-state machine::

    inactive → pending → firing → resolved
       ↑          |         |        |
       +----------+         +--------+--→ pending (re-arm)

``for_duration`` holds a breach in *pending* until it has persisted;
``resolve_after`` holds a recovery in *firing* until it has persisted
(flap damping — rapid re-fires within ``flap_window`` of the last
resolve are counted as flaps and double the hold while flapping).
Every transition is an :class:`AlertEvent` delivered to pluggable
sinks — :class:`LogSink` (stdlib logging), :class:`JSONLFileSink`
(append-only JSON lines), :class:`WebhookSink` (HTTP POST with
retry/backoff) — and the engine meters itself into the very registry
it watches: ``repro_alert_evaluations_total``,
``repro_alert_transitions_total{rule, to}``, the
``repro_alerts_firing`` gauge, and the evaluation-latency
``repro_alert_eval_seconds`` :class:`~repro.obs.SketchHistogram`.

>>> engine = AlertEngine(recorder, rules=[
...     QuantileRule("api-p99", "repro_ingest_seconds", q=0.99,
...                  threshold=0.25, for_duration=30.0, severity="critical"),
...     DriftRule("latency-drift", "repro_ingest_seconds",
...               baseline_windows=300, recent_windows=30),
... ], sinks=[LogSink()])
>>> engine.start()                  # daemon ticker at the recorder interval
>>> engine.as_dict()["rules"]       # current states (the /alerts payload)
>>> engine.stop()

The thread is a :class:`~repro.obs.ticker.Ticker`: a pass that raises
is counted in ``repro_background_errors_total`` and the next one runs.

``ObsServer`` serves the engine at ``GET /alerts`` and folds firing
severity≥critical alerts into the ``/healthz`` verdict; overhead of a
running 1 s engine is gated under 5% by the ``engine`` row of
``scripts/check_overhead.py`` (the A7 paired protocol).
"""

from __future__ import annotations

import json
import logging
import math
import threading
import time
from collections import deque
from typing import Any, Callable

from .registry import MetricsRegistry
from .ticker import Ticker
from .timeline import TimelineRecorder

__all__ = [
    "AlertEngine",
    "AlertEvent",
    "AlertRule",
    "AlertSink",
    "ChangePointRule",
    "DriftRule",
    "JSONLFileSink",
    "LogSink",
    "QuantileRule",
    "RuleContext",
    "Sample",
    "ThresholdRule",
    "WebhookSink",
    "SEVERITIES",
]

#: severity levels, least to most severe.
SEVERITIES = ("info", "warning", "critical")

#: the four states every rule's machine moves through.
INACTIVE, PENDING, FIRING, RESOLVED = "inactive", "pending", "firing", "resolved"

_OPS: dict[str, Callable[[float, float], bool]] = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
}


def severity_rank(severity: str) -> int:
    """Position of ``severity`` in :data:`SEVERITIES` (raises on unknown)."""
    try:
        return SEVERITIES.index(severity)
    except ValueError:
        raise ValueError(
            f"unknown severity {severity!r}; expected one of {SEVERITIES}"
        ) from None


class Sample:
    """One rule evaluation: observed value vs threshold, breached or not.

    ``context`` carries detector-specific extras (probe divergences,
    the ε decomposition, z-scores) that land in transition events and
    the ``/alerts`` payload — the "why" behind a firing alert.
    """

    __slots__ = ("value", "threshold", "breached", "context")

    def __init__(
        self,
        value: float,
        threshold: float,
        breached: bool,
        context: dict[str, Any] | None = None,
    ) -> None:
        self.value = float(value)
        self.threshold = float(threshold)
        self.breached = bool(breached)
        self.context = dict(context or {})

    def __repr__(self) -> str:
        flag = "BREACH" if self.breached else "ok"
        return f"Sample({self.value:.6g} vs {self.threshold:.6g}, {flag})"


class RuleContext:
    """What a rule sees at evaluation time: the recorder, frozen ``now``.

    Thin on purpose — rules express their window arithmetic in
    multiples of :attr:`interval` and read through
    :meth:`~repro.obs.TimelineRecorder.query`, which folds KLL window
    partials with the k-way merge kernel and (with a store attached)
    transparently reaches past the ring for deep baselines: windows
    older than the ring come from the store as rows of the one series
    asked for, never as whole revived windows.
    """

    __slots__ = ("recorder", "now")

    def __init__(self, recorder: TimelineRecorder, now: float) -> None:
        self.recorder = recorder
        self.now = now

    @property
    def interval(self) -> float:
        return self.recorder.interval

    def query(self, metric: str, since: float, until: float, labels: dict):
        """Range-aggregate one metric (counters sum, sketches fold)."""
        return self.recorder.query(metric, since=since, until=until, **labels)


class AlertRule:
    """Base rule: identity, severity, and the state-machine timing knobs.

    Parameters
    ----------
    name:
        Unique rule name (engine registration rejects duplicates).
    metric:
        The timeline series the rule watches.
    labels:
        Label filter passed to the timeline query (None lets the
        recorder infer an unambiguous labelset).
    severity:
        One of :data:`SEVERITIES`; ``/healthz`` folds in rules at or
        above ``critical`` while they fire.
    for_duration:
        Seconds a breach must persist (state *pending*) before the
        rule fires; 0 fires on the first breached evaluation.
    resolve_after:
        Seconds the condition must stay clear before a firing rule
        resolves — the flap damper; 0 resolves on the first clear
        evaluation.
    """

    kind = "rule"

    def __init__(
        self,
        name: str,
        metric: str,
        labels: dict[str, str] | None = None,
        severity: str = "warning",
        for_duration: float = 0.0,
        resolve_after: float = 0.0,
    ) -> None:
        severity_rank(severity)  # validate
        if for_duration < 0 or resolve_after < 0:
            raise ValueError("for_duration/resolve_after must be >= 0")
        self.name = str(name)
        self.metric = str(metric)
        self.labels = dict(labels or {})
        self.severity = severity
        self.for_duration = float(for_duration)
        self.resolve_after = float(resolve_after)

    def evaluate(self, ctx: RuleContext) -> Sample | None:
        """The rule's condition at ``ctx.now``; None = not enough data."""
        raise NotImplementedError

    def _params(self) -> dict[str, Any]:
        """Subclass-specific knobs for :meth:`describe`."""
        return {}

    def describe(self) -> dict[str, Any]:
        """Static rule description (the ``/alerts`` rule header)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "metric": self.metric,
            "labels": dict(self.labels),
            "severity": self.severity,
            "for_duration": self.for_duration,
            "resolve_after": self.resolve_after,
            **self._params(),
        }

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r} on {self.metric!r})"


class ThresholdRule(AlertRule):
    """Counter rate/total or gauge value against a fixed threshold.

    ``source`` picks the aggregate over the last ``over`` windows:
    ``"rate"`` (counter increments per second), ``"total"`` (summed
    deltas), or ``"last"`` (most recent per-window value — the gauge
    form).  ``op`` is one of ``> >= < <=``.
    """

    kind = "threshold"

    def __init__(
        self,
        name: str,
        metric: str,
        threshold: float,
        op: str = ">",
        over: int = 5,
        source: str = "rate",
        **kwargs: Any,
    ) -> None:
        super().__init__(name, metric, **kwargs)
        if op not in _OPS:
            raise ValueError(f"op must be one of {sorted(_OPS)}, got {op!r}")
        if over < 1:
            raise ValueError(f"over must be >= 1 window, got {over}")
        if source not in ("rate", "total", "last"):
            raise ValueError(f"source must be rate/total/last, got {source!r}")
        self.threshold = float(threshold)
        self.op = op
        self.over = int(over)
        self.source = source

    def _params(self) -> dict[str, Any]:
        return {
            "threshold": self.threshold,
            "op": self.op,
            "over": self.over,
            "source": self.source,
        }

    def evaluate(self, ctx: RuleContext) -> Sample | None:
        result = ctx.query(
            self.metric, ctx.now - self.over * ctx.interval, ctx.now, self.labels
        )
        if result.n_windows == 0:
            return None
        if self.source == "rate":
            value = result.rate
        elif self.source == "total":
            value = result.total
        else:
            value = result.last
        if value != value:  # NaN (empty coverage / zero duration)
            return None
        return Sample(value, self.threshold, _OPS[self.op](value, self.threshold))


class QuantileRule(AlertRule):
    """A histogram quantile over the last ``over`` windows vs a threshold.

    The value is ``quantile(q)`` of the ``merge_many`` fold of the
    covered window KLL partials — the same rank guarantee as a live
    histogram over those windows' raw observations.  With
    ``for_duration=D`` this is the SLO rule "pQ > X for D seconds".
    """

    kind = "quantile"

    def __init__(
        self,
        name: str,
        metric: str,
        threshold: float,
        q: float = 0.99,
        op: str = ">",
        over: int = 5,
        min_count: int = 1,
        **kwargs: Any,
    ) -> None:
        super().__init__(name, metric, **kwargs)
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if op not in _OPS:
            raise ValueError(f"op must be one of {sorted(_OPS)}, got {op!r}")
        if over < 1:
            raise ValueError(f"over must be >= 1 window, got {over}")
        self.threshold = float(threshold)
        self.q = float(q)
        self.op = op
        self.over = int(over)
        self.min_count = int(min_count)

    def _params(self) -> dict[str, Any]:
        return {
            "threshold": self.threshold,
            "q": self.q,
            "op": self.op,
            "over": self.over,
            "min_count": self.min_count,
        }

    def evaluate(self, ctx: RuleContext) -> Sample | None:
        result = ctx.query(
            self.metric, ctx.now - self.over * ctx.interval, ctx.now, self.labels
        )
        if result.count < self.min_count:
            return None
        value = result.quantile(self.q)
        return Sample(
            value,
            self.threshold,
            _OPS[self.op](value, self.threshold),
            context={"count": result.count, "n_windows": result.n_windows},
        )


class DriftRule(AlertRule):
    """KLL distribution drift: recent CDF vs baseline CDF at probe ranks.

    Folds the baseline range (the ``baseline_windows`` windows
    preceding the recent range) and the recent range (the last
    ``recent_windows`` windows) with the k-way KLL merge kernel, takes
    probe values at fixed baseline ranks, and measures the largest
    absolute CDF gap between the two folds at those values.  The alarm
    threshold is *derived, not tuned*::

        margin · (ε_baseline + ε_recent)  +  z · √(¼/n_b + ¼/n_r)

    The first term is the combined sketch rank-error bound (KLL merges
    add no error, so each fold's ε is its own
    :meth:`~repro.quantiles.KLLSketch.rank_error_bound`); the second
    bounds binomial sampling noise between two finite draws of the
    *same* distribution (worst case p = ½, ``z`` standard deviations).
    A gap above both cannot be explained by approximation or sampling —
    it is a real distribution change.  ``min_count`` skips evaluation
    until both folds carry enough observations for the noise term to
    be meaningful.
    """

    kind = "drift"

    #: default probe ranks — mid-distribution, where KLL is tightest.
    DEFAULT_PROBES = (0.1, 0.25, 0.5, 0.75, 0.9)

    def __init__(
        self,
        name: str,
        metric: str,
        baseline_windows: int = 60,
        recent_windows: int = 5,
        probes: tuple[float, ...] = DEFAULT_PROBES,
        margin: float = 1.0,
        z: float = 3.0,
        min_count: int = 500,
        **kwargs: Any,
    ) -> None:
        super().__init__(name, metric, **kwargs)
        if baseline_windows < 1 or recent_windows < 1:
            raise ValueError("baseline_windows/recent_windows must be >= 1")
        if not probes or not all(0.0 < p < 1.0 for p in probes):
            raise ValueError(f"probes must be ranks in (0, 1), got {probes}")
        if margin <= 0 or z < 0:
            raise ValueError("margin must be > 0 and z >= 0")
        self.baseline_windows = int(baseline_windows)
        self.recent_windows = int(recent_windows)
        self.probes = tuple(float(p) for p in probes)
        self.margin = float(margin)
        self.z = float(z)
        self.min_count = int(min_count)

    def _params(self) -> dict[str, Any]:
        return {
            "baseline_windows": self.baseline_windows,
            "recent_windows": self.recent_windows,
            "probes": list(self.probes),
            "margin": self.margin,
            "z": self.z,
            "min_count": self.min_count,
        }

    def evaluate(self, ctx: RuleContext) -> Sample | None:
        split = ctx.now - self.recent_windows * ctx.interval
        since = split - self.baseline_windows * ctx.interval
        recent = ctx.query(self.metric, split, ctx.now, self.labels)
        baseline = ctx.query(self.metric, since, split, self.labels)
        if baseline.sketch is None or recent.sketch is None:
            return None
        n_b, n_r = baseline.count, recent.count
        if min(n_b, n_r) < self.min_count:
            return None
        epsilon = (
            baseline.sketch.rank_error_bound() + recent.sketch.rank_error_bound()
        )
        noise = self.z * math.sqrt(0.25 / n_b + 0.25 / n_r)
        threshold = self.margin * epsilon + noise
        values = [baseline.sketch.quantile(p) for p in self.probes]
        base_cdf = baseline.sketch.cdf(values)
        recent_cdf = recent.sketch.cdf(values)
        gaps = [abs(r - b) for r, b in zip(recent_cdf, base_cdf)]
        divergence = max(gaps)
        return Sample(
            divergence,
            threshold,
            divergence > threshold,
            context={
                "epsilon": epsilon,
                "noise": noise,
                "baseline_count": n_b,
                "recent_count": n_r,
                "probe": self.probes[gaps.index(divergence)],
            },
        )


class ChangePointRule(AlertRule):
    """Change-point on counter deltas: robust z-score vs a trailing window.

    The newest window's delta is scored against the ``trailing``
    per-window deltas before it with the Iglewicz–Hoaglin modified
    z-score ``0.6745·(x − median)/MAD`` (falling back to the mean
    absolute deviation when MAD degenerates to zero).  Robust location
    and scale keep a single earlier spike from masking — or causing —
    a detection.  ``min_delta`` suppresses firing on absolute changes
    too small to matter regardless of how tight the history is.
    """

    kind = "changepoint"

    #: MAD→σ and MeanAD→σ consistency constants for normal data.
    _MAD_SCALE = 1.4826
    _MEANAD_SCALE = 1.2533

    def __init__(
        self,
        name: str,
        metric: str,
        trailing: int = 30,
        z_threshold: float = 3.5,
        min_history: int = 8,
        min_delta: float = 0.0,
        **kwargs: Any,
    ) -> None:
        super().__init__(name, metric, **kwargs)
        if trailing < 2:
            raise ValueError(f"trailing must be >= 2 windows, got {trailing}")
        if z_threshold <= 0:
            raise ValueError(f"z_threshold must be > 0, got {z_threshold}")
        if min_history < 2:
            raise ValueError(f"min_history must be >= 2, got {min_history}")
        self.trailing = int(trailing)
        self.z_threshold = float(z_threshold)
        self.min_history = int(min_history)
        self.min_delta = float(min_delta)

    def _params(self) -> dict[str, Any]:
        return {
            "trailing": self.trailing,
            "z_threshold": self.z_threshold,
            "min_history": self.min_history,
            "min_delta": self.min_delta,
        }

    @staticmethod
    def _median(values: list[float]) -> float:
        ordered = sorted(values)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[mid]
        return 0.5 * (ordered[mid - 1] + ordered[mid])

    def evaluate(self, ctx: RuleContext) -> Sample | None:
        result = ctx.query(
            self.metric,
            ctx.now - (self.trailing + 1) * ctx.interval,
            ctx.now,
            self.labels,
        )
        deltas = [v for _, v in result.values]
        if len(deltas) < self.min_history + 1:
            return None
        current, history = deltas[-1], deltas[:-1]
        median = self._median(history)
        deviation = abs(current - median)
        mad = self._median([abs(x - median) for x in history])
        scale = self._MAD_SCALE * mad
        if scale == 0.0:
            mean_ad = sum(abs(x - median) for x in history) / len(history)
            scale = self._MEANAD_SCALE * mean_ad
        if scale == 0.0:
            # Perfectly flat history: any change clearing min_delta is
            # infinitely surprising; none at all scores zero.
            score = math.inf if deviation > 0 else 0.0
        else:
            score = 0.6745 * deviation / scale
        breached = score > self.z_threshold and deviation >= self.min_delta
        return Sample(
            score,
            self.z_threshold,
            breached,
            context={"delta": current, "median": median, "mad": mad},
        )


class AlertEvent:
    """One state transition: what fired (or resolved), when, and why."""

    __slots__ = (
        "rule", "kind", "severity", "metric", "labels",
        "from_state", "to_state", "at", "value", "threshold", "context",
    )

    def __init__(
        self,
        rule: AlertRule,
        from_state: str,
        to_state: str,
        at: float,
        sample: Sample | None,
    ) -> None:
        self.rule = rule.name
        self.kind = rule.kind
        self.severity = rule.severity
        self.metric = rule.metric
        self.labels = dict(rule.labels)
        self.from_state = from_state
        self.to_state = to_state
        self.at = float(at)
        self.value = sample.value if sample is not None else None
        self.threshold = sample.threshold if sample is not None else None
        self.context = dict(sample.context) if sample is not None else {}

    def as_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "kind": self.kind,
            "severity": self.severity,
            "metric": self.metric,
            "labels": self.labels,
            "from": self.from_state,
            "to": self.to_state,
            "at": self.at,
            "value": self.value,
            "threshold": self.threshold,
            "context": self.context,
        }

    def __repr__(self) -> str:
        return (
            f"AlertEvent({self.rule!r}: {self.from_state} -> {self.to_state} "
            f"@ {self.at:.3f})"
        )


class AlertSink:
    """Transition consumer protocol; failures are counted, never fatal."""

    name = "sink"

    def emit(self, event: AlertEvent) -> None:
        raise NotImplementedError


class LogSink(AlertSink):
    """Emit transitions through stdlib :mod:`logging`.

    Transitions *to firing* log at ``ERROR`` for critical rules and
    ``WARNING`` otherwise; every other transition logs at ``INFO``.
    """

    name = "log"

    def __init__(self, logger: logging.Logger | None = None) -> None:
        self.logger = logger or logging.getLogger("repro.obs.alerts")

    def emit(self, event: AlertEvent) -> None:
        if event.to_state == FIRING:
            level = (
                logging.ERROR if event.severity == "critical" else logging.WARNING
            )
        else:
            level = logging.INFO
        self.logger.log(
            level,
            "alert %s [%s/%s] %s -> %s (value=%s threshold=%s)",
            event.rule, event.kind, event.severity,
            event.from_state, event.to_state, event.value, event.threshold,
        )


class JSONLFileSink(AlertSink):
    """Append each transition as one JSON line (the durable audit trail)."""

    name = "jsonl"

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = threading.Lock()

    def emit(self, event: AlertEvent) -> None:
        line = json.dumps(event.as_dict(), sort_keys=True)
        with self._lock, open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")


class WebhookSink(AlertSink):
    """POST each transition as JSON with bounded retry + backoff.

    Attempts are made synchronously on the evaluation thread (the
    engine ticks at human-scale intervals, so a slow webhook delays
    the *next* evaluation rather than any hot path).  After
    ``retries`` failed attempts the final exception propagates to the
    engine, which counts it in ``repro_alert_sink_errors_total`` and
    carries on.
    """

    name = "webhook"

    def __init__(
        self,
        url: str,
        retries: int = 3,
        backoff: float = 0.5,
        timeout: float = 5.0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if retries < 1:
            raise ValueError(f"retries must be >= 1, got {retries}")
        self.url = url
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.timeout = float(timeout)
        self._sleep = sleep
        #: POST attempts made over the sink's lifetime (tests, ops).
        self.attempts = 0

    def emit(self, event: AlertEvent) -> None:
        import urllib.request

        payload = json.dumps(event.as_dict()).encode("utf-8")
        request = urllib.request.Request(
            self.url,
            data=payload,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        last_error: Exception | None = None
        for attempt in range(self.retries):
            self.attempts += 1
            try:
                with urllib.request.urlopen(request, timeout=self.timeout):
                    return
            except Exception as exc:  # noqa: BLE001 - any failure retries
                last_error = exc
                if attempt + 1 < self.retries:
                    self._sleep(self.backoff * (2**attempt))
        raise last_error  # type: ignore[misc]


class _RuleStatus:
    """Per-rule runtime state: machine position, holds, and spark context."""

    __slots__ = (
        "state", "since", "pending_since", "ok_since", "last_value",
        "last_threshold", "last_context", "last_evaluated", "fired_count",
        "flaps", "last_resolved_at", "errors", "recent",
    )

    #: per-rule (t, value) samples kept for the dashboard sparkline.
    SPARK_SAMPLES = 60

    def __init__(self) -> None:
        self.state = INACTIVE
        self.since: float | None = None
        self.pending_since: float | None = None
        self.ok_since: float | None = None
        self.last_value: float | None = None
        self.last_threshold: float | None = None
        self.last_context: dict[str, Any] = {}
        self.last_evaluated: float | None = None
        self.fired_count = 0
        self.flaps = 0
        self.last_resolved_at: float | None = None
        self.errors = 0
        self.recent: deque = deque(maxlen=self.SPARK_SAMPLES)


class AlertEngine(Ticker):
    """Evaluate rules against a timeline on a daemon ticker.

    Parameters
    ----------
    recorder:
        The :class:`~repro.obs.TimelineRecorder` whose windows the
        rules read (with a store attached, deep baselines reach past
        the ring automatically).
    rules, sinks:
        Initial rule set and transition sinks (:meth:`add_rule` /
        :meth:`add_sink` extend both later).
    interval:
        Evaluation period for :meth:`start`; None defaults to the
        recorder's window interval.
    registry:
        Where the ``repro_alert_*`` meters land; None uses the
        recorder's registry — the engine's own telemetry shows up on
        the very timeline it watches.
    flap_window:
        A re-fire within this many seconds of the last resolve counts
        as a flap; while ``flaps > 0`` the rule's ``resolve_after``
        hold doubles (damping).  Flap counts reset after a full
        ``flap_window`` without re-firing.
    history:
        Bounded count of recent transitions kept for ``/alerts``.
    clock:
        Epoch-seconds source of each pass's ``now`` (the thread's
        schedule is monotonic); None uses the recorder's clock, so a
        manually driven recorder drives a deterministic engine too.
    """

    _thread_name = "repro-obs-alerts"

    def __init__(
        self,
        recorder: TimelineRecorder,
        rules: list[AlertRule] | tuple = (),
        sinks: list[AlertSink] | tuple = (),
        interval: float | None = None,
        registry: MetricsRegistry | None = None,
        flap_window: float = 300.0,
        history: int = 256,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if interval is not None and interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        if history < 1:
            raise ValueError(f"history must be >= 1, got {history}")
        self.recorder = recorder
        self.interval = float(interval) if interval is not None else recorder.interval
        self.flap_window = float(flap_window)
        self._registry = registry
        self._clock = clock if clock is not None else recorder._clock
        self._rules: dict[str, AlertRule] = {}
        self._status: dict[str, _RuleStatus] = {}
        self._sinks: list[AlertSink] = list(sinks)
        self._history: deque = deque(maxlen=history)
        self._lock = threading.RLock()
        #: evaluation passes completed.
        self.evaluations = 0
        for rule in rules:
            self.add_rule(rule)

    # -- configuration ---------------------------------------------------------

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else self.recorder.registry

    def add_rule(self, rule: AlertRule) -> "AlertEngine":
        """Register one rule (duplicate names raise ``ValueError``)."""
        with self._lock:
            if rule.name in self._rules:
                raise ValueError(f"duplicate rule name {rule.name!r}")
            self._rules[rule.name] = rule
            self._status[rule.name] = _RuleStatus()
        return self

    def add_sink(self, sink: AlertSink) -> "AlertEngine":
        """Register one transition sink."""
        with self._lock:
            self._sinks.append(sink)
        return self

    @property
    def rules(self) -> list[AlertRule]:
        with self._lock:
            return list(self._rules.values())

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, now: float | None = None) -> list[AlertEvent]:
        """Run one evaluation pass; returns the transitions it caused."""
        with self._lock:
            if now is None:
                now = self._clock()
            t0 = time.perf_counter()
            ctx = RuleContext(self.recorder, now)
            events: list[AlertEvent] = []
            for name, rule in self._rules.items():
                status = self._status[name]
                try:
                    sample = rule.evaluate(ctx)
                except Exception:
                    status.errors += 1
                    self.registry.counter(
                        "repro_alert_rule_errors_total",
                        "Rule evaluations that raised.",
                        rule=name,
                    ).inc()
                    sample = None
                status.last_evaluated = now
                if sample is not None:
                    status.last_value = sample.value
                    status.last_threshold = sample.threshold
                    status.last_context = dict(sample.context)
                    status.recent.append((now, sample.value, sample.threshold))
                event = self._advance(rule, status, sample, now)
                if event is not None:
                    events.append(event)
            firing = sum(1 for s in self._status.values() if s.state == FIRING)
            self.evaluations += 1
            registry = self.registry
            registry.counter(
                "repro_alert_evaluations_total", "Alert evaluation passes."
            ).inc()
            registry.gauge(
                "repro_alerts_firing", "Rules currently in the firing state."
            ).set(firing)
            for event in events:
                registry.counter(
                    "repro_alert_transitions_total",
                    "Alert state transitions by rule and destination.",
                    rule=event.rule,
                    to=event.to_state,
                ).inc()
                self._history.append(event)
            registry.histogram(
                "repro_alert_eval_seconds", "Wall time per evaluation pass."
            ).observe(time.perf_counter() - t0)
            sinks = list(self._sinks)
        for event in events:
            for sink in sinks:
                try:
                    sink.emit(event)
                except Exception:
                    self.registry.counter(
                        "repro_alert_sink_errors_total",
                        "Transition deliveries that failed after retries.",
                        sink=getattr(sink, "name", type(sink).__name__),
                    ).inc()
        return events

    def _advance(
        self,
        rule: AlertRule,
        status: _RuleStatus,
        sample: Sample | None,
        now: float,
    ) -> AlertEvent | None:
        """Drive one rule's state machine; returns the transition, if any."""
        breached = sample is not None and sample.breached
        state = status.state
        target: str | None = None
        if breached:
            status.ok_since = None
            if state in (INACTIVE, RESOLVED):
                if status.pending_since is None:
                    status.pending_since = now
                if rule.for_duration <= 0:
                    target = FIRING
                else:
                    target = PENDING
            elif state == PENDING:
                if (
                    status.pending_since is not None
                    and now - status.pending_since >= rule.for_duration
                ):
                    target = FIRING
        else:
            status.pending_since = None
            if state == PENDING:
                target = INACTIVE
            elif state == FIRING:
                if status.ok_since is None:
                    status.ok_since = now
                hold = rule.resolve_after * (2.0 if status.flaps > 0 else 1.0)
                if now - status.ok_since >= hold:
                    target = RESOLVED
        if target is None or target == state:
            return None
        if target == FIRING:
            status.fired_count += 1
            status.pending_since = None
            if (
                status.last_resolved_at is not None
                and now - status.last_resolved_at < self.flap_window
            ):
                status.flaps += 1
            else:
                status.flaps = 0
        elif target == RESOLVED:
            status.last_resolved_at = now
            status.ok_since = None
        event = AlertEvent(rule, state, target, now, sample)
        status.state = target
        status.since = now
        return event

    # -- lifecycle -------------------------------------------------------------

    def start(self, interval: float | None = None) -> "AlertEngine":
        """Evaluate every ``interval`` seconds (None: :attr:`interval`) from a daemon thread.

        Passes keep to a monotonic grid of the period, the first at its
        next point; a pass that raises is counted and the next one still
        runs (:mod:`repro.obs.ticker`).
        """
        self._start(self.interval if interval is None else interval)
        if interval is not None:
            self.interval = float(interval)
        return self

    def _pass(self, deadline: float) -> None:
        self.evaluate()

    # -- introspection ---------------------------------------------------------

    def firing(self, min_severity: str = "info") -> list[dict]:
        """Status dicts of rules currently firing at ``min_severity`` or above."""
        floor = severity_rank(min_severity)
        with self._lock:
            return [
                self._status_dict(name)
                for name, status in self._status.items()
                if status.state == FIRING
                and severity_rank(self._rules[name].severity) >= floor
            ]

    def healthy(self, min_severity: str = "critical") -> bool:
        """False while any rule at ``min_severity`` or above is firing."""
        return not self.firing(min_severity)

    def _status_dict(self, name: str) -> dict[str, Any]:
        rule = self._rules[name]
        status = self._status[name]
        return {
            **rule.describe(),
            "state": status.state,
            "since": status.since,
            "pending_since": status.pending_since,
            "last_evaluated": status.last_evaluated,
            "value": status.last_value,
            "threshold": status.last_threshold,
            "context": dict(status.last_context),
            "fired_count": status.fired_count,
            "flaps": status.flaps,
            "errors": status.errors,
            "recent": [list(point) for point in status.recent],
        }

    def history(self, limit: int | None = None) -> list[dict]:
        """Recent transitions, newest last (bounded by the history size)."""
        with self._lock:
            events = list(self._history)
        if limit is not None:
            # explicit, because events[-0:] would be the whole list
            events = events[-limit:] if limit > 0 else []
        return [event.as_dict() for event in events]

    def as_dict(self, history: int = 50) -> dict[str, Any]:
        """Engine snapshot: rule states + recent transitions (``/alerts``)."""
        with self._lock:
            rules = [self._status_dict(name) for name in self._rules]
            firing = sum(1 for s in self._status.values() if s.state == FIRING)
        return {
            "interval": self.interval,
            "running": self.running,
            "evaluations": self.evaluations,
            "firing": firing,
            "healthy": self.healthy(),
            "rules": rules,
            "history": self.history(history),
        }

    def __repr__(self) -> str:
        state = "running" if self.running else "stopped"
        return (
            f"AlertEngine({state}, rules={len(self._rules)}, "
            f"evaluations={self.evaluations})"
        )
