"""Live scrape endpoint: metrics, traces, timeline, profiling, dashboard.

The operational end of the paper's telemetry pathway: a sketch-backed
monitoring process is only useful if the monitoring system can *get
at* the numbers.  :class:`ObsServer` is a stdlib-only
(`http.server.ThreadingHTTPServer`) endpoint exposing

``GET /metrics``
    The registry in Prometheus text exposition format
    (``text/plain; version=0.0.4``) — point a Prometheus scrape job or
    ``curl`` at it.  ``?format=json`` serves the structured snapshot
    instead (the same :func:`~repro.obs.render_json` payload
    ``scripts/obs_report.py`` reads and writes).
``GET /trace``
    The tracer's span ring buffer as JSON (the same payload
    :meth:`~repro.obs.Tracer.to_json` writes), for ad-hoc inspection
    or piping into ``scripts/trace_report.py``.
``GET /trace?format=chrome``
    The Chrome trace-event form (load in ``chrome://tracing`` /
    Perfetto).
``GET /healthz``
    JSON verdicts from every registered
    :class:`~repro.obs.AccuracyAuditor` — HTTP 200 while all auditors
    report healthy, 503 the moment any sketch's observed error exceeds
    its bound, so the audit loop plugs straight into load-balancer
    health checks.  With an :class:`~repro.obs.alerts.AlertEngine`
    attached, firing alerts of severity ``critical`` flip the verdict
    to 503 as well (the payload carries an ``alerts`` summary).
``GET /alerts``
    The attached alert engine's snapshot: per-rule state-machine
    positions (with last value/threshold, detector context, and the
    recent sample trail the dashboard sparks), plus the bounded
    transition history.  ``?history=N`` bounds the transitions
    returned; ``?firing=1`` returns only currently-firing rules
    (``&severity=`` floors the severity).  404 until an engine is
    attached (:meth:`ObsServer.attach_alerts`).
``GET /timeline``
    The attached :class:`~repro.obs.TimelineRecorder`'s windowed
    history.  Bare: coverage meta plus the series index.
    ``?metric=NAME[&since=T&until=T&step=S&q=0.5,0.99]``: per-step
    points plus the ``[since, until)`` range aggregate (histogram
    ranges are ``merge_many``-folded window KLL partials, so range-p99
    carries the live histogram's rank guarantee).  ``?all=1``: every
    series with points in one payload (what ``/dashboard`` polls).
    When the recorder has a :class:`~repro.store.SketchStore`
    attached, a ``?since=`` older than the ring transparently reaches
    into persisted segments.  The body is
    :meth:`~repro.obs.TimelineRecorder.metric_json`: each series' rows
    are gathered once for both its range block and its points, and the
    points are written from the encoded answers ring windows keep.
    ``since``, ``until`` and ``step`` must be finite and every ``q`` in
    [0, 1] (else 400 naming the parameter).
``GET /query``
    The durable store's query engine as JSON.  Bare: store stats plus
    the persisted series index.  ``?metric=NAME[&since=T&until=T
    &group_by=LABEL&q=0.5,0.99&<label>=<value>]``: the ``[since,
    until)`` range aggregate — counters sum, gauges keep last values,
    sketch partials ``merge_many``-fold (same rank guarantee as live
    queries); unreserved query params filter by label, ``group_by``
    partitions the answer per label value.  404 until a store is
    attached (:meth:`ObsServer.attach_store`, or implicitly via a
    timeline recorder whose store is attached).
``GET /dashboard``
    A single self-contained HTML page (no external assets):
    auto-refreshing sparklines for every recorded metric, quantile
    bands for histograms, the auditor verdict strip, and the
    trace-drop / eviction / propagation counter strip.
``GET /profile?seconds=N``
    On-demand statistical profile: samples every thread's stack for
    ``N`` seconds (default 1, ``&hz=`` to adjust the rate) via
    :func:`~repro.obs.profile_for` and returns collapsed-stack text
    (flamegraph.pl / speedscope-compatible); ``&format=json`` for the
    structured form.

The server is **off by default** and costs nothing until
:meth:`start` is called; requests are served from daemon threads and
never touch the sketch hot path (they read registry/tracer/timeline
snapshots under their own locks).  :meth:`start` raises on
double-start; :meth:`stop` is idempotent, including before any start.

>>> server = ObsServer(port=0)          # 0 → ephemeral port
>>> server.add_auditor(auditor)
>>> server.attach_timeline(recorder)     # enables /timeline + dashboard data
>>> with server:                         # start()/stop()
...     print(server.url)                # e.g. http://127.0.0.1:49363
...     ...  # curl $url/metrics, $url/dashboard, $url/profile?seconds=2

When constructed without an explicit ``registry``/``tracer`` the
handlers resolve the *process-global* ones at request time, so a
server started before ``set_registry``/``set_tracer`` still serves the
current instruments.
"""

from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from .registry import MetricsRegistry, get_registry
from .trace import Tracer, get_tracer

__all__ = ["ObsServer"]

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: upper bound on one ``/profile`` capture; a scrape must not be able
#: to park a handler thread for minutes.
MAX_PROFILE_SECONDS = 60.0


class _BadParam(ValueError):
    """A request parameter failed to parse — carries the param name.

    Error responses are a uniform JSON envelope
    ``{"error": <message>, "param": <name-or-null>}`` on every route:
    400 for malformed parameters, 404 for missing attachments /
    unknown resources / unknown routes, 503 only from the ``/healthz``
    verdict.  ``param`` names the offending query parameter when the
    failure is parameter-specific, and is null otherwise.
    """

    def __init__(self, param: str, message: str) -> None:
        super().__init__(message)
        self.param = param


def _error(message: str, param: str | None = None) -> str:
    """Render the uniform error envelope (every route, every status)."""
    return json.dumps({"error": message, "param": param})


def _float_param(query: dict, name: str, default: float | None = None):
    """A finite number: ``nan`` and ``inf`` would make a body that is not JSON."""
    values = query.get(name)
    if not values:
        return default
    try:
        value = float(values[0])
    except (TypeError, ValueError):
        raise _BadParam(name, f"{name} must be a number, got {values[0]!r}") from None
    if not math.isfinite(value):
        raise _BadParam(name, f"{name} must be finite, got {values[0]!r}")
    return value


def _int_param(query: dict, name: str, default: int | None = None):
    values = query.get(name)
    if not values:
        return default
    try:
        return int(values[0])
    except (TypeError, ValueError):
        raise _BadParam(
            name, f"{name} must be an integer, got {values[0]!r}"
        ) from None


def _quantiles_param(query: dict) -> tuple[float, ...]:
    raw = query.get("q", ["0.5,0.99"])[0]
    try:
        quantiles = tuple(float(q) for q in raw.split(",") if q)
    except (TypeError, ValueError):
        raise _BadParam(
            "q", f"q must be comma-separated ranks, got {raw!r}"
        ) from None
    if not all(0.0 <= q <= 1.0 for q in quantiles):
        raise _BadParam("q", f"q ranks must be in [0, 1], got {raw!r}")
    return quantiles


class _Handler(BaseHTTPRequestHandler):
    server: "_ObsHTTPServer"

    # BaseHTTPRequestHandler logs every request to stderr by default;
    # a scraped endpoint would spam the host process.
    def log_message(self, format: str, *args) -> None:
        pass

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        parsed = urlparse(self.path)
        route = parsed.path.rstrip("/") or "/"
        query = parse_qs(parsed.query)
        owner = self.server.owner
        try:
            if route == "/metrics":
                fmt = query.get("format", ["prometheus"])[0]
                body, status, ctype = owner._render_metrics(fmt)
                self._respond(status, ctype, body)
            elif route == "/trace":
                fmt = query.get("format", ["json"])[0]
                body, status = owner._render_trace(fmt)
                self._respond(status, "application/json", body)
            elif route == "/healthz":
                body, status = owner._render_health()
                self._respond(status, "application/json", body)
            elif route == "/timeline":
                body, status = owner._render_timeline(query)
                self._respond(status, "application/json", body)
            elif route == "/query":
                body, status = owner._render_query(query)
                self._respond(status, "application/json", body)
            elif route == "/alerts":
                body, status = owner._render_alerts(query)
                self._respond(status, "application/json", body)
            elif route == "/dashboard":
                from .dashboard import render_dashboard

                self._respond(200, "text/html; charset=utf-8", render_dashboard())
            elif route == "/profile":
                body, status, ctype = owner._render_profile(query)
                self._respond(status, ctype, body)
            elif route == "/":
                self._respond(
                    200,
                    "application/json",
                    json.dumps(
                        {
                            "endpoints": [
                                "/metrics",
                                "/trace",
                                "/healthz",
                                "/timeline",
                                "/query",
                                "/alerts",
                                "/dashboard",
                                "/profile",
                            ]
                        }
                    ),
                )
            else:
                self._respond(404, "application/json", _error(f"no route {route}"))
        except _BadParam as exc:  # malformed query param -> 400 with its name
            self._respond(400, "application/json", _error(str(exc), exc.param))
        except (ValueError, TypeError) as exc:  # other bad input -> 400, not a 500
            self._respond(400, "application/json", _error(str(exc)))

    def _respond(self, status: int, content_type: str, body: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)


class _ObsHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    owner: "ObsServer"


class ObsServer:
    """Serve metrics/trace/health/timeline/dashboard/profile for this process.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (read it back
        from :attr:`port` / :attr:`url` after :meth:`start`).
    registry, tracer:
        Explicit instruments to serve; None (the default) resolves the
        process-global registry/tracer live on every request.
    timeline:
        A :class:`~repro.obs.TimelineRecorder` backing ``/timeline``
        and the dashboard sparklines (also attachable later via
        :meth:`attach_timeline`); without one, ``/timeline`` answers
        404 and the dashboard shows only instantaneous state.
    store:
        A :class:`~repro.store.SketchStore` backing ``/query`` (also
        attachable later via :meth:`attach_store`).  When omitted, the
        handler falls back to the timeline recorder's attached store,
        so ``recorder.attach_store(...)`` alone lights up ``/query``.
    alerts:
        An :class:`~repro.obs.alerts.AlertEngine` backing ``/alerts``
        and folded into the ``/healthz`` verdict (also attachable
        later via :meth:`attach_alerts`).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        timeline=None,
        store=None,
        alerts=None,
    ) -> None:
        self.host = host
        self._requested_port = port
        self._registry = registry
        self._tracer = tracer
        self._timeline = timeline
        self._store = store
        self._alerts = alerts
        self._auditors: list = []
        self._server: _ObsHTTPServer | None = None
        self._thread: threading.Thread | None = None

    # -- instrument resolution (live, so late set_registry() still works) ------

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

    @property
    def tracer(self) -> Tracer:
        return self._tracer if self._tracer is not None else get_tracer()

    @property
    def timeline(self):
        return self._timeline

    @property
    def store(self):
        """The store backing ``/query``: explicit, else the timeline's."""
        if self._store is not None:
            return self._store
        timeline = self._timeline
        return getattr(timeline, "store", None) if timeline is not None else None

    def add_auditor(self, auditor) -> None:
        """Register an :class:`~repro.obs.AccuracyAuditor` with ``/healthz``."""
        self._auditors.append(auditor)

    def attach_timeline(self, recorder) -> None:
        """Back ``/timeline`` and the dashboard with ``recorder``."""
        self._timeline = recorder

    def attach_store(self, store) -> None:
        """Back ``/query`` with ``store`` (a :class:`~repro.store.SketchStore`)."""
        self._store = store

    @property
    def alerts(self):
        """The attached :class:`~repro.obs.alerts.AlertEngine`, or None."""
        return self._alerts

    def attach_alerts(self, engine) -> None:
        """Back ``/alerts`` with ``engine`` and fold it into ``/healthz``."""
        self._alerts = engine

    # -- rendering (called from handler threads) -------------------------------

    def _render_metrics(self, fmt: str = "prometheus") -> tuple[str, int, str]:
        from .export import render_json, render_prometheus

        if fmt in ("prometheus", "prom", "text"):
            return render_prometheus(self.registry), 200, PROMETHEUS_CONTENT_TYPE
        if fmt == "json":
            # The one JSON renderer — identical payload to
            # ``registry.to_json()`` / ``scripts/obs_report.py``.
            return render_json(self.registry), 200, "application/json"
        return (
            _error(f"unknown metrics format {fmt!r}", "format"),
            400,
            "application/json",
        )

    def _render_trace(self, fmt: str) -> tuple[str, int]:
        tracer = self.tracer
        if fmt == "chrome":
            return tracer.to_chrome_json(), 200
        if fmt == "json":
            return tracer.to_json(), 200
        return _error(f"unknown trace format {fmt!r}", "format"), 400

    def _render_health(self) -> tuple[str, int]:
        verdicts = [auditor.verdict() for auditor in self._auditors]
        healthy = all(v["healthy"] for v in verdicts)
        payload = {
            "healthy": healthy,
            "auditors": verdicts,
        }
        engine = self._alerts
        if engine is not None:
            # Firing critical alerts flip the verdict alongside the
            # auditors — a p99 SLO breach or distribution drift takes
            # the instance out of rotation the same way a busted
            # sketch bound does.
            critical = engine.firing("critical")
            payload["alerts"] = {
                "firing": len(engine.firing()),
                "critical": [rule["name"] for rule in critical],
            }
            if critical:
                payload["healthy"] = healthy = False
        return json.dumps(payload, indent=2), 200 if healthy else 503

    def _render_timeline(self, query: dict) -> tuple[str, int]:
        recorder = self._timeline
        if recorder is None:
            return (
                _error("no timeline recorder attached (ObsServer.attach_timeline)"),
                404,
            )
        since = _float_param(query, "since")
        until = _float_param(query, "until")
        step = _float_param(query, "step")
        quantiles = _quantiles_param(query)
        metric = query.get("metric", [None])[0]
        if metric is None and query.get("all", ["0"])[0] not in ("0", "", "false"):
            payload = recorder.as_dict(
                since=since, until=until, step=step, quantiles=quantiles
            )
            return json.dumps(payload), 200
        if metric is None:
            coverage = recorder.coverage()
            payload = {
                "interval": recorder.interval,
                "max_windows": recorder.max_windows,
                "windows": len(recorder),
                "ticks": recorder.ticks,
                "evicted": recorder.evicted,
                "running": recorder.running,
                "coverage": list(coverage) if coverage else None,
                "metrics": recorder.metrics(),
            }
            return json.dumps(payload), 200
        body = recorder.metric_json(
            metric, since=since, until=until, step=step, quantiles=quantiles
        )
        if body is None:
            return _error(f"no timeline data for metric {metric!r}", "metric"), 404
        return body, 200

    def _render_alerts(self, query: dict) -> tuple[str, int]:
        engine = self._alerts
        if engine is None:
            return (
                _error("no alert engine attached (ObsServer.attach_alerts)"),
                404,
            )
        history = _int_param(query, "history", 50)
        if history < 0:
            raise _BadParam("history", f"history must be >= 0, got {history}")
        severity = query.get("severity", ["info"])[0]
        try:
            from .alerts import severity_rank

            severity_rank(severity)
        except ValueError as exc:
            raise _BadParam("severity", str(exc)) from None
        if query.get("firing", ["0"])[0] not in ("0", "", "false"):
            return json.dumps({"firing": engine.firing(severity)}), 200
        return json.dumps(engine.as_dict(history=history)), 200

    @staticmethod
    def _result_payload(result, quantiles: tuple[float, ...]) -> dict:
        """JSON-safe dict for one :class:`~repro.obs.RangeResult`."""
        payload = {
            "kind": result.kind,
            "labels": result.labels,
            "start": result.start,
            "end": result.end,
            "n_windows": result.n_windows,
        }
        if result.kind == "counter":
            payload["total"] = result.total
            rate = result.rate
            payload["rate"] = None if rate != rate else rate
            payload["values"] = result.values
        elif result.kind == "gauge":
            last = result.last
            payload["last"] = None if last != last else last
            payload["values"] = result.values
        else:  # histogram / sketch partials (or empty)
            payload["count"] = result.count
            payload["quantiles"] = {
                str(q): (result.quantile(q) if result.count else None)
                for q in quantiles
            }
        return payload

    #: ``/query`` params with meaning of their own; everything else
    #: filters by label.
    _QUERY_RESERVED = frozenset({"metric", "since", "until", "group_by", "q"})

    def _render_query(self, query: dict) -> tuple[str, int]:
        store = self.store
        if store is None:
            return (
                _error("no sketch store attached (ObsServer.attach_store)"),
                404,
            )
        metric = query.get("metric", [None])[0]
        if metric is None:
            payload = {**store.stats(), "metrics": store.metrics()}
            return json.dumps(payload), 200
        since = _float_param(query, "since")
        until = _float_param(query, "until")
        group_by = query.get("group_by", [None])[0]
        quantiles = _quantiles_param(query)
        labels = {
            key: values[0]
            for key, values in query.items()
            if key not in self._QUERY_RESERVED
        }
        result = store.query(
            metric, since=since, until=until, group_by=group_by, **labels
        )
        base = {"metric": metric, "since": since, "until": until}
        if group_by is not None:
            payload = {
                **base,
                "group_by": group_by,
                "groups": {
                    value: self._result_payload(res, quantiles)
                    for value, res in result.items()
                },
            }
        else:
            payload = {**base, **self._result_payload(result, quantiles)}
        return json.dumps(payload), 200

    def _render_profile(self, query: dict) -> tuple[str, int, str]:
        from .profile import profile_for

        seconds = _float_param(query, "seconds", 1.0)
        hz = _float_param(query, "hz", 100.0)
        fmt = query.get("format", ["collapsed"])[0]
        if fmt not in ("collapsed", "json"):
            return (
                _error(f"unknown profile format {fmt!r}", "format"),
                400,
                "application/json",
            )
        if not 0 < seconds <= MAX_PROFILE_SECONDS:
            return (
                _error(
                    f"seconds must be in (0, {MAX_PROFILE_SECONDS:g}], "
                    f"got {seconds:g}",
                    "seconds",
                ),
                400,
                "application/json",
            )
        profiler = profile_for(seconds, hz=hz, tracer=self.tracer)
        if fmt == "json":
            return profiler.to_json(), 200, "application/json"
        return profiler.collapsed(), 200, "text/plain; charset=utf-8"

    # -- lifecycle -------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._server is not None

    @property
    def port(self) -> int:
        """The bound port (the requested one until :meth:`start`)."""
        if self._server is not None:
            return self._server.server_address[1]
        return self._requested_port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ObsServer":
        """Bind and serve from a daemon thread; raises if already running."""
        if self._server is not None:
            raise RuntimeError("ObsServer is already running")
        server = _ObsHTTPServer((self.host, self._requested_port), _Handler)
        server.owner = self
        self._server = server
        self._thread = threading.Thread(
            target=server.serve_forever,
            name="repro-obs-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the listener down and join the serving thread (idempotent,
        including when called before :meth:`start`)."""
        server, thread = self._server, self._thread
        self._server = None
        self._thread = None
        if server is not None:
            server.shutdown()
            server.server_close()
        if thread is not None:
            thread.join(timeout=5.0)

    def __enter__(self) -> "ObsServer":
        if self._server is None:
            self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def __repr__(self) -> str:
        state = f"running at {self.url}" if self.running else "stopped"
        return f"ObsServer({state}, auditors={len(self._auditors)})"
