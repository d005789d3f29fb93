"""ObsServer: /metrics, /trace, /healthz over a live ephemeral port."""

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

import repro.obs as obs
from repro import HyperLogLog
from repro.obs import AccuracyAuditor, MetricsRegistry, ObsServer, Tracer


def fetch(url: str):
    """(status, body) — HTTPError statuses returned, not raised."""
    try:
        with urllib.request.urlopen(url, timeout=5) as resp:
            return resp.status, resp.read().decode(), resp.headers
    except urllib.error.HTTPError as err:
        return err.code, err.read().decode(), err.headers


@pytest.fixture
def server():
    srv = ObsServer(port=0)
    srv.start()
    yield srv
    srv.stop()


class TestEndpoints:
    def test_metrics_serves_prometheus_text(self, registry, server):
        registry.counter("repro_demo_total", "Demo.").inc(3)
        status, body, headers = fetch(server.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        assert "repro_demo_total 3\n" in body
        assert body.endswith("\n") and not body.endswith("\n\n")

    def test_trace_serves_span_json(self, server):
        tracer = Tracer()
        previous = obs.set_tracer(tracer)
        try:
            with obs.enable_tracing():
                with tracer.span("served", n=1):
                    pass
            status, body, _ = fetch(server.url + "/trace")
        finally:
            obs.set_tracer(previous if previous is not None else Tracer())
        assert status == 200
        spans = json.loads(body)
        assert [s["name"] for s in spans] == ["served"]

    def test_trace_chrome_format(self, server):
        tracer = Tracer()
        previous = obs.set_tracer(tracer)
        try:
            with obs.enable_tracing():
                with tracer.span("served"):
                    pass
            status, body, _ = fetch(server.url + "/trace?format=chrome")
        finally:
            obs.set_tracer(previous if previous is not None else Tracer())
        assert status == 200
        chrome = json.loads(body)
        assert len(chrome["traceEvents"]) == 1
        assert chrome["traceEvents"][0]["ph"] == "X"

    def test_trace_unknown_format_is_400(self, server):
        status, body, _ = fetch(server.url + "/trace?format=nope")
        assert status == 400
        assert "unknown trace format" in json.loads(body)["error"]

    def test_healthz_healthy_and_unhealthy(self, server):
        rng = np.random.default_rng(5)
        sketch = HyperLogLog(p=10, seed=1)
        auditor = AccuracyAuditor(sketch, check_every=0)
        auditor.update_many(rng.integers(0, 10_000, size=50_000))
        auditor.check()
        server.add_auditor(auditor)

        status, body, _ = fetch(server.url + "/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload["healthy"] is True
        assert payload["auditors"][0]["sketch"] == "HyperLogLog"

        sketch._registers[:] = 30  # corrupt, then re-check
        auditor.check()
        status, body, _ = fetch(server.url + "/healthz")
        assert status == 503
        assert json.loads(body)["healthy"] is False

    def test_healthz_with_no_auditors_is_healthy(self, server):
        status, body, _ = fetch(server.url + "/healthz")
        assert status == 200
        assert json.loads(body) == {"healthy": True, "auditors": []}

    def test_unknown_route_is_404(self, server):
        for path in ("/nope", "/metrics/extra", "/timelinex"):
            status, body, _ = fetch(server.url + path)
            assert status == 404
            assert "no route" in json.loads(body)["error"]

    def test_index_lists_endpoints(self, server):
        status, body, _ = fetch(server.url + "/")
        assert status == 200
        assert set(json.loads(body)["endpoints"]) == {
            "/metrics", "/trace", "/healthz", "/timeline", "/query",
            "/alerts", "/dashboard", "/profile",
        }

    def test_metrics_json_format_shares_the_script_renderer(self, registry, server):
        from repro.obs import render_json

        registry.counter("repro_demo_total", "Demo.").inc(3)
        registry.histogram("repro_demo_seconds", "Demo.").observe(0.5)
        status, body, headers = fetch(server.url + "/metrics?format=json")
        assert status == 200
        assert headers["Content-Type"].startswith("application/json")
        # byte-identical to the renderer obs_report.py reads/writes
        assert body == render_json(registry)
        doc = json.loads(body)
        assert doc["repro_demo_total"][0]["value"] == 3
        assert doc["repro_demo_seconds"][0]["count"] == 1

    def test_metrics_unknown_format_is_400(self, server):
        status, body, _ = fetch(server.url + "/metrics?format=nope")
        assert status == 400
        assert "unknown metrics format" in json.loads(body)["error"]


class TestTimelineEndpoints:
    @pytest.fixture
    def timeline_server(self, registry):
        from repro.obs import TimelineRecorder

        clock = [1000.0]
        recorder = TimelineRecorder(
            registry=registry, interval=1.0, max_windows=32, clock=lambda: clock[0]
        )
        hist = registry.histogram("lat_seconds", "t")
        counter = registry.counter("ops_total", "t")
        recorder.tick()
        hist.observe_many([float(v) for v in range(100)])
        counter.inc(40)
        clock[0] += 1.0
        recorder.tick()
        srv = ObsServer(port=0, registry=registry, timeline=recorder)
        srv.start()
        yield srv
        srv.stop()

    def test_timeline_without_recorder_is_404(self, server):
        status, body, _ = fetch(server.url + "/timeline")
        assert status == 404
        assert "no timeline recorder" in json.loads(body)["error"]

    def test_timeline_index_lists_series(self, timeline_server):
        status, body, _ = fetch(timeline_server.url + "/timeline")
        assert status == 200
        doc = json.loads(body)
        assert doc["interval"] == 1.0
        assert doc["windows"] == 2
        kinds = {m["name"]: m["kind"] for m in doc["metrics"]}
        assert kinds["lat_seconds"] == "histogram"
        assert kinds["ops_total"] == "counter"

    def test_timeline_metric_query_returns_points_and_range(self, timeline_server):
        status, body, _ = fetch(
            timeline_server.url
            + "/timeline?metric=lat_seconds&since=1000&until=1001&q=0.5,0.9"
        )
        assert status == 200
        (series,) = json.loads(body)["series"]
        assert series["kind"] == "histogram"
        assert series["range"]["count"] == 100
        assert series["range"]["quantiles"]["0.5"] == pytest.approx(50.0, abs=5.0)
        (point,) = [p for p in series["points"] if p["count"]]
        assert point["count"] == 100

    def test_timeline_counter_query_reports_total_and_rate(self, timeline_server):
        status, body, _ = fetch(timeline_server.url + "/timeline?metric=ops_total")
        (series,) = json.loads(body)["series"]
        assert status == 200
        assert series["range"]["total"] == 40.0
        assert series["range"]["rate"] == pytest.approx(20.0)

    def test_timeline_unknown_metric_is_404(self, timeline_server):
        status, body, _ = fetch(timeline_server.url + "/timeline?metric=nope")
        assert status == 404

    def test_timeline_bad_params_are_400(self, timeline_server):
        status, body, _ = fetch(timeline_server.url + "/timeline?since=yesterday")
        assert status == 400

    def test_timeline_all_payload_feeds_dashboard(self, timeline_server):
        status, body, _ = fetch(timeline_server.url + "/timeline?all=1")
        assert status == 200
        doc = json.loads(body)
        assert doc["windows"] == 2
        assert {m["name"] for m in doc["metrics"]} >= {"lat_seconds", "ops_total"}
        assert all("points" in m for m in doc["metrics"])

    def test_dashboard_serves_self_contained_html(self, timeline_server):
        status, body, headers = fetch(timeline_server.url + "/dashboard")
        assert status == 200
        assert headers["Content-Type"].startswith("text/html")
        assert body.lstrip().startswith("<!DOCTYPE html>")
        # self-contained: no external scripts, styles, or images
        assert "src=\"http" not in body and "href=\"http" not in body
        assert "timeline?all=1" in body and "healthz" in body


class TestAlertsEndpoint:
    @pytest.fixture
    def alert_server(self, registry):
        from repro.obs import AlertEngine, ThresholdRule, TimelineRecorder

        clock = [1000.0]
        recorder = TimelineRecorder(
            registry=registry, interval=1.0, max_windows=32, clock=lambda: clock[0]
        )
        counter = registry.counter("ops_total", "t")
        engine = AlertEngine(
            recorder,
            rules=[
                ThresholdRule(
                    "spike", "ops_total", threshold=100.0, over=3,
                    source="total", severity="critical",
                ),
                ThresholdRule("warm", "ops_total", threshold=1e9, over=3),
            ],
        )
        recorder.tick()
        counter.inc(10)
        clock[0] += 1.0
        recorder.tick()
        engine.evaluate(clock[0])
        srv = ObsServer(port=0, registry=registry, timeline=recorder, alerts=engine)
        srv.start()
        yield srv, engine, recorder, counter, clock
        srv.stop()

    def test_alerts_without_engine_is_404(self, server):
        status, body, _ = fetch(server.url + "/alerts")
        assert status == 404
        doc = json.loads(body)
        assert "no alert engine" in doc["error"] and doc["param"] is None

    def test_alerts_snapshot_lists_rule_states(self, alert_server):
        srv, engine, *_ = alert_server
        status, body, _ = fetch(srv.url + "/alerts")
        assert status == 200
        doc = json.loads(body)
        assert doc["healthy"] is True and doc["firing"] == 0
        states = {r["name"]: r["state"] for r in doc["rules"]}
        assert states == {"spike": "inactive", "warm": "inactive"}
        (rule,) = [r for r in doc["rules"] if r["name"] == "spike"]
        assert rule["severity"] == "critical" and rule["kind"] == "threshold"
        assert rule["recent"]  # spark context present

    def test_alerts_history_and_firing_filters(self, alert_server):
        srv, engine, recorder, counter, clock = alert_server
        counter.inc(500)
        clock[0] += 1.0
        recorder.tick()
        engine.evaluate(clock[0])

        status, body, _ = fetch(srv.url + "/alerts?firing=1")
        assert status == 200
        assert [r["name"] for r in json.loads(body)["firing"]] == ["spike"]

        status, body, _ = fetch(srv.url + "/alerts?firing=1&severity=critical")
        assert [r["name"] for r in json.loads(body)["firing"]] == ["spike"]

        status, body, _ = fetch(srv.url + "/alerts?history=1")
        doc = json.loads(body)
        assert len(doc["history"]) == 1
        assert doc["history"][0]["to"] == "firing"

    def test_healthz_folds_firing_critical_alerts(self, alert_server):
        srv, engine, recorder, counter, clock = alert_server
        status, body, _ = fetch(srv.url + "/healthz")
        assert status == 200
        assert json.loads(body)["alerts"] == {"firing": 0, "critical": []}

        counter.inc(500)
        clock[0] += 1.0
        recorder.tick()
        engine.evaluate(clock[0])
        status, body, _ = fetch(srv.url + "/healthz")
        assert status == 503
        doc = json.loads(body)
        assert doc["healthy"] is False
        assert doc["alerts"] == {"firing": 1, "critical": ["spike"]}
        # auditors themselves are still clean — the alert flipped it
        assert doc["auditors"] == []

    def test_alerts_bad_params_are_400(self, alert_server):
        srv, *_ = alert_server
        for query, param in (
            ("history=soon", "history"),
            ("history=-1", "history"),
            ("severity=nope", "severity"),
        ):
            status, body, _ = fetch(srv.url + f"/alerts?{query}")
            doc = json.loads(body)
            assert status == 400, query
            assert doc["param"] == param

    def test_dashboard_includes_alert_panel(self, alert_server):
        srv, *_ = alert_server
        status, body, _ = fetch(srv.url + "/dashboard")
        assert status == 200
        assert 'id="alerts"' in body and "alertCard" in body


class TestReadsLeavePartialsUntouched:
    """Reads fold published partials without copying them, and never mutate one.

    A fold of one window returns that window's partial itself, so every
    read path (``/timeline`` per metric and ``all=1``, ``/query``, an
    alert pass) must leave the ring's partials and the ones revived from
    the store byte-identical.
    """

    ROUTES = ("a", "b", "c")

    def test_timeline_query_and_alert_pass(self, tmp_path, monkeypatch):
        from repro.obs import (
            AlertEngine,
            ChangePointRule,
            DriftRule,
            QuantileRule,
            ThresholdRule,
            TimelineRecorder,
        )
        from repro.quantiles import KLLSketch
        from repro.store import SketchStore

        registry = MetricsRegistry()
        clock = [1000.0]
        recorder = TimelineRecorder(registry=registry, interval=1.0, max_windows=8,
                                    clock=lambda: clock[0])
        store = SketchStore(str(tmp_path / "db"), partition_seconds=4.0,
                            registry=MetricsRegistry())
        recorder.attach_store(store)
        hists = [registry.histogram("lat_seconds", route=r) for r in self.ROUTES]
        counters = [registry.counter("ops_total", route=r) for r in self.ROUTES]
        rng = np.random.default_rng(11)
        recorder.tick(clock[0])
        for _ in range(20):
            for i, (hist, counter) in enumerate(zip(hists, counters)):
                n = int(rng.integers(20, 120))
                hist.observe_many(rng.lognormal(-5.0 + 0.2 * i, 0.5, n))
                counter.inc(n)
            clock[0] += 1.0
            recorder.tick(clock[0])
        labels = {"route": "a"}
        engine = AlertEngine(recorder, rules=[
            ThresholdRule("rate", "ops_total", threshold=1e9, over=3, labels=labels),
            QuantileRule("p99", "lat_seconds", threshold=1e9, q=0.99, over=3,
                         labels=labels),
            DriftRule("drift", "lat_seconds", baseline_windows=12, recent_windows=3,
                      min_count=1, labels=labels),
            ChangePointRule("change", "ops_total", trailing=6, min_history=3,
                            labels=labels),
        ], registry=MetricsRegistry(), clock=lambda: clock[0])

        revived = []
        window_from_record = recorder._window_from_record

        def recording(record):
            window = window_from_record(record)
            revived.append((window, self.snapshot([window])))
            return window

        monkeypatch.setattr(recorder, "_window_from_record", recording)
        ring = recorder.windows()
        before = self.snapshot(ring)
        since, until = clock[0] - 15.0, clock[0]
        # The answers a one-window bucket gave when every fold copied.
        covered = recorder.windows(since, until)
        expected = {}
        for route in self.ROUTES:
            key = ("lat_seconds", (("route", route),))
            for window in covered:
                part = window.histograms[key]
                caps = part._capacities()
                assert all(len(buf) < cap for buf, cap in zip(part._compactors, caps))
                copy = KLLSketch._merge_many_impl([part])
                expected[route, window.start] = {
                    "count": copy.n,
                    "quantiles": {"0.5": copy.quantile(0.5), "0.99": copy.quantile(0.99)},
                }
        revived.clear()

        srv = ObsServer(port=0, registry=registry, timeline=recorder, alerts=engine)
        srv.start()
        try:
            timeline_url = (srv.url + f"/timeline?metric=lat_seconds&since={since!r}"
                            f"&until={until!r}&q=0.5,0.99")
            polls = [json.loads(fetch(timeline_url)[1]) for _ in range(2)]
            status, _, _ = fetch(srv.url + f"/timeline?all=1&since={since!r}")
            assert status == 200
            status, _, _ = fetch(srv.url + f"/query?metric=lat_seconds&since={since!r}"
                                 "&group_by=route&q=0.5,0.99")
            assert status == 200
            engine.evaluate(clock[0])
            engine.evaluate(clock[0])
        finally:
            srv.stop()
            store.close()

        assert all(status["errors"] == 0 for status in engine.as_dict(history=0)["rules"])
        assert self.snapshot(ring) == before
        assert revived
        for window, blobs in revived:
            assert self.snapshot([window]) == blobs
        for doc in polls:
            for series in doc["series"]:
                points = series["points"]
                assert len(points) == len(covered)
                for point in points:
                    want = expected[series["labels"]["route"], point["t"]]
                    assert {"count": point["count"], "quantiles": point["quantiles"]} == want

    @staticmethod
    def snapshot(windows) -> list:
        return [(window.start, key, part.to_bytes())
                for window in windows for key, part in sorted(window.histograms.items())]


class TestErrorEnvelope:
    """Every endpoint's error paths speak {"error": ..., "param": ...}."""

    @staticmethod
    def envelope(body: str) -> dict:
        doc = json.loads(body)
        assert set(doc) == {"error", "param"}
        assert isinstance(doc["error"], str) and doc["error"]
        return doc

    def test_unknown_route(self, server):
        status, body, _ = fetch(server.url + "/definitely-not")
        assert status == 404
        assert self.envelope(body)["param"] is None

    def test_metrics_bad_format(self, server):
        status, body, _ = fetch(server.url + "/metrics?format=yaml")
        assert status == 400
        assert self.envelope(body)["param"] == "format"

    def test_trace_bad_format(self, server):
        status, body, _ = fetch(server.url + "/trace?format=xml")
        assert status == 400
        assert self.envelope(body)["param"] == "format"

    def test_timeline_missing_recorder(self, server):
        status, body, _ = fetch(server.url + "/timeline")
        assert status == 404
        assert self.envelope(body)["param"] is None

    def test_timeline_param_errors_name_the_param(self, registry):
        from repro.obs import TimelineRecorder

        recorder = TimelineRecorder(registry=registry, interval=1.0)
        recorder.tick()
        with ObsServer(port=0, registry=registry, timeline=recorder) as srv:
            for query, param in (
                ("since=abc", "since"),
                ("until=later", "until"),
                ("step=wide", "step"),
                ("metric=x&q=a,b", "q"),
            ):
                status, body, _ = fetch(srv.url + f"/timeline?{query}")
                assert status == 400, query
                assert self.envelope(body)["param"] == param
            status, body, _ = fetch(srv.url + "/timeline?metric=ghost")
            assert status == 404
            assert self.envelope(body)["param"] == "metric"

    def test_query_missing_store(self, server):
        status, body, _ = fetch(server.url + "/query")
        assert status == 404
        assert self.envelope(body)["param"] is None

    def test_query_param_errors(self, registry, tmp_path):
        from repro.store import SketchStore

        with SketchStore(tmp_path / "alerts-envelope") as store:
            store.append(0.0, 1.0, [{"name": "t_total", "kind": "counter", "value": 1.0}])
            with ObsServer(port=0, registry=registry, store=store) as srv:
                for query, param in (
                    ("metric=t_total&since=abc", "since"),
                    ("metric=t_total&q=zz", "q"),
                ):
                    status, body, _ = fetch(srv.url + f"/query?{query}")
                    assert status == 400, query
                    assert self.envelope(body)["param"] == param

    def test_profile_param_errors(self, server):
        for query, param in (
            ("seconds=0", "seconds"),
            ("seconds=9999", "seconds"),
            ("seconds=abc", "seconds"),
            ("hz=fast", "hz"),
            ("seconds=0.1&format=nope", "format"),
        ):
            status, body, _ = fetch(server.url + f"/profile?{query}")
            assert status == 400, query
            assert self.envelope(body)["param"] == param

    def test_healthz_503_keeps_verdict_payload(self, server):
        # 503 is a verdict, not an error: no envelope, full payload.
        from repro.obs import AlertEngine, ThresholdRule, TimelineRecorder

        registry = MetricsRegistry()
        clock = [0.0]
        recorder = TimelineRecorder(
            registry=registry, interval=1.0, clock=lambda: clock[0]
        )
        counter = registry.counter("boom_total", "t")
        engine = AlertEngine(
            recorder,
            rules=[ThresholdRule("boom", "boom_total", threshold=0.5,
                                 source="total", over=1, severity="critical")],
        )
        recorder.tick()
        counter.inc(5)
        clock[0] += 1.0
        recorder.tick()
        engine.evaluate(clock[0])
        server.attach_alerts(engine)
        status, body, _ = fetch(server.url + "/healthz")
        assert status == 503
        doc = json.loads(body)
        assert doc["healthy"] is False and "alerts" in doc


class TestProfileEndpoint:
    def test_profile_returns_collapsed_stacks(self, server):
        status, body, headers = fetch(server.url + "/profile?seconds=0.2&hz=200")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        # at minimum the serving thread itself gets sampled; every line
        # must parse as collapsed format (frames ; ... space count)
        for line in body.splitlines():
            stack, sep, count = line.rpartition(" ")
            assert sep and int(count) > 0 and all(stack.split(";"))

    def test_profile_json_format(self, server):
        status, body, _ = fetch(server.url + "/profile?seconds=0.1&format=json")
        assert status == 200
        doc = json.loads(body)
        assert doc["samples"] > 0
        assert doc["hz"] == 100.0

    def test_profile_validates_params(self, server):
        for query in ("seconds=0", "seconds=9999", "seconds=0.1&format=nope",
                      "seconds=abc"):
            status, _, _ = fetch(server.url + f"/profile?{query}")
            assert status == 400, query


class TestLifecycle:
    def test_context_manager_start_stop(self):
        with ObsServer(port=0) as srv:
            assert srv.running
            assert srv.port != 0
            status, _, _ = fetch(srv.url + "/healthz")
            assert status == 200
        assert not srv.running

    def test_double_start_raises_and_stop_is_idempotent(self):
        srv = ObsServer(port=0)
        srv.start()
        try:
            with pytest.raises(RuntimeError, match="already running"):
                srv.start()
        finally:
            srv.stop()
        srv.stop()  # no-op

    def test_explicit_registry_overrides_global(self):
        private = MetricsRegistry()
        private.counter("repro_private_total", "Private.").inc(9)
        with ObsServer(port=0, registry=private) as srv:
            status, body, _ = fetch(srv.url + "/metrics")
        assert status == 200
        assert "repro_private_total 9\n" in body
