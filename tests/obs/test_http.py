"""ObsServer: /metrics, /trace, /healthz over a live ephemeral port."""

import json
import sys
import time
import urllib.error
import urllib.request
from urllib.parse import parse_qs

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
    the store byte-identical.  The store caches the partials it revives
    and serves them again to later passes and polls, so those must stay
    equal to their persisted bytes too.  Published windows also keep
    their one-window ``/timeline`` answers: a poll must serve each
    window's own answer for the asked ``q``, and nothing a reader gets
    back may be the window's copy.
    """

    ROUTES = ("a", "b", "c")

    def build(self, tmp_path, max_windows=8):
        """(registry, recorder, store, store registry, histograms, tick, clock, rng)."""
        from repro.obs import TimelineRecorder
        from repro.store import SketchStore

        registry = MetricsRegistry()
        store_registry = MetricsRegistry()
        clock = [1000.0]
        recorder = TimelineRecorder(registry=registry, interval=1.0,
                                    max_windows=max_windows, clock=lambda: clock[0])
        store = SketchStore(str(tmp_path / "db"), partition_seconds=4.0,
                            registry=store_registry)
        recorder.attach_store(store)
        hists = [registry.histogram("lat_seconds", route=r) for r in self.ROUTES]
        counters = [registry.counter("ops_total", route=r) for r in self.ROUTES]
        rng = np.random.default_rng(11)
        recorder.tick(clock[0])

        def tick():
            for i, (hist, counter) in enumerate(zip(hists, counters)):
                n = int(rng.integers(20, 120))
                hist.observe_many(rng.lognormal(-5.0 + 0.2 * i, 0.5, n))
                counter.inc(n)
            clock[0] += 1.0
            recorder.tick(clock[0])

        for _ in range(20):
            tick()
        return registry, recorder, store, store_registry, hists, tick, clock, rng

    def test_timeline_query_and_alert_pass(self, tmp_path):
        from repro.obs import (
            AlertEngine,
            ChangePointRule,
            DriftRule,
            QuantileRule,
            ThresholdRule,
        )
        from repro.quantiles import KLLSketch
        from repro.store.store import encode_partial

        registry, recorder, store, store_registry, hists, _, clock, rng = self.build(tmp_path)
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

        ring = [(window.start, window.histograms) for window in recorder.windows()]
        before = self.snapshot(ring)
        since, until = clock[0] - 15.0, clock[0]
        # Reads past the ring fold the store's cached partials: the ones
        # iter_windows hands out for the windows older than the ring.
        cutoff = ring[0][0]
        older = [
            (window["start"], {(e["name"], tuple(sorted(e["labels"].items()))): e["sketch"]
                               for e in window["series"] if "sketch" in e})
            for window in store.iter_windows(since=since, until=cutoff)
            if window["start"] < cutoff
        ]
        older_before = self.snapshot(older)
        # The answers a one-window bucket gave when every fold copied,
        # for each q tuple the polls ask.
        covered = older + [(window.start, window.histograms)
                           for window in recorder.windows(since, until)]
        qsets = ("0.5,0.99", "0.1,0.9", "0.99")
        expected = {}
        for route in self.ROUTES:
            key = ("lat_seconds", (("route", route),))
            for start, parts in covered:
                part = parts[key]
                caps = part._capacities()
                assert all(len(buf) < cap for buf, cap in zip(part._compactors, caps))
                copy = KLLSketch._merge_many_impl([part])
                for qs in qsets:
                    expected[route, start, qs] = {
                        "count": copy.n,
                        "quantiles": {q: copy.quantile(float(q)) for q in qs.split(",")},
                    }

        srv = ObsServer(port=0, registry=registry, timeline=recorder, alerts=engine)
        srv.start()
        try:
            polls = []
            for qs in qsets + qsets:  # each q tuple twice: made, then read
                url = (srv.url + f"/timeline?metric=lat_seconds&since={since!r}"
                       f"&until={until!r}&q={qs}")
                polls.append((qs, json.loads(fetch(url)[1])))
            for query in (f"all=1&since={since!r}", f"all=1&since={since!r}&step=2.5",
                          f"metric=lat_seconds&since={since!r}&step=0.5",
                          f"metric=ops_total&since={since!r}&step=2.5"):
                status, _, _ = fetch(srv.url + f"/timeline?{query}")
                assert status == 200, query
            status, _, _ = fetch(srv.url + f"/query?metric=lat_seconds&since={since!r}"
                                 "&group_by=route&q=0.5,0.99")
            assert status == 200
            engine.evaluate(clock[0])
            engine.evaluate(clock[0])
            for _ in range(3):  # later passes reach into cached history
                hists[0].observe_many(rng.lognormal(-5.0, 0.5, 50))
                clock[0] += 1.0
                recorder.tick(clock[0])
                engine.evaluate(clock[0])
                fetch(srv.url + f"/query?metric=lat_seconds&since={since!r}&q=0.99")
                fetch(srv.url + f"/timeline?metric=lat_seconds&since={since!r}")
        finally:
            srv.stop()
            store.close()

        assert all(status["errors"] == 0 for status in engine.as_dict(history=0)["rules"])
        hits = [m.value for m in store_registry.iter_metrics()
                if m.name == "repro_store_window_cache_hits_total"]
        assert hits and hits[0] > 0
        cached = [(window, i, sketch) for window in store._cache.values()
                  for i, sketch in window.sketches.items()]
        assert cached
        for window, i, sketch in cached:
            assert encode_partial(sketch) == window.series[i]["blob"]
        assert self.snapshot(ring) == before
        assert older
        assert self.snapshot(older) == older_before
        for qs, doc in polls:
            for series in doc["series"]:
                points = series["points"]
                assert len(points) == len(covered)
                for point in points:
                    want = expected[series["labels"]["route"], point["t"], qs]
                    assert {"count": point["count"], "quantiles": point["quantiles"]} == want

    def test_series_and_as_dict_hand_out_fresh_dicts(self, tmp_path):
        _, recorder, store, _, _, _, clock, _ = self.build(tmp_path)
        srv = ObsServer(port=0, timeline=recorder)
        since = clock[0] - 15.0
        queries = [f"metric=lat_seconds&since={since!r}", f"metric=ops_total&since={since!r}",
                   f"all=1&since={since!r}"]

        def hand_out():
            handed = [recorder.series("lat_seconds", since=since, route=r)
                      for r in self.ROUTES]
            handed.append(recorder.series("ops_total", since=since, route="a"))
            handed.extend(m["points"] for m in recorder.as_dict(since=since)["metrics"])
            return handed

        with srv:
            bodies = [fetch(srv.url + f"/timeline?{query}")[1] for query in queries]
            handed = hand_out()
            first = json.dumps(handed)
            for points in handed:
                for point in points:
                    if "quantiles" in point:
                        point["quantiles"]["0.5"] = -1.0
                        point["quantiles"]["0.75"] = 3.0
                    for field in list(point):
                        point[field] = -1
            assert [fetch(srv.url + f"/timeline?{query}")[1] for query in queries] == bodies
            assert json.dumps(hand_out()) == first
        store.close()

    def test_each_window_keeps_one_answer_per_series(self, tmp_path):
        """Polls asking many distinct ``q`` leave one answer per series per window."""
        from repro.quantiles import KLLSketch

        _, recorder, store, _, _, _, clock, _ = self.build(tmp_path)
        srv = ObsServer(timeline=recorder)
        since = clock[0] - 15.0  # reaches past the ring into the store
        ring = recorder.windows()
        for i in range(12):
            qs = f"0.{i + 1:02d},0.9"
            for metric in ("lat_seconds", "ops_total"):
                body, status = srv._render_timeline(
                    parse_qs(f"metric={metric}&since={since!r}&q={qs}"))
                assert status == 200
            for window in ring:
                assert len(window.answers) == 2 * len(self.ROUTES)  # the polled series
            doc = json.loads(srv._render_timeline(
                parse_qs(f"metric=lat_seconds&since={since!r}&q={qs}"))[0])
            window = ring[-1]
            for series in doc["series"]:
                key = ("lat_seconds", (("route", series["labels"]["route"]),))
                copy = KLLSketch._merge_many_impl([window.histograms[key]])
                assert series["points"][-1]["quantiles"] == {
                    str(float(q)): copy.quantile(float(q)) for q in qs.split(",")}
        store.close()

    def test_threaded_polls_during_ticks(self, tmp_path):
        """Polls racing ticks that evict their windows serve single-threaded bodies."""
        import threading

        ref = self.build(tmp_path / "ref", max_windows=64)
        _, recorder, store, _, _, tick, clock, _ = self.build(tmp_path / "live")
        since, until = clock[0] - 7.0, clock[0] - 1.0
        queries = [f"metric=lat_seconds&since={since!r}&until={until!r}&q=0.5,0.99",
                   f"metric=lat_seconds&since={since!r}&until={until!r}&q=0.9",
                   f"metric=lat_seconds&since={since!r}&until={until!r}&step=2.5",
                   f"metric=ops_total&since={since!r}&until={until!r}"]
        ref_srv = ObsServer(timeline=ref[1])
        expected = {query: ref_srv._render_timeline(parse_qs(query))[0] for query in queries}
        srv = ObsServer(port=0, timeline=recorder)
        served, errors = [], []
        start = threading.Barrier(5)

        def poll():
            start.wait(timeout=30)
            try:
                for _ in range(6):
                    for query in queries:
                        status, body, _ = fetch(srv.url + f"/timeline?{query}")
                        served.append((status, query, body))
            except Exception as exc:  # surfaced below
                errors.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the handlers' memo reads and writes
        try:
            with srv:
                threads = [threading.Thread(target=poll) for _ in range(4)]
                for thread in threads:
                    thread.start()
                start.wait(timeout=30)
                for _ in range(8):  # evicts every polled window into the store
                    tick()
                    time.sleep(0.002)
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
        finally:
            sys.setswitchinterval(switch)
        assert not errors
        assert recorder.coverage()[0] > until  # the polls ended past the ring
        assert len(served) == 4 * 6 * len(queries)
        for status, query, body in served:
            assert status == 200
            assert body == expected[query], query
        store.close()
        ref[2].close()

    @staticmethod
    def snapshot(windows) -> list:
        return [(start, key, part.to_bytes())
                for start, parts in windows for key, part in sorted(parts.items())]

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

    def test_non_finite_and_out_of_range_params_name_the_param(self, registry, tmp_path):
        from repro.obs import TimelineRecorder
        from repro.store import SketchStore

        clock = [1000.0]
        recorder = TimelineRecorder(registry=registry, interval=1.0, clock=lambda: clock[0])
        counter = registry.counter("ops_total")
        recorder.tick()
        counter.inc(3)
        clock[0] += 1.0
        recorder.tick()
        with SketchStore(tmp_path / "finite") as store:
            store.append(0.0, 1.0, [{"name": "lat", "kind": "sketch",
                                     "sketch": registry.histogram("lat")._kll}])
            recorder.attach_store(store, replay=False)
            with ObsServer(port=0, registry=registry, timeline=recorder,
                           store=store) as srv:
                cases = [
                    ("/timeline", "metric=ops_total&since=nan", "since"),
                    ("/timeline", "metric=ops_total&until=inf", "until"),
                    ("/timeline", "metric=ops_total&step=inf", "step"),
                    ("/timeline", "metric=ops_total&step=-inf", "step"),
                    ("/timeline", "all=1&since=-inf", "since"),
                    ("/timeline", "since=NaN", "since"),
                    ("/timeline", "metric=ops_total&q=1.5", "q"),
                    ("/timeline", "metric=ops_total&q=0.5,nan", "q"),
                    ("/timeline", "metric=ops_total&q=-0.1", "q"),
                    ("/query", "metric=lat&since=nan", "since"),
                    ("/query", "metric=lat&until=-inf", "until"),
                    ("/query", "metric=lat&q=2", "q"),
                    ("/query", "metric=lat&q=nan", "q"),
                    ("/profile", "hz=inf", "hz"),
                ]
                for route, query, param in cases:
                    status, body, _ = fetch(srv.url + f"{route}?{query}")
                    assert status == 400, query
                    assert self.envelope(body)["param"] == param, query
                for route, query in (("/timeline", "metric=ops_total&since=999&step=0.5"),
                                     ("/timeline", "all=1&q=0,1"),
                                     ("/query", "metric=lat&since=0&until=5")):
                    status, body, _ = fetch(srv.url + f"{route}?{query}")
                    assert status == 200, query
                    json.loads(body, parse_constant=lambda name: pytest.fail(name))

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
