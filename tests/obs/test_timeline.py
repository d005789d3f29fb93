"""TimelineRecorder: windowed snapshots, range queries, concurrency."""

import json
import sys
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.obs import MetricsRegistry, ObsServer, TimelineRecorder
from repro.quantiles import KLLSketch


class ManualClock:
    """Deterministic epoch-seconds source driven by tests."""

    def __init__(self, start: float = 1_000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> float:
        self.now += seconds
        return self.now


@pytest.fixture
def recorder():
    """(registry, recorder, clock) with interval=1s and a manual clock."""
    registry = MetricsRegistry()
    clock = ManualClock()
    rec = TimelineRecorder(registry=registry, interval=1.0, max_windows=16, clock=clock)
    return registry, rec, clock


class TestWindows:
    def test_counter_deltas_per_window(self, recorder):
        registry, rec, clock = recorder
        counter = registry.counter("ops_total", "t")
        counter.inc(10)
        clock.advance(1.0)
        rec.tick()
        counter.inc(4)
        clock.advance(1.0)
        rec.tick()
        clock.advance(1.0)
        rec.tick()  # idle window -> delta 0
        result = rec.query("ops_total")
        assert [v for _, v in result.values] == [10.0, 4.0, 0.0]
        assert result.total == 14.0
        assert result.n_windows == 3

    def test_counter_created_mid_run_counts_from_zero(self, recorder):
        registry, rec, clock = recorder
        clock.advance(1.0)
        rec.tick()
        registry.counter("late_total", "t").inc(7)
        clock.advance(1.0)
        rec.tick()
        assert rec.query("late_total").total == 7.0

    def test_gauge_records_last_value(self, recorder):
        registry, rec, clock = recorder
        gauge = registry.gauge("depth", "t")
        gauge.set(3)
        gauge.set(9)
        clock.advance(1.0)
        rec.tick()
        gauge.set(2)
        clock.advance(1.0)
        rec.tick()
        result = rec.query("depth")
        assert [v for _, v in result.values] == [9.0, 2.0]
        assert result.last == 2.0
        assert result.maximum == 9.0

    def test_histogram_partials_split_by_window(self, recorder):
        registry, rec, clock = recorder
        hist = registry.histogram("lat", "t")
        rec.tick()  # opens the window; hist created before -> empty window
        hist.observe_many([1.0] * 100)
        t1 = clock.advance(1.0)
        rec.tick()
        hist.observe_many([5.0] * 300)
        clock.advance(1.0)
        rec.tick()
        low = rec.query("lat", until=t1)
        high = rec.query("lat", since=t1)
        assert low.count == 100 and low.quantile(0.5) == 1.0
        assert high.count == 300 and high.quantile(0.5) == 5.0
        # the cumulative histogram is untouched by the windowing
        assert hist.count == 400

    def test_ring_eviction_bounds_windows(self, recorder):
        registry, rec, clock = recorder
        registry.counter("ops_total", "t")
        for _ in range(20):
            clock.advance(1.0)
            rec.tick()
        assert len(rec) == 16
        assert rec.evicted == 4
        assert rec.ticks == 20
        starts = [w.start for w in rec.windows()]
        assert starts == sorted(starts)

    def test_windows_are_half_open_and_contiguous(self, recorder):
        _, rec, clock = recorder
        for _ in range(3):
            clock.advance(1.0)
            rec.tick()
        windows = rec.windows()
        for left, right in zip(windows, windows[1:]):
            assert left.end == right.start
        assert rec.coverage() == (windows[0].start, windows[-1].end)

    def test_query_unknown_metric_is_empty(self, recorder):
        _, rec, clock = recorder
        clock.advance(1.0)
        rec.tick()
        result = rec.query("nope_total")
        assert result.n_windows == 0
        assert result.total == 0.0
        assert np.isnan(result.quantile(0.99))

    def test_ambiguous_labelsets_raise(self, recorder):
        registry, rec, clock = recorder
        registry.counter("ops_total", "t", sketch="HLL").inc(1)
        registry.counter("ops_total", "t", sketch="KLL").inc(2)
        clock.advance(1.0)
        rec.tick()
        with pytest.raises(ValueError, match="labelsets"):
            rec.query("ops_total")
        assert rec.query("ops_total", sketch="KLL").total == 2.0

    def test_series_rebuckets_on_step(self, recorder):
        registry, rec, clock = recorder
        counter = registry.counter("ops_total", "t")
        for _ in range(4):
            counter.inc(5)
            clock.advance(1.0)
            rec.tick()
        points = rec.series("ops_total", step=2.0)
        assert len(points) == 2
        assert all(p["value"] == 10.0 for p in points)

    def test_series_histogram_points_carry_quantiles(self, recorder):
        registry, rec, clock = recorder
        hist = registry.histogram("lat", "t")
        rec.tick()
        hist.observe_many(np.linspace(0, 100, 1000))
        clock.advance(1.0)
        rec.tick()
        (point,) = [p for p in rec.series("lat", quantiles=(0.5,)) if p["count"]]
        assert point["count"] == 1000
        assert point["quantiles"]["0.5"] == pytest.approx(50.0, abs=5.0)

    def test_as_dict_lists_every_series(self, recorder):
        registry, rec, clock = recorder
        registry.counter("ops_total", "t").inc(1)
        registry.gauge("depth", "t").set(2)
        registry.histogram("lat", "t").observe(1.0)
        clock.advance(1.0)
        rec.tick()
        clock.advance(1.0)
        rec.tick()
        payload = rec.as_dict()
        assert payload["windows"] == 2
        kinds = {m["name"]: m["kind"] for m in payload["metrics"]}
        assert kinds == {"ops_total": "counter", "depth": "gauge", "lat": "histogram"}
        assert all("points" in m for m in payload["metrics"])


class TestLifecycle:
    def test_double_start_raises(self):
        rec = TimelineRecorder(registry=MetricsRegistry(), interval=0.05)
        rec.start()
        try:
            with pytest.raises(RuntimeError, match="already running"):
                rec.start()
        finally:
            rec.stop()

    def test_stop_is_idempotent_including_before_start(self):
        rec = TimelineRecorder(registry=MetricsRegistry(), interval=0.05)
        rec.stop()  # never started: no-op
        rec.start()
        rec.stop()
        rec.stop()  # again: no-op
        assert not rec.running

    def test_stop_flushes_open_window_and_detaches_mirrors(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", "t")
        rec = TimelineRecorder(registry=registry, interval=60.0)  # never ticks alone
        rec.start()
        hist.observe_many([3.0] * 50)
        rec.stop()
        assert rec.query("lat").count == 50
        assert hist._window_kll is None  # values feed the cumulative again

    def test_background_thread_ticks_on_boundaries(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops_total", "t")
        rec = TimelineRecorder(registry=registry, interval=0.05, max_windows=64)
        with rec:
            deadline = time.monotonic() + 5.0
            while rec.ticks < 3 and time.monotonic() < deadline:
                counter.inc()
                time.sleep(0.01)
        assert rec.ticks >= 3
        widths = [w.width for w in rec.windows()][:-1]  # last is the stop flush
        assert all(0.0 < w < 1.0 for w in widths)

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="interval"):
            TimelineRecorder(interval=0)
        with pytest.raises(ValueError, match="max_windows"):
            TimelineRecorder(max_windows=0)


class TestMergeCorrectness:
    """Acceptance: range quantiles match a fresh KLL over the same raw data."""

    def test_range_quantiles_within_rank_error_bound(self, recorder):
        registry, rec, clock = recorder
        rec.max_windows = 64
        hist = registry.histogram("lat", "t", k=200)
        rec.tick()  # open the window
        rng = np.random.default_rng(42)
        per_window = []
        boundaries = [clock.now]
        for _ in range(12):
            data = rng.lognormal(mean=rng.uniform(0, 2), sigma=0.6, size=4_000)
            hist.observe_many(data)
            per_window.append(data)
            boundaries.append(clock.advance(1.0))
            rec.tick()

        eps = 0.02  # KLL k=200 rank error is well under 2%; merges add none
        check_rng = np.random.default_rng(7)
        for _ in range(10):
            i = int(check_rng.integers(0, 11))
            j = int(check_rng.integers(i + 1, 13))
            t0, t1 = boundaries[i], boundaries[j]
            raw = np.concatenate(per_window[i:j])
            fresh = KLLSketch(k=200, seed=1)
            fresh.update_many(raw)
            result = rec.query("lat", since=t0, until=t1)
            assert result.count == len(raw)
            for q in (0.5, 0.99):
                est = result.quantile(q)
                rank = float(np.mean(raw <= est))
                assert abs(rank - q) <= eps, (i, j, q, rank)
                # and the fold agrees with the fresh single sketch
                fresh_rank = float(np.mean(raw <= fresh.quantile(q)))
                assert abs(rank - fresh_rank) <= 2 * eps

    def test_single_window_query_equals_partial(self, recorder):
        registry, rec, clock = recorder
        hist = registry.histogram("lat", "t")
        rec.tick()
        data = np.arange(1000, dtype=float)
        hist.observe_many(data)
        t1 = clock.advance(1.0)
        rec.tick()
        result = rec.query("lat", since=t1 - 1.0, until=t1)
        assert result.n_windows == 1
        assert result.count == 1000
        assert result.quantile(0.5) == pytest.approx(500.0, abs=20.0)


#: scrape rounds over the three paths in the hammered-timeline test.
SCRAPE_ROUNDS = 6


class TestConcurrentAccess:
    """Satellite: writers hammer histograms while HTTP scrapes the timeline."""

    def test_hammered_timeline_serves_consistent_scrapes(self):
        registry = MetricsRegistry()
        rec = TimelineRecorder(registry=registry, interval=0.02, max_windows=256)
        server = ObsServer(port=0, registry=registry, timeline=rec)
        counter = registry.counter("ops_total", "t")
        hists = [registry.histogram(f"lat{i}", "t") for i in range(2)]
        stop = threading.Event()
        errors: list[BaseException] = []

        def writer(seed: int) -> None:
            rng = np.random.default_rng(seed)
            try:
                while not stop.is_set():
                    for hist in hists:
                        hist.observe_many(rng.normal(10, 2, 200))
                    counter.inc(200)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def fetch(path: str):
            with urllib.request.urlopen(server.url + path, timeout=5) as resp:
                return resp.status, resp.read().decode()

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(4)]
        rec.start()
        server.start()
        try:
            for thread in threads:
                thread.start()
            # A fixed number of scrape rounds, not a wall-clock window:
            # a loaded host slows the rounds down but cannot cut them
            # short.  The deadline only catches a hung server.
            deadline = time.monotonic() + 60.0
            for _ in range(SCRAPE_ROUNDS):
                for path in ("/timeline?all=1", "/timeline?metric=lat0", "/dashboard"):
                    assert time.monotonic() < deadline, "scrapes hung"
                    status, body = fetch(path)
                    assert status == 200
                    if path != "/dashboard":
                        json.loads(body)  # never torn mid-write
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=5.0)
            server.stop()
            rec.stop()
        assert not errors
        # no torn windows: monotone non-negative counter deltas, and every
        # published window is fully formed (start < end, kinds consistent)
        result = rec.query("ops_total")
        assert result.n_windows >= 2
        assert all(delta >= 0 for _, delta in result.values)
        assert result.total == counter.value
        for window in rec.windows():
            assert window.start < window.end
            assert set(window.kinds) >= set(window.counters)
        merged = rec.query("lat0")
        assert merged.count == merged.sketch.n > 0

    def test_buffered_observes_land_in_exactly_one_window(self):
        # Four threads observe one value at a time (the buffered path)
        # while a fifth ticks: every observation lands in exactly one
        # window, none lost or doubled at a tick boundary.
        registry = MetricsRegistry()
        clock = ManualClock()
        rec = TimelineRecorder(registry=registry, interval=1.0, max_windows=100_000,
                               clock=clock)
        hist = registry.histogram("lat_seconds", "t")
        rec.tick(clock.advance(1.0))  # open the window before any observation
        per_thread = 20_000
        done = threading.Barrier(5)
        errors: list[BaseException] = []

        def writer(seed: int) -> None:
            rng = np.random.default_rng(seed)
            try:
                for value in rng.lognormal(size=per_thread).tolist():
                    hist.observe(value)
                done.wait(timeout=60.0)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(4)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # preempt often, mid-observe included
        try:
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 60.0
            while done.n_waiting < 4 and time.monotonic() < deadline:
                rec.tick(clock.advance(1.0))
            open_window = hist._take_window()
            done.wait(timeout=5.0)
            for thread in threads:
                thread.join(timeout=5.0)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        windows = rec.windows()
        assert len(windows) > 2
        published = sum(w.histograms[("lat_seconds", ())].n
                        for w in windows if ("lat_seconds", ()) in w.histograms)
        assert published + open_window.n == 4 * per_thread
        assert hist.count == 4 * per_thread


class TestSeriesEdgeCases:
    """Re-bucketing corner cases: giant steps, misaligned ranges."""

    def _fill(self, recorder, windows=6, per_window=10):
        registry, rec, clock = recorder
        counter = registry.counter("ops_total", "t")
        hist = registry.histogram("lat", "t")
        rec.tick()  # align the first window start to the clock
        hist._attach_window()
        for i in range(windows):
            counter.inc(per_window)
            hist.observe_many([float(i)] * 5)
            clock.advance(1.0)
            rec.tick()
        return registry, rec, clock, counter, hist

    def test_step_larger_than_queried_range(self, recorder):
        _, rec, clock, counter, _ = self._fill(recorder, windows=6)
        since, until = clock.now - 3.0, clock.now
        points = rec.series("ops_total", since=since, until=until, step=1000.0)
        # every covered window collapses into one giant bucket whose
        # total matches the range query — nothing dropped or repeated
        assert len(points) == 1
        (point,) = points
        assert point["t"] == int(since // 1000.0) * 1000.0 == 1000.0
        result = rec.query("ops_total", since=since, until=until)
        assert point["value"] == result.total > 0

    def test_step_larger_than_range_merges_histogram_partials(self, recorder):
        _, rec, clock, _, _ = self._fill(recorder, windows=6)
        points = rec.series(
            "lat", since=clock.now - 4.0, until=clock.now, step=500.0, quantiles=(0.5,)
        )
        assert len(points) == 1
        result = rec.query("lat", since=clock.now - 4.0, until=clock.now)
        assert points[0]["count"] == result.count

    def test_misaligned_since_until_snap_outward(self, recorder):
        _, rec, clock, counter, _ = self._fill(recorder, windows=6)
        # mid-window boundaries: [t0+0.4, t0+2.6) overlaps windows
        # 0, 1, and 2 — all three must contribute, none twice
        t0 = clock.now - 6.0  # first window start
        points = rec.series(
            "ops_total", since=t0 + 0.4, until=t0 + 2.6, step=1.0
        )
        assert [p["t"] for p in points] == [t0, t0 + 1.0, t0 + 2.0]
        assert [p["value"] for p in points] == [10.0, 10.0, 10.0]
        result = rec.query("ops_total", since=t0 + 0.4, until=t0 + 2.6)
        assert result.n_windows == 3
        assert sum(p["value"] for p in points) == result.total == 30.0

    def test_misaligned_step_keeps_epoch_grid(self, recorder):
        _, rec, clock, counter, _ = self._fill(recorder, windows=6)
        # step=2.5 over 1s windows: buckets land on the epoch-aligned
        # 2.5s grid and every window's delta lands in exactly one bucket
        points = rec.series("ops_total", step=2.5)
        assert all(p["t"] % 2.5 == 0 for p in points)
        assert sum(p["value"] for p in points) == rec.query("ops_total").total

    def test_series_empty_range_returns_no_points(self, recorder):
        _, rec, clock, _, _ = self._fill(recorder, windows=3)
        assert rec.series("ops_total", since=clock.now + 100.0) == []
        assert rec.series("ops_total", until=clock.now - 100.0) == []
