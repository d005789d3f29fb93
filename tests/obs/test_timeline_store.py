"""TimelineRecorder ↔ SketchStore: write-through, replay, drift, drops."""

import json
import time
import urllib.request

import numpy as np
import pytest

from repro.obs import MetricsRegistry, ObsServer, TimelineRecorder
from repro.store import SketchStore


class ManualClock:
    def __init__(self, start: float = 1_000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> float:
        self.now += seconds
        return self.now


@pytest.fixture
def rig(tmp_path):
    """(registry, recorder, store, clock): 1 s windows, 4-window ring."""
    registry = MetricsRegistry()
    clock = ManualClock()
    store = SketchStore(str(tmp_path / "db"), partition_seconds=8.0, registry=registry)
    rec = TimelineRecorder(registry=registry, interval=1.0, max_windows=4, clock=clock)
    rec.attach_store(store)
    yield registry, rec, store, clock
    store.close()


def _counter_value(registry, name):
    for metric in registry.iter_metrics():
        if metric.name == name:
            return metric.value
    return None


def _feed(registry, rec, clock, n, per_window=200):
    hist = registry.histogram("lat", "t")
    counter = registry.counter("reqs", "t")
    rec._last_tick = clock.now
    hist._attach_window()
    rng = np.random.default_rng(5)
    values = []
    for _ in range(n):
        data = rng.lognormal(size=per_window)
        hist.observe_many(data)
        values.extend(data.tolist())
        counter.inc(5)
        clock.advance(1.0)
        rec.tick(clock.now)
    return values


class TestDroppedCounter:
    def test_ring_evictions_surface_as_counter(self, rig):
        registry, rec, store, clock = rig
        _feed(registry, rec, clock, 10)
        assert rec.evicted == 6
        assert _counter_value(registry, "repro_timeline_windows_dropped_total") == 6.0

    def test_no_counter_until_first_eviction(self, rig):
        registry, rec, store, clock = rig
        _feed(registry, rec, clock, 3)
        assert rec.evicted == 0
        assert _counter_value(registry, "repro_timeline_windows_dropped_total") is None


class TestTickDrift:
    def test_deadlines_stay_on_the_grid(self):
        advance = TimelineRecorder._advance_deadline
        assert advance(10.0, 10.1, 1.0) == 11.0
        # slow snapshot blew through two boundaries: skip them, stay aligned
        assert advance(10.0, 12.5, 1.0) == 13.0
        # landing exactly on a boundary still moves strictly forward
        assert advance(10.0, 11.0, 1.0) == 12.0
        assert advance(10.0, 13.0, 0.5) == 13.5

    def test_slow_snapshots_do_not_accumulate_drift(self):
        """Simulate the run loop with a snapshot costing 0.3 intervals.

        Under the old sleep-after-work schedule each tick would push the
        next boundary 0.3 intervals later (3 s of drift over 10 ticks);
        on the grid schedule every deadline stays an exact multiple of
        the interval.
        """
        interval, work = 1.0, 0.3
        now = 1000.05
        deadline = 1001.0
        deadlines = []
        for _ in range(50):
            now = deadline  # wait() elapses to the boundary
            now += work  # slow snapshot
            deadlines.append(deadline)
            deadline = TimelineRecorder._advance_deadline(deadline, now, interval)
        assert deadlines == [1001.0 + i for i in range(50)]

    def test_snapshot_slower_than_interval_skips_but_realigns(self):
        interval, work = 1.0, 2.6
        deadline = 1001.0
        deadlines = []
        for _ in range(10):
            now = deadline + work
            deadlines.append(deadline)
            deadline = TimelineRecorder._advance_deadline(deadline, now, interval)
        assert all(d == int(d) for d in deadlines)  # never off-grid
        assert all(b - a == 3.0 for a, b in zip(deadlines, deadlines[1:]))

    def test_thread_ticks_land_on_interval_boundaries(self):
        # 0.25 s is exact in binary floating point, so grid alignment is
        # checkable with == after the thread has stamped real windows.
        registry = MetricsRegistry()
        rec = TimelineRecorder(registry=registry, interval=0.25, max_windows=64)
        registry.counter("reqs", "t").inc()
        rec.start()
        try:
            deadline = time.time() + 5.0
            while rec.ticks < 3 and time.time() < deadline:
                time.sleep(0.02)
        finally:
            rec.stop()
        windows = rec.windows()[:3]  # the final flush tick is off-grid by design
        assert len(windows) == 3
        for window in windows:
            assert window.end == pytest.approx(round(window.end * 4) / 4, abs=0)


class TestWriteThrough:
    def test_windows_persist_beyond_the_ring(self, rig):
        registry, rec, store, clock = rig
        _feed(registry, rec, clock, 10)
        assert len(rec) == 4
        store.flush()
        assert store.stats()["windows"] == 10

    def test_query_reaches_past_ring_with_since(self, rig):
        registry, rec, store, clock = rig
        values = _feed(registry, rec, clock, 10)
        result = rec.query("lat", since=1000.0)
        assert result.n_windows == 10
        assert result.count == len(values)
        raw = np.sort(np.asarray(values))
        rank = float(np.mean(raw <= result.quantile(0.5)))
        assert abs(rank - 0.5) <= 0.02
        assert rec.query("reqs", since=1000.0).total == 50.0

    def test_without_since_only_the_ring_answers(self, rig):
        registry, rec, store, clock = rig
        _feed(registry, rec, clock, 10)
        assert rec.query("reqs").n_windows == 4

    def test_ring_windows_shadow_their_persisted_copies(self, rig):
        registry, rec, store, clock = rig
        _feed(registry, rec, clock, 6)
        # ring holds the last 4; all 6 are on disk — no double count
        assert rec.query("reqs", since=1000.0).total == 30.0

    def test_store_failure_is_counted_not_fatal(self, rig):
        registry, rec, store, clock = rig

        class Broken:
            def append(self, *a, **k):
                raise OSError("disk full")

        rec._store = Broken()
        registry.counter("reqs", "t").inc()
        clock.advance(1.0)
        window = rec.tick(clock.now)  # must not raise
        assert window is not None
        assert _counter_value(registry, "repro_timeline_store_write_errors_total") == 1.0

    def test_detach_stops_writing(self, rig):
        registry, rec, store, clock = rig
        _feed(registry, rec, clock, 2)
        rec.detach_store()
        registry.counter("reqs", "t").inc()
        clock.advance(1.0)
        rec.tick(clock.now)
        store.flush()
        assert store.stats()["windows"] == 2


class TestReplay:
    def test_restart_rehydrates_the_ring(self, rig):
        registry, rec, store, clock = rig
        _feed(registry, rec, clock, 6)
        rec.detach_store()
        store.flush()

        reborn = TimelineRecorder(
            registry=MetricsRegistry(), interval=1.0, max_windows=4, clock=clock
        )
        reborn.attach_store(store, replay=True)
        assert len(reborn) == 4  # trimmed to ring capacity
        assert reborn.query("reqs").total == 20.0
        assert reborn.coverage() == (1002.0, 1006.0)

    def test_replay_counts_windows(self, tmp_path):
        registry = MetricsRegistry()
        clock = ManualClock()
        store = SketchStore(str(tmp_path / "db"), partition_seconds=8.0, registry=registry)
        rec = TimelineRecorder(registry=registry, interval=1.0, max_windows=8, clock=clock)
        rec.attach_store(store)
        _feed(registry, rec, clock, 3)
        rec.detach_store()
        store.flush()

        fresh_registry = MetricsRegistry()
        reborn = TimelineRecorder(
            registry=fresh_registry, interval=1.0, max_windows=8, clock=clock
        )
        reborn.attach_store(store, replay=True)
        assert _counter_value(fresh_registry, "repro_store_windows_replayed_total") == 3.0
        store.close()

    def test_replay_decodes_only_the_kept_windows(self, rig, monkeypatch):
        import repro.store.store as store_module

        registry, rec, store, clock = rig
        _feed(registry, rec, clock, 10)
        rec.detach_store()
        store.flush()
        decoded = []
        decode = store_module.decode_partial
        monkeypatch.setattr(store_module, "decode_partial",
                            lambda blob: decoded.append(blob) or decode(blob))
        cold_registry = MetricsRegistry()
        cold = SketchStore(store.path, partition_seconds=8.0, registry=cold_registry)
        reborn = TimelineRecorder(
            registry=MetricsRegistry(), interval=1.0, max_windows=4, clock=clock
        )
        reborn.attach_store(cold, replay=True)
        kept = [part for window in reborn.windows() for part in window.histograms.values()]
        assert len(kept) == 4  # one "lat" partial per kept window
        assert len(decoded) == len(kept)
        # 10 windows persisted; the index bounds the read to the 4 kept.
        assert _counter_value(cold_registry, "repro_store_windows_read_total") == 4.0
        assert reborn.query("lat").count == 4 * 200

    def test_replay_reads_all_of_a_segment_without_window_index(self, rig, monkeypatch):
        import repro.store.segment as segment_module

        registry, rec, store, clock = rig
        _feed(registry, rec, clock, 10)
        rec.detach_store()
        store.close()
        # Segments sealed before the index listed windows: nothing places
        # their records, so replay reads every one and keeps the newest.
        monkeypatch.setattr(segment_module, "_windows_of", lambda value, n: {})
        cold_registry = MetricsRegistry()
        cold = SketchStore(store.path, partition_seconds=8.0, registry=cold_registry)
        reborn = TimelineRecorder(
            registry=MetricsRegistry(), interval=1.0, max_windows=4, clock=clock
        )
        reborn.attach_store(cold, replay=True)
        assert reborn.coverage() == (1006.0, 1010.0)
        assert _counter_value(cold_registry, "repro_store_windows_read_total") == 10.0

    def test_replay_false_and_nonempty_ring_skip_rehydration(self, rig):
        registry, rec, store, clock = rig
        _feed(registry, rec, clock, 3)
        store.flush()
        # replay=False: nothing loaded
        rec2 = TimelineRecorder(
            registry=MetricsRegistry(), interval=1.0, max_windows=4, clock=clock
        )
        rec2.attach_store(store, replay=False)
        assert len(rec2) == 0
        # non-empty ring: replay is a no-op
        rec3 = TimelineRecorder(
            registry=MetricsRegistry(), interval=1.0, max_windows=4, clock=clock
        )
        rec3.registry.counter("x", "t").inc()
        clock.advance(1.0)
        rec3.tick(clock.now)
        before = len(rec3)
        rec3.attach_store(store, replay=True)
        assert len(rec3) == before

    def test_as_dict_reports_the_store(self, rig):
        registry, rec, store, clock = rig
        _feed(registry, rec, clock, 2)
        payload = rec.as_dict()
        assert payload["store"]["path"] == store.path
        rec.detach_store()
        assert rec.as_dict()["store"] is None


def _get(url):
    with urllib.request.urlopen(url) as response:
        return response.status, json.loads(response.read().decode())


class TestQueryEndpoint:
    def test_query_404_without_a_store(self):
        with ObsServer(registry=MetricsRegistry()) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(server.url + "/query")
            assert err.value.code == 404

    def test_query_resolves_store_through_the_timeline(self, rig):
        registry, rec, store, clock = rig
        _feed(registry, rec, clock, 6)
        store.flush()
        with ObsServer(registry=registry, timeline=rec) as server:
            status, meta = _get(server.url + "/query")
            assert status == 200
            assert meta["windows"] == 6
            assert any(m["name"] == "lat" for m in meta["metrics"])

            status, body = _get(
                server.url + "/query?metric=lat&since=1000&until=1006&q=0.5"
            )
            assert body["kind"] == "histogram"
            assert body["count"] == 1200
            assert body["quantiles"]["0.5"] > 0

            status, body = _get(server.url + "/query?metric=reqs")
            assert body["total"] == 30.0
            assert body["rate"] == pytest.approx(5.0)

    def test_query_group_by_and_label_filters(self, rig, tmp_path):
        registry, rec, store, clock = rig
        for i in range(4):
            store.append(float(i), float(i + 1), [
                {"name": "hits", "labels": {"route": "a", "dc": "eu"},
                 "kind": "counter", "value": 1.0},
                {"name": "hits", "labels": {"route": "b", "dc": "eu"},
                 "kind": "counter", "value": 2.0},
            ])
        store.flush()
        with ObsServer(registry=registry, store=store) as server:
            status, body = _get(server.url + "/query?metric=hits&group_by=route")
            assert sorted(body["groups"]) == ["a", "b"]
            assert body["groups"]["a"]["total"] == 4.0
            assert body["groups"]["b"]["total"] == 8.0
            # unreserved params filter by label
            status, body = _get(server.url + "/query?metric=hits&route=b")
            assert body["total"] == 8.0

    def test_bad_param_is_400(self, rig):
        registry, rec, store, clock = rig
        with ObsServer(registry=registry, store=store) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(server.url + "/query?metric=x&since=yesterday")
            assert err.value.code == 400

    def test_timeline_since_reaches_into_the_store(self, rig):
        registry, rec, store, clock = rig
        _feed(registry, rec, clock, 10)
        store.flush()
        with ObsServer(registry=registry, timeline=rec) as server:
            status, body = _get(server.url + "/timeline?metric=reqs&since=1000")
            assert body["series"][0]["range"]["n_windows"] == 10
            assert body["series"][0]["range"]["total"] == 50.0


class TestSeriesAcrossRingStoreBoundary:
    """A range straddling evicted-to-store and live-ring windows."""

    def test_no_double_counted_or_dropped_buckets(self, rig):
        registry, rec, store, clock = rig  # 4-window ring, write-through
        counter = registry.counter("reqs", "t")
        rec._last_tick = clock.now
        t0 = clock.now
        for i in range(12):  # windows 0-7 evict from the ring, 8-11 stay
            counter.inc(10)
            clock.advance(1.0)
            rec.tick(clock.now)
        assert len(rec) == 4 and rec.evicted == 8

        # full range: 8 store-only windows + 4 ring windows
        points = rec.series("reqs", since=t0, until=clock.now, step=1.0)
        assert len(points) == 12
        assert [p["value"] for p in points] == [10.0] * 12
        assert [p["t"] for p in points] == [t0 + i for i in range(12)]

        # a range straddling the boundary itself (evicted + live halves)
        boundary = rec.windows()[0].start
        straddle = rec.series(
            "reqs", since=boundary - 3.0, until=boundary + 2.0, step=1.0
        )
        assert [p["value"] for p in straddle] == [10.0] * 5
        result = rec.query("reqs", since=boundary - 3.0, until=boundary + 2.0)
        assert sum(p["value"] for p in straddle) == result.total == 50.0

    def test_histogram_partials_fold_across_the_boundary(self, rig):
        registry, rec, store, clock = rig
        values = _feed(registry, rec, clock, n=10, per_window=100)
        assert rec.evicted == 6
        since = clock.now - 10.0
        points = rec.series("lat", since=since, step=1.0, quantiles=(0.5,))
        assert len(points) == 10
        assert sum(p["count"] for p in points) == len(values) == 1000
        # the straddling range-fold agrees with the exact stream median
        result = rec.query("lat", since=since)
        assert result.count == 1000
        exact = float(np.median(values))
        assert abs(result.quantile(0.5) - exact) / exact < 0.1
