"""Metrics registry: counters, gauges, KLL-backed histograms, the switch."""

import numpy as np
import pytest

import repro.obs as obs
from repro.obs import Counter, Gauge, MetricsRegistry, SketchHistogram
from repro.obs.registry import _env_enabled


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("x_total")
        assert c.value == 0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative_increments(self):
        with pytest.raises(ValueError):
            Counter("x_total").inc(-1)

    def test_rejects_nan_increments(self):
        c = Counter("x_total")
        c.inc(2)
        with pytest.raises(ValueError):
            c.inc(float("nan"))
        assert c.value == 2
        c.inc()
        assert c.value == 3


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("depth")
        g.set(10)
        g.inc(5)
        g.dec(2)
        assert g.value == 13


class TestSketchHistogram:
    def test_count_sum_quantile(self):
        h = SketchHistogram("lat_seconds")
        h.observe_many([1.0, 2.0, 3.0, 4.0])
        h.observe(5.0)
        assert h.count == 5
        assert h.sum == pytest.approx(15.0)
        assert 2.0 <= h.quantile(0.5) <= 4.0

    def test_rejects_nan_observations(self):
        h = SketchHistogram("lat_seconds")
        h.observe_many([1.0, 2.0])
        h.observe(3.0)
        before = (h._kll.to_bytes(), list(h._pending), h.sum)
        with pytest.raises(ValueError):
            h.observe(float("nan"))
        with pytest.raises(ValueError):
            h.observe(np.float64("nan"))
        with pytest.raises(ValueError):
            h.observe_many([4.0, float("nan"), 5.0])
        assert (h._kll.to_bytes(), list(h._pending), h.sum) == before
        assert h.count == 3
        assert h.quantile(1.0) == 3.0

    def test_empty_quantile_is_nan(self):
        h = SketchHistogram("lat_seconds")
        assert np.isnan(h.quantile(0.5))
        assert h.snapshot()["quantiles"]["0.5"] is None

    def test_quantiles_match_exact_percentiles_within_kll_bound(self):
        # Acceptance criterion: on a 1e5-sample workload the histogram's
        # quantiles agree with exact percentiles within KLL's rank error
        # (epsilon ~ O(1/k); k=200 gives well under 2% rank error).
        rng = np.random.default_rng(42)
        samples = rng.lognormal(mean=0.0, sigma=1.0, size=100_000)
        h = SketchHistogram("lat_seconds", k=200)
        h.observe_many(samples)
        ordered = np.sort(samples)
        n = len(ordered)
        for q in (0.5, 0.9, 0.99, 0.999):
            estimate = h.quantile(q)
            # normalized rank of the estimate vs the requested rank
            rank = np.searchsorted(ordered, estimate, side="right") / n
            assert abs(rank - q) <= 0.02, f"q={q}: rank {rank}"

    def test_recording_does_not_feed_back_into_the_registry(self, registry):
        # The inner KLL bypasses the obs hooks: observing values while
        # enabled must not create KLLSketch op metrics (recursion).
        h = registry.histogram("lat_seconds")
        h.observe_many(range(1000))
        assert registry.get("repro_sketch_ops_total", sketch="KLLSketch", op="update_many") is None


class TestMetricsRegistry:
    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        a = reg.counter("ops_total", sketch="HLL")
        b = reg.counter("ops_total", sketch="HLL")
        assert a is b
        assert len(reg) == 1

    def test_label_sets_are_distinct_metrics(self):
        reg = MetricsRegistry()
        a = reg.counter("ops_total", sketch="HLL")
        b = reg.counter("ops_total", sketch="KLL")
        assert a is not b
        assert len(reg) == 2

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_clear(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        reg.clear()
        assert len(reg) == 0

    def test_collect_is_sorted_and_get_finds_metrics(self):
        reg = MetricsRegistry()
        reg.counter("b_total")
        reg.counter("a_total")
        assert [m.name for m in reg.collect()] == ["a_total", "b_total"]
        assert reg.get("a_total") is not None
        assert reg.get("missing") is None


class TestSwitch:
    def test_disabled_by_default(self):
        assert obs.enabled() is False

    def test_enable_scope_restores(self):
        assert not obs.enabled()
        with obs.enable():
            assert obs.enabled()
            with obs.disable():
                assert not obs.enabled()
            assert obs.enabled()
        assert not obs.enabled()

    def test_bare_enable_then_restore(self):
        toggle = obs.enable()
        assert obs.enabled()
        toggle.restore()
        assert not obs.enabled()

    def test_env_var_switch(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS", raising=False)
        assert _env_enabled() is False
        for off in ("0", "false", "off", ""):
            monkeypatch.setenv("REPRO_OBS", off)
            assert _env_enabled() is False, off
        for on in ("1", "true", "yes"):
            monkeypatch.setenv("REPRO_OBS", on)
            assert _env_enabled() is True, on

    def test_set_registry_swaps_default(self):
        fresh = MetricsRegistry()
        previous = obs.set_registry(fresh)
        try:
            assert obs.get_registry() is fresh
        finally:
            obs.set_registry(previous if previous is not None else MetricsRegistry())


class TestTrackState:
    """track_state: live sketch footprints refreshed at scrape time."""

    def test_gauge_follows_growth_on_collect(self):
        from repro.frequency import SpaceSaving

        registry = MetricsRegistry()
        sk = SpaceSaving(k=64)
        gauge = registry.track_state(sk, name="tracked")
        first = gauge.value
        assert first == sk.memory_footprint() > 0
        for i in range(200):
            sk.update(i)
        registry.collect()  # scrape refreshes the gauge
        assert gauge.value == sk.memory_footprint() > first

    def test_weakref_does_not_extend_lifetime(self):
        import gc

        from repro.cardinality import HyperLogLog

        registry = MetricsRegistry()
        sk = HyperLogLog(p=8, seed=1)
        registry.track_state(sk, name="doomed")
        del sk
        gc.collect()
        registry.collect()  # prunes the dead ref without raising
        assert registry._tracked_state == {}

    def test_default_label_is_object_id(self):
        from repro.cardinality import HyperLogLog

        registry = MetricsRegistry()
        sk = HyperLogLog(p=8, seed=1)
        registry.track_state(sk)
        [(label, ref)] = registry._tracked_state.items()
        assert label == f"0x{id(sk):x}"
        assert ref() is sk

    def test_clear_resets_tracking(self):
        from repro.cardinality import HyperLogLog

        registry = MetricsRegistry()
        registry.track_state(HyperLogLog(p=8, seed=1), name="x")
        registry.clear()
        assert registry._tracked_state == {}
