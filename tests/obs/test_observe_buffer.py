"""Buffered ``SketchHistogram.observe``: same sketch state as per-item feeding.

``observe`` appends to a short pending list and flushes it through the
KLL bulk path; a tick flushes only the window mirror, and every read
flushes everything.  These properties pin the contract that the
buffering is invisible: every published window partial and the
cumulative sketch are bitwise-equal to a ``KLLSketch`` fed the same
values one ``update`` at a time, and ``count``/``sum`` are exact at
every step.
"""

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry, SketchHistogram, TimelineRecorder
from repro.obs.registry import _PENDING_MAX
from repro.quantiles import KLLSketch

NAME = "lat_seconds"
KEY = (NAME, (("route", "a"),))
#: windows so long that a started recorder's thread never ticks by itself.
INTERVAL = 1e9

values_st = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=32)

ops_st = st.lists(
    st.one_of(
        st.tuples(st.just("observe"), st.lists(values_st, max_size=3 * _PENDING_MAX)),
        st.tuples(st.just("observe_many"), st.lists(values_st, max_size=150)),
        st.tuples(st.just("tick")),
        st.tuples(st.just("quantile"), st.floats(min_value=0.0, max_value=1.0)),
        st.tuples(st.just("count")),
        st.tuples(st.just("snapshot")),
        st.tuples(st.just("prometheus")),
        st.tuples(st.just("start")),
        st.tuples(st.just("stop")),
    ),
    max_size=30,
)


def per_item(values, k=200) -> KLLSketch:
    """The reference: a KLL fed ``values`` one ``update`` at a time."""
    sk = KLLSketch(k=k, seed=0)
    for v in values:
        sk.update(v)
    return sk


def prometheus_line(registry: MetricsRegistry, suffix: str) -> float:
    text = registry.to_prometheus()
    match = re.search(rf'^{NAME}_{suffix}\{{route="a"\}} (\S+)$', text, re.M)
    assert match is not None, text
    return float(match.group(1))


class Model:
    """Drives one histogram and a manually clocked recorder, with references."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.now = 1_000.0
        self.rec = TimelineRecorder(registry=self.registry, interval=INTERVAL,
                                    clock=lambda: self.now)
        self.hist = self.registry.histogram(NAME, route="a")
        self.all_values: list[float] = []
        self.sum = 0.0
        # Values owed to the open window, or None while no mirror is attached.
        self.window: list[float] | None = None

    def check_published(self, published) -> None:
        partial = published.histograms.get(KEY)
        if self.window is None:
            # The tick found no mirror: it attaches one, publishes nothing.
            assert partial is None
        else:
            assert partial is not None
            assert partial.to_bytes() == per_item(self.window).to_bytes()
        self.window = []

    def check_cumulative(self) -> None:
        assert self.hist._kll.to_bytes() == per_item(self.all_values).to_bytes()

    def apply(self, op) -> None:
        kind = op[0]
        if kind == "observe":
            for v in op[1]:
                self.hist.observe(v)
                self.all_values.append(v)
                self.sum += v
                if self.window is not None:
                    self.window.append(v)
                assert self.hist.sum == self.sum
        elif kind == "observe_many":
            self.hist.observe_many(op[1])
            self.all_values.extend(op[1])
            self.sum += sum(op[1])
            if self.window is not None:
                self.window.extend(op[1])
        elif kind == "tick":
            self.now += 1.0
            self.check_published(self.rec.tick(self.now))
        elif kind == "start":
            if not self.rec.running:
                self.rec.start()
                if self.window is None:
                    self.window = []
        elif kind == "stop":
            if self.rec.running:
                self.now += 1.0
                self.rec.stop()  # publishes the open window, then detaches
                windows = self.rec.windows()
                self.check_published(windows[-1])
                self.window = None
        else:
            if kind == "quantile":
                q = self.hist.quantile(op[1])
                assert math.isnan(q) == (not self.all_values)
            elif kind == "count":
                assert self.hist.count == len(self.all_values)
            elif kind == "snapshot":
                snap = self.hist.snapshot()
                assert snap["count"] == len(self.all_values)
                assert snap["sum"] == self.sum
            elif kind == "prometheus":
                assert prometheus_line(self.registry, "count") == len(self.all_values)
            self.check_cumulative()


@settings(max_examples=60, deadline=None)
@given(ops_st)
def test_interleavings_match_per_item_feeding(ops):
    model = Model()
    try:
        for op in ops:
            model.apply(op)
        model.apply(("stop",))
        model.apply(("tick",))
        model.apply(("count",))
    finally:
        model.rec.stop()


def test_count_prometheus_and_sum_exact_after_every_observe():
    registry = MetricsRegistry()
    hist = registry.histogram(NAME, route="a")
    total = 0.0
    for i in range(2 * _PENDING_MAX + 5):
        value = 0.25 * i + 0.1
        hist.observe(value)
        total += value
        assert hist.sum == total
        assert prometheus_line(registry, "sum") == total
        assert prometheus_line(registry, "count") == i + 1
        assert hist.count == i + 1


def test_observations_buffer_until_the_pending_list_fills():
    hist = SketchHistogram(NAME)
    for i in range(_PENDING_MAX - 1):
        hist.observe(float(i))
    assert hist._kll.n == 0  # still pending: no KLL work yet
    hist.observe(-1.0)
    assert hist._kll.n == _PENDING_MAX and not hist._pending


def test_tick_flushes_only_the_mirror():
    registry = MetricsRegistry()
    rec = TimelineRecorder(registry=registry, interval=1.0, clock=lambda: 1_000.0)
    hist = registry.histogram(NAME)
    rec.tick(1_000.0)  # attaches the mirror
    for i in range(10):
        hist.observe(float(i))
    published = rec.tick(1_001.0)
    assert published.histograms[(NAME, ())].n == 10
    assert hist._kll.n == 0 and len(hist._pending) == 10  # still owed to the cumulative
    for i in range(10, 20):
        hist.observe(float(i))
    assert hist.count == 20
    assert rec.tick(1_002.0).histograms[(NAME, ())].to_bytes() == \
        per_item([float(i) for i in range(10, 20)]).to_bytes()


def test_values_pending_at_attach_stay_out_of_the_window():
    registry = MetricsRegistry()
    rec = TimelineRecorder(registry=registry, interval=1.0, clock=lambda: 1_000.0)
    hist = registry.histogram(NAME)
    hist.observe(1.0)
    hist.observe(2.0)
    rec.tick(1_000.0)  # attaches with two values pending
    hist.observe(3.0)
    assert rec.tick(1_001.0).histograms[(NAME, ())].n == 1
    assert hist.count == 3


def test_bad_value_raises_and_leaves_state_unchanged():
    registry = MetricsRegistry()
    rec = TimelineRecorder(registry=registry, interval=1.0, clock=lambda: 1_000.0)
    hist = registry.histogram(NAME)
    rec.tick(1_000.0)
    good = [float(i) for i in range(_PENDING_MAX - 1)]
    for v in good:
        hist.observe(v)
    before = (hist._kll.to_bytes(), hist._window_kll.to_bytes(), list(hist._pending),
              hist._mirror_from, hist.sum)
    with pytest.raises(ValueError):
        hist.observe("x")
    with pytest.raises(TypeError):
        hist.observe(None)
    after = (hist._kll.to_bytes(), hist._window_kll.to_bytes(), list(hist._pending),
             hist._mirror_from, hist.sum)
    assert after == before
    hist.observe(100.0)  # fills the buffer: the flush never sees the bad value
    good.append(100.0)
    assert hist._kll.to_bytes() == per_item(good).to_bytes()
    assert rec.tick(1_001.0).histograms[(NAME, ())].to_bytes() == per_item(good).to_bytes()


def test_repr_counts_pending_observations():
    hist = SketchHistogram(NAME)
    for i in range(3):
        hist.observe(float(i))
    assert "n=3" in repr(hist)


def expected_capacities(sk: KLLSketch) -> list[int]:
    height = sk.num_levels - 1
    return [max(2, int(sk.k * (2.0 / 3.0) ** (height - level)))
            for level in range(height + 1)]


def assert_capacities(sk: KLLSketch) -> None:
    assert [sk._capacity(level) for level in range(sk.num_levels)] == \
        expected_capacities(sk)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=8, max_value=64),
    st.lists(st.integers(min_value=0, max_value=3000), min_size=1, max_size=5),
)
def test_cached_capacities_follow_the_height(k, sizes):
    parts = []
    for i, size in enumerate(sizes):
        sk = KLLSketch(k=k, seed=i)
        for v in range(size):
            sk.update(float(v * (i + 1)))
        assert_capacities(sk)
        parts.append(sk)
    merged = KLLSketch(k=k, seed=99)
    for sk in parts:
        merged.merge(sk)
        assert_capacities(merged)
    folded = KLLSketch._merge_many_impl(parts)
    assert_capacities(folded)
    restored = KLLSketch.from_state_dict(folded.state_dict())
    assert_capacities(restored)
    restored.update_many([float(v) for v in range(500)])
    assert_capacities(restored)
