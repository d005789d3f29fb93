"""Buffered ``SketchHistogram.observe``: every value enters one sketch.

``observe`` appends to a short pending list and flushes it through the
KLL bulk path into one sketch: the cumulative one while no recorder is
attached, the open window's while one is.  A tick flushes the pending
values into the window and queues it; the next observe or read merges
each queued window into the cumulative sketch.  These properties pin
the contract:

- every published window partial is bitwise-equal to a ``KLLSketch``
  fed the same values one ``update`` at a time, and so is the
  cumulative sketch while no recorder was ever attached;
- once absorbed, an attached cumulative sketch is bitwise-equal to
  ``merge_levels`` folded, in close order, over the pre-attach
  cumulative and each non-empty closed window;
- ``count`` and ``sum`` are exact at every step, and every read's
  quantile lies within ``rank_error_bound()`` of the exact rank.
"""

import math
import re
import threading
from bisect import bisect_left, bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.obs import MetricsRegistry, SketchHistogram, TimelineRecorder
from repro.obs.registry import _PENDING_MAX
from repro.quantiles import KLLSketch
from repro.quantiles.kll import merge_levels

NAME = "lat_seconds"
KEY = (NAME, (("route", "a"),))
#: windows so long that a started recorder's thread never ticks by itself.
INTERVAL = 1e9

values_st = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=32)

observe_ops = [
    st.tuples(st.just("observe"), st.lists(values_st, max_size=3 * _PENDING_MAX)),
    st.tuples(st.just("observe_many"), st.lists(values_st, max_size=150)),
]
read_ops = [
    st.tuples(st.just("quantile"), st.floats(min_value=0.0, max_value=1.0)),
    st.tuples(st.just("count")),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("prometheus")),
]
window_ops = [
    st.tuples(st.just("tick")),
    st.tuples(st.just("start")),
    st.tuples(st.just("stop")),
]

#: observes and reads only: no recorder is ever attached.
unattached_ops_st = st.lists(st.one_of(*observe_ops, *read_ops), max_size=30)
ops_st = st.lists(st.one_of(*observe_ops, *read_ops, *window_ops), max_size=30)


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


def assert_within_rank_bound(values, q: float, estimate: float, eps: float) -> None:
    """``estimate``'s exact rank among ``values`` is within ``eps`` of ``q``."""
    ordered = sorted(values)
    lo = bisect_left(ordered, estimate) / len(ordered)
    hi = bisect_right(ordered, estimate) / len(ordered)
    assert lo - eps <= q <= hi + eps, (q, lo, hi, eps)


class Model:
    """Drives one histogram and a manually clocked recorder, with references."""

    def __init__(self, count_every_step: bool = False) -> None:
        self.registry = MetricsRegistry()
        self.now = 1_000.0
        self.rec = TimelineRecorder(registry=self.registry, interval=INTERVAL,
                                    clock=lambda: self.now)
        self.hist = self.registry.histogram(NAME, route="a")
        self.eps = self.hist.rank_error_bound()
        self.all_values: list[float] = []
        self.sum = 0.0
        # Values owed to the open window, or None while no window is attached.
        self.window: list[float] | None = None
        # The reference cumulative: fed per item while no window is
        # attached, and merged with each non-empty closed window.
        self.cumulative = KLLSketch(k=200, seed=0)
        # Read ``count`` after every step too (it absorbs and flushes).
        self.count_every_step = count_every_step

    def record(self, values) -> None:
        self.all_values.extend(values)
        self.sum += sum(values)
        if self.window is None:
            for v in values:
                self.cumulative.update(v)
        else:
            self.window.extend(values)

    def check_published(self, published) -> None:
        partial = published.histograms.get(KEY)
        if self.window is None:
            # The tick found no window: it attaches one, publishes nothing.
            assert partial is None
        else:
            assert partial is not None
            reference = per_item(self.window)
            assert partial.to_bytes() == reference.to_bytes()
            if self.window:
                merge_levels(self.cumulative, reference)
        self.window = []

    def check_cumulative(self) -> None:
        assert self.hist._kll.to_bytes() == self.cumulative.to_bytes()

    def check_quantiles(self, quantiles: dict) -> None:
        for q, estimate in quantiles.items():
            assert_within_rank_bound(self.all_values, float(q), estimate, self.eps)

    def apply(self, op) -> None:
        kind = op[0]
        if kind == "observe":
            for v in op[1]:
                self.hist.observe(v)
                self.record([v])
                assert self.hist.sum == self.sum
        elif kind == "observe_many":
            self.hist.observe_many(op[1])
            self.record(op[1])
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
            n = len(self.all_values)
            if kind == "quantile":
                q = self.hist.quantile(op[1])
                assert math.isnan(q) == (not n)
                if n:
                    self.check_quantiles({op[1]: q})
            elif kind == "count":
                assert self.hist.count == n
            elif kind == "snapshot":
                snap = self.hist.snapshot()
                assert snap["count"] == n
                assert snap["sum"] == self.sum
                if n:
                    self.check_quantiles(snap["quantiles"])
            elif kind == "prometheus":
                assert prometheus_line(self.registry, "count") == n
                assert prometheus_line(self.registry, "sum") == self.sum
            self.check_cumulative()
        assert self.hist.sum == self.sum
        if self.count_every_step:
            assert self.hist.count == len(self.all_values)


def run_model(ops, count_every_step: bool = False) -> Model:
    model = Model(count_every_step)
    try:
        for op in ops:
            model.apply(op)
        model.apply(("stop",))
        model.apply(("tick",))
        model.apply(("count",))
    finally:
        model.rec.stop()
    return model


@settings(max_examples=60, deadline=None)
@given(unattached_ops_st)
def test_interleavings_match_per_item_feeding(ops):
    model = Model()
    for op in ops:
        model.apply(op)
    model.apply(("count",))
    assert model.hist._kll.to_bytes() == per_item(model.all_values).to_bytes()


@settings(max_examples=60, deadline=None)
@given(ops_st)
def test_attached_cumulative_is_the_close_order_fold(ops):
    """Windows bitwise per-item; the cumulative their close-order merge_levels fold."""
    for count_every_step in (False, True):
        run_model(ops, count_every_step)


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
    """The tick feeds the window sketch only; the next observe absorbs it."""
    registry = MetricsRegistry()
    rec = TimelineRecorder(registry=registry, interval=1.0, clock=lambda: 1_000.0)
    hist = registry.histogram(NAME)
    rec.tick(1_000.0)  # attaches the window
    for i in range(10):
        hist.observe(float(i))
    published = rec.tick(1_001.0)
    partial = published.histograms[(NAME, ())]
    assert partial.n == 10
    # The tick merged nothing: the closed window waits for the next observe.
    assert hist._kll.n == 0 and not hist._pending and hist._closed == [partial]
    hist.observe(10.0)
    assert hist._kll.to_bytes() == per_item([float(i) for i in range(10)]).to_bytes()
    assert not hist._closed and partial.to_bytes() == per_item(
        [float(i) for i in range(10)]).to_bytes()  # merged, not mutated
    for i in range(11, 20):
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
              list(hist._closed), hist.sum)
    with pytest.raises(ValueError):
        hist.observe("x")
    with pytest.raises(TypeError):
        hist.observe(None)
    after = (hist._kll.to_bytes(), hist._window_kll.to_bytes(), list(hist._pending),
             list(hist._closed), hist.sum)
    assert after == before
    hist.observe(100.0)  # fills the buffer: the flush never sees the bad value
    good.append(100.0)
    assert hist._kll.n == 0  # attached: the values went to the window only
    assert hist._window_kll.to_bytes() == per_item(good).to_bytes()
    assert rec.tick(1_001.0).histograms[(NAME, ())].to_bytes() == per_item(good).to_bytes()


def test_repr_counts_pending_observations():
    hist = SketchHistogram(NAME)
    for i in range(3):
        hist.observe(float(i))
    assert "n=3" in repr(hist)


def test_absorbing_never_reenters_the_registry():
    """With metrics on, the histograms the KLL hooks record into absorb too.

    Merging a closed window through the instrumented ``KLLSketch.merge``
    would record into ``repro_sketch_op_seconds`` — possibly the very
    histogram holding its lock — so the drive runs in a thread with a
    timeout: a re-entry fails the test instead of hanging it.
    """
    registry = MetricsRegistry()
    previous = obs.set_registry(registry)
    clock = [1_000.0]
    rec = TimelineRecorder(registry=registry, interval=1.0, clock=lambda: clock[0])
    errors: list[BaseException] = []

    def drive() -> None:
        try:
            with obs.enable():
                a, b = KLLSketch(k=50, seed=1), KLLSketch(k=50, seed=2)
                b.update_many([float(v) for v in range(100)])
                rec.tick()
                for _ in range(6):
                    for _ in range(3):
                        a.update_many([float(v) for v in range(50)])
                        a.merge(b)
                    clock[0] += 1.0
                    rec.tick()
                registry.to_prometheus()
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    thread = threading.Thread(target=drive, daemon=True)
    thread.start()
    thread.join(timeout=60.0)
    obs.set_registry(previous)
    assert not thread.is_alive(), "absorbing a window re-entered the registry"
    assert not errors
    merges = registry.get("repro_sketch_op_seconds", sketch="KLLSketch", op="merge")
    assert merges.count == 18 and not merges._closed


def test_closed_windows_wait_for_at_most_one_observe():
    registry = MetricsRegistry()
    rec = TimelineRecorder(registry=registry, interval=1.0, clock=lambda: 1_000.0)
    busy = registry.histogram(NAME, route="busy")
    idle = registry.histogram(NAME, route="idle")
    rec.tick(1_000.0)
    values = []
    for t in range(100):
        for i in range(5):
            busy.observe(float(t * 5 + i))
            values.append(float(t * 5 + i))
            assert not busy._closed
        rec.tick(1_001.0 + t)
        assert len(busy._closed) <= 1
        assert not idle._closed
    assert busy.count == 500 and idle.count == 0
    assert not busy._closed and idle._kll.n == 0
    assert_within_rank_bound(values, 0.99, busy.quantile(0.99), busy.rank_error_bound())


def test_values_after_the_last_tick_reach_the_cumulative_after_stop():
    registry = MetricsRegistry()
    hist = registry.histogram(NAME)
    rec = TimelineRecorder(registry=registry, interval=INTERVAL)
    rec.start()
    hist.observe_many([1.0] * 40)
    rec.tick()
    hist.observe_many([2.0] * 30)  # after the last tick
    for _ in range(5):
        hist.observe(3.0)  # still pending at stop
    rec.stop()
    assert hist._window_kll is None
    assert hist.count == 75 and hist._kll.n == 75 and not hist._closed
    # Detached with values in the open window: they reach it too.
    hist._attach_window()
    hist.observe_many([4.0] * 7)
    hist._detach_window()
    hist.observe(5.0)
    assert hist._kll.n == 82 and hist.count == 83


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
