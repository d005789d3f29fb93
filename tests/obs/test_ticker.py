"""The background-component lifecycle, pinned once for all four tickers.

:class:`~repro.obs.TimelineRecorder`, :class:`~repro.obs.AlertEngine`,
:class:`~repro.store.Compactor` and :class:`~repro.obs.SamplingProfiler`
each run one pass on a fixed period from a daemon thread.  They share
one contract: a second ``start`` raises, ``stop`` is idempotent, ``with``
starts and stops, the thread carries the component's name, and a pass
that raises is counted in ``repro_background_errors_total{thread}`` while
the thread goes on to the next pass.
"""

import ast
import statistics
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import pytest

import repro
from repro.obs import (
    AlertEngine,
    MetricsRegistry,
    SamplingProfiler,
    TimelineRecorder,
    get_registry,
    set_registry,
)
from repro.store import Compactor, SketchStore

PERIOD = 0.02


@dataclass
class Rig:
    """One component plus the handles the contract needs."""

    component: object
    thread_name: str
    pass_method: str  # the method the thread calls once per period
    passes: Callable[[], int]  # passes completed so far
    registry: MetricsRegistry  # where a failing pass is counted
    start: Callable[[], object]  # start at the test period


def _recorder(tmp_path, period):
    registry = MetricsRegistry()
    registry.counter("work_total", "t").inc()
    rec = TimelineRecorder(registry=registry, interval=period)
    return Rig(rec, "repro-obs-timeline", "tick", lambda: rec.ticks, registry, rec.start)


def _engine(tmp_path, period):
    registry = MetricsRegistry()
    recorder = TimelineRecorder(registry=registry, interval=1.0)
    engine = AlertEngine(recorder, interval=period)
    return Rig(engine, "repro-obs-alerts", "evaluate", lambda: engine.evaluations,
               registry, engine.start)


def _compactor(tmp_path, period):
    registry = MetricsRegistry()
    store = SketchStore(tmp_path / "store")
    comp = Compactor(store, ttl=1.0, clock=lambda: 100.0, registry=registry)
    return Rig(comp, "repro-store-compactor", "run_once", lambda: comp.runs, registry,
               lambda: comp.start(interval=period))


def _profiler(tmp_path, period):
    profiler = SamplingProfiler(hz=1.0 / period)
    return Rig(profiler, "repro-obs-profiler", "sample_once", lambda: profiler.samples,
               get_registry(), profiler.start)


BUILDERS = {
    "recorder": _recorder,
    "engine": _engine,
    "compactor": _compactor,
    "profiler": _profiler,
}


@pytest.fixture(autouse=True)
def fresh_global_registry():
    """The profiler counts into the process-global registry: isolate it."""
    previous = set_registry(MetricsRegistry())
    yield
    set_registry(previous if previous is not None else MetricsRegistry())


@pytest.fixture(params=sorted(BUILDERS))
def build(request, tmp_path):
    rigs = []

    def make(period=PERIOD):
        rigs.append(BUILDERS[request.param](tmp_path, period))
        return rigs[-1]

    yield make
    for rig in rigs:
        rig.component.stop()
        store = getattr(rig.component, "store", None)
        if store is not None:
            store.close()


def wait_for(predicate, timeout=5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


def failures(rig: Rig) -> float:
    counter = rig.registry.get("repro_background_errors_total", thread=rig.thread_name)
    return 0.0 if counter is None else counter.value


class TestLifecycle:
    def test_double_start_raises(self, build):
        rig = build(60.0)
        rig.start()
        try:
            with pytest.raises(RuntimeError, match="already running"):
                rig.start()
        finally:
            rig.component.stop()

    def test_stop_is_idempotent_including_before_start(self, build):
        rig = build()
        rig.component.stop()
        assert not rig.component.running
        rig.start()
        assert rig.component.running
        rig.component.stop()
        rig.component.stop()
        assert not rig.component.running

    def test_with_starts_and_stops(self, build):
        rig = build(60.0)
        with rig.component as entered:
            assert entered is rig.component
            assert rig.component.running
        assert not rig.component.running

    def test_thread_carries_the_component_name(self, build):
        rig = build(60.0)
        rig.start()
        try:
            assert rig.thread_name in {t.name for t in threading.enumerate()}
        finally:
            rig.component.stop()

    def test_passes_run(self, build):
        rig = build()
        rig.start()
        try:
            assert wait_for(lambda: rig.passes() >= 3)
        finally:
            rig.component.stop()

    def test_failing_pass_is_counted_and_the_next_pass_runs(self, build):
        rig = build()
        real = getattr(rig.component, rig.pass_method)
        calls = []

        def fail_first(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("injected pass failure")
            return real(*args, **kwargs)

        setattr(rig.component, rig.pass_method, fail_first)
        rig.start()
        try:
            assert wait_for(lambda: rig.passes() >= 2)
            assert rig.component.running
        finally:
            rig.component.stop()
        assert failures(rig) == 1.0

    def test_slow_pass_keeps_the_schedule(self, build):
        """A pass costing 40% of the period does not push the next one back."""
        period = 0.1
        rig = build(period)
        real = getattr(rig.component, rig.pass_method)
        starts = []

        def slow(*args, **kwargs):
            starts.append(time.monotonic())
            time.sleep(0.4 * period)
            return real(*args, **kwargs)

        setattr(rig.component, rig.pass_method, slow)
        rig.start()
        try:
            assert wait_for(lambda: len(starts) >= 7)
        finally:
            rig.component.stop()
        gaps = [b - a for a, b in zip(starts, starts[1:])]
        # Sleeping a full period after each pass would space them 1.4
        # periods apart; on the schedule they sit one period apart.
        assert statistics.median(gaps) < 1.2 * period


class TestRecorderStop:
    def test_stop_flushes_the_open_window(self):
        registry = MetricsRegistry()
        counter = registry.counter("work_total", "t")
        rec = TimelineRecorder(registry=registry, interval=60.0)  # never ticks alone
        rec.start()
        counter.inc(42)
        rec.stop()
        assert rec.ticks == 1
        assert rec.query("work_total").total == 42.0


PACKAGE = Path(repro.__file__).parent
TICKER_MODULE = PACKAGE / "obs" / "ticker.py"


def stop_events(path: Path) -> list[int]:
    """Lines of one module that build a ``threading.Event``."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "Event"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "threading"
    )


def test_only_the_ticker_module_builds_a_thread_event():
    offenders = {
        str(path.relative_to(PACKAGE)): found
        for path in sorted(PACKAGE.rglob("*.py"))
        if path != TICKER_MODULE and (found := stop_events(path))
    }
    assert offenders == {}


def test_the_guard_sees_a_thread_event(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text("import threading\n\nstop = threading.Event()\n")
    assert stop_events(source) == [3]
