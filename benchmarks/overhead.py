"""The A7 paired-overhead protocol, as one table.

Every promise the obs layer makes about its own cost is one row of
:data:`CONDITIONS`: a *base* arm, a *variant* arm, a bound on the
variant's relative overhead over the base, and the workloads it is
measured on.  The arms:

- ``raw`` — the pre-instrumentation kernel, ``update_many.__wrapped__``;
- ``off`` — the instrumented path with metrics and tracing disabled;
- ``metrics`` — metrics enabled into a fresh registry;
- ``tracing`` — tracing enabled into a fresh tracer;
- ``recorder-idle`` — metrics plus a :class:`~repro.obs.TimelineRecorder`
  that is built but never started;
- ``recorder`` — metrics plus the recorder running at a 1 s interval;
- ``engine`` — the running recorder plus a 1 s
  :class:`~repro.obs.AlertEngine` evaluating four rules, drift included.

:func:`measure` times, per workload, every arm its rows need in
:func:`~repro.obs.bench.interleaved_ns` rounds (each arm once per round,
the order rotating between rounds, a fresh workload per sample), so an
arm two rows share is timed once, and scores each row with
:func:`~repro.obs.bench.overhead_estimate`.  A running recorder ticks,
and an engine evaluates, once a second on its own thread, which a
few-ms sample almost never contains; :func:`duty_cycles` times those
passes on a steady state instead, and a row adds its variant's share
of a second over its base's.
``scripts/check_overhead.py`` gates the table in CI at
:func:`gate_workloads` sizes; the A7 and A8 benchmarks run it at their own.
"""

from __future__ import annotations

import statistics
import time
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import repro.obs as obs
from repro.cardinality import HyperLogLog
from repro.frequency import CountMinSketch
from repro.membership import BloomFilter
from repro.obs import (
    AlertEngine,
    ChangePointRule,
    DriftRule,
    MetricsRegistry,
    QuantileRule,
    ThresholdRule,
    TimelineRecorder,
    Tracer,
)
from repro.obs.bench import interleaved_ns, overhead_estimate
from repro.quantiles import KLLSketch


@dataclass(frozen=True)
class Condition:
    """One overhead promise: ``variant`` costs less than ``bound`` over ``base``."""

    name: str
    base: str
    variant: str
    bound: float
    workloads: tuple[str, ...]


FAMILIES = ("HyperLogLog", "CountMin", "Bloom", "KLL")

CONDITIONS = (
    Condition("off", "raw", "off", 0.02, FAMILIES),
    Condition("metrics", "raw", "metrics", 0.05, FAMILIES),
    Condition("tracing", "raw", "tracing", 0.05, FAMILIES),
    Condition("recorder-idle", "metrics", "recorder-idle", 0.02, ("timeline",)),
    Condition("recorder", "metrics", "recorder", 0.05, ("timeline",)),
    Condition("engine", "recorder", "engine", 0.05, ("timeline",)),
)

INTERVAL = 1.0

#: windows closed before passes are timed: the drift rule's full
#: history (40 baseline + 5 recent), so every rule evaluates for real.
WARM_WINDOWS = 45
#: windows whose tick and evaluation are timed.
TIMED_WINDOWS = 15


@dataclass(frozen=True)
class Workload:
    """What one timed sample runs: ``drive(make(), raw)``."""

    make: Callable[[], Any]
    drive: Callable[[Any, bool], None]


def family(factory, data, calls: int) -> Workload:
    """``calls`` batch updates of ``data`` into a fresh ``factory()`` sketch."""

    def drive(sketch, raw):
        kernel = type(sketch).update_many
        if raw:
            kernel = kernel.__wrapped__
        for _ in range(calls):
            kernel(sketch, data)

    return Workload(factory, drive)


def timeline(hll_data, kll_data, hist_data, calls: int) -> Workload:
    """Instrumented sketch batches plus direct ``observe_many`` feeds.

    The histogram feed is small next to the sketch work: a live process
    observes per-op timings, not bulk value streams.  Every observation
    enters one KLL: the cumulative one under the ``metrics`` arm, the
    open window's under a running recorder.  A sample never spans a
    tick, so the ``recorder`` arm feeds as many values into as fresh a
    sketch as its base does.  The one merge per closed window that the
    cumulative pays on the histogram's next feed falls outside both the
    samples and :func:`duty_cycles`' timed ticks; A31 measured it at
    ~13 µs per 250-value window into a 12-level cumulative.
    """

    def make():
        registry = obs.get_registry()
        return (
            HyperLogLog(p=12, seed=1),
            KLLSketch(k=200, seed=1),
            registry.histogram("lat_seconds", "Workload latency."),
        )

    def drive(state, raw):
        hll, kll, hist = state
        for _ in range(calls):
            hll.update_many(hll_data)
            kll.update_many(kll_data)
            hist.observe_many(hist_data)

    return Workload(make, drive)


def gate_workloads(seed: int = 13) -> dict[str, Workload]:
    """CI sizes: a few ms per sample (one to three batch calls), many rounds.

    Short samples more often miss the host's noise: on a shared 2-vCPU
    host the median paired ratio of identical arms spread about ±1.3%
    with 20 ms samples over 60 rounds and ±0.5% with 2–3 ms samples over
    720, at equal timed work.  Much shorter samples would put each fresh
    registry's first-metric cost in the timed region.
    """
    rng = np.random.default_rng(seed)
    ints = rng.integers(0, 1 << 40, 50_000)
    floats = rng.normal(size=20_000)
    return {
        "HyperLogLog": family(lambda: HyperLogLog(p=12, seed=1), ints, 3),
        "CountMin": family(
            lambda: CountMinSketch(width=4096, depth=4, seed=1),
            rng.integers(0, 100_000, 50_000),
            2,
        ),
        "Bloom": family(lambda: BloomFilter(m=1 << 16, k=4, seed=1), ints, 2),
        "KLL": family(lambda: KLLSketch(k=200, seed=1), floats, 1),
        "timeline": timeline(
            ints, floats, rng.lognormal(mean=-3.0, sigma=0.8, size=256), 2
        ),
    }


def family_workloads(seed: int, n_items: int, calls: int) -> dict[str, Workload]:
    """The four families at one size, ``calls`` batches of ``n_items`` (A7, A8)."""
    rng = np.random.default_rng(seed)
    ints = rng.integers(0, 1 << 40, size=n_items)
    floats = rng.normal(size=n_items)
    return {
        "HyperLogLog": family(lambda: HyperLogLog(p=12, seed=1), ints, calls),
        "CountMin": family(
            lambda: CountMinSketch(width=2048, depth=4, seed=1), ints, calls
        ),
        "Bloom": family(lambda: BloomFilter(m=1 << 16, k=4, seed=1), ints, calls),
        "KLL": family(lambda: KLLSketch(k=200, seed=1), floats, calls),
    }


def alert_rules():
    """The engine arm's load: a p99 SLO, KLL drift, a threshold and a change point."""
    return [
        QuantileRule(
            "p99-slo", "lat_seconds", threshold=3.2, q=0.99, over=5, min_count=100,
            severity="critical",
        ),
        DriftRule(
            "kll-drift", "lat_seconds", baseline_windows=40, recent_windows=5,
            min_count=300,
        ),
        ThresholdRule("rate-spike", "req_total", threshold=50.0, over=5),
        ChangePointRule("req-changepoint", "req_total", trailing=20, min_history=8),
    ]


def _fresh_registry(stack: ExitStack) -> MetricsRegistry:
    registry = MetricsRegistry()
    previous = obs.set_registry(registry)
    stack.callback(
        obs.set_registry, previous if previous is not None else MetricsRegistry()
    )
    stack.enter_context(obs.enable())
    return registry


def _fresh_tracer(stack: ExitStack) -> None:
    previous = obs.set_tracer(Tracer())
    stack.callback(obs.set_tracer, previous if previous is not None else Tracer())
    stack.enter_context(obs.enable_tracing())


def _setup(arm: str, workload: Workload):
    """Untimed: install ``arm``'s environment, then build a fresh workload in it."""

    def setup():
        with ExitStack() as stack:
            registry = None
            if arm == "tracing":
                _fresh_tracer(stack)
            elif arm not in ("raw", "off"):
                registry = _fresh_registry(stack)
            state = workload.make()
            if arm in ("recorder-idle", "recorder", "engine"):
                recorder = TimelineRecorder(
                    registry=registry, interval=INTERVAL, max_windows=600
                )
                if arm == "recorder-idle":
                    stack.callback(recorder.stop)
                else:
                    stack.enter_context(recorder)
            if arm == "engine":
                registry.counter("req_total", "Workload requests.").inc()
                stack.enter_context(
                    AlertEngine(recorder, rules=alert_rules(), interval=INTERVAL)
                )
            return stack.pop_all(), state

    return setup


def duty_cycles(workload: Workload) -> dict[str, float]:
    """Share of a second the ``recorder`` and ``engine`` arms' periodic passes take.

    A recorder on a manual clock closes one window per drive of the
    workload, and an engine evaluates its rules after each tick.  After
    :data:`WARM_WINDOWS` windows, the median of :data:`TIMED_WINDOWS`
    ticks (and of as many evaluations) over :data:`INTERVAL` is what the
    background thread takes of a core.  Arms without one take nothing.
    """
    ticks, passes = [], []
    with ExitStack() as stack:
        registry = _fresh_registry(stack)
        state = workload.make()
        registry.counter("req_total", "Workload requests.").inc()
        now = [0.0]
        recorder = TimelineRecorder(
            registry=registry, interval=INTERVAL, max_windows=600, clock=lambda: now[0]
        )
        recorder.tick()  # attaches the histograms' windows
        engine = AlertEngine(recorder, rules=alert_rules(), interval=INTERVAL)
        for window in range(WARM_WINDOWS + TIMED_WINDOWS):
            workload.drive(state, False)
            now[0] += INTERVAL
            start = time.perf_counter_ns()
            recorder.tick()
            ticked = time.perf_counter_ns()
            engine.evaluate(now[0])
            if window >= WARM_WINDOWS:
                ticks.append(ticked - start)
                passes.append(time.perf_counter_ns() - ticked)
    tick = statistics.median(ticks) * 1e-9 / INTERVAL
    return {"recorder": tick, "engine": tick + statistics.median(passes) * 1e-9 / INTERVAL}


@dataclass(frozen=True)
class Result:
    condition: Condition
    workload: str
    overhead: float  # the paired samples' estimate
    base_ns: int  # best base-arm sample
    duty: float = 0.0  # the variant's periodic passes over the base's, per second

    @property
    def cost(self) -> float:
        """What the row gates: the paired estimate plus the periodic passes.

        A paired estimate below zero counts as zero: the row bounds what
        the variant adds, not what it saves.  A running recorder's hot
        path does the histogram work of its ``metrics`` base and no more
        (its observations feed the window KLL instead of the cumulative
        one), so its estimate is noise around zero and the row gates
        mostly its tick's duty (A31).
        """
        return max(self.overhead, 0.0) + self.duty

    @property
    def ok(self) -> bool:
        return self.cost < self.condition.bound


def measure(
    workloads: dict[str, Workload],
    repeats: int,
    conditions=CONDITIONS,
) -> list[Result]:
    """Every (condition, workload) pair of ``conditions`` over ``workloads``."""
    if obs.enabled() or obs.tracing_enabled():
        raise RuntimeError("metrics and tracing must start disabled (REPRO_OBS/REPRO_TRACE)")
    results = []
    for name, workload in workloads.items():
        rows = [c for c in conditions if name in c.workloads]
        arms = dict.fromkeys(arm for c in rows for arm in (c.base, c.variant))
        if not arms:
            continue
        variants = [
            (
                arm,
                _setup(arm, workload),
                lambda state, raw=arm == "raw": workload.drive(state[1], raw),
                lambda state: state[0].close(),
            )
            for arm in arms
        ]
        samples = interleaved_ns(variants, repeats=repeats)
        duty = duty_cycles(workload) if {"recorder", "engine"} & set(arms) else {}
        for c in rows:
            results.append(
                Result(
                    c,
                    name,
                    overhead_estimate(samples[c.variant], samples[c.base]),
                    min(samples[c.base]),
                    duty.get(c.variant, 0.0) - duty.get(c.base, 0.0),
                )
            )
    return results


def throughput_rows(results: list[Result], items_per_run: int) -> list[list]:
    """One table row per workload: base M/s, each variant's M/s, each overhead %.

    For conditions that share a base arm (the A7/A8 benchmarks' ``raw``).
    """
    by_workload: dict[str, list[Result]] = {}
    for r in results:
        by_workload.setdefault(r.workload, []).append(r)
    rows = []
    for name, rs in by_workload.items():
        base_rate = items_per_run / (rs[0].base_ns * 1e-9) / 1e6
        rows.append(
            [name, base_rate]
            + [base_rate / (1.0 + r.overhead) for r in rs]
            + [r.overhead * 100 for r in rs]
        )
    return rows
