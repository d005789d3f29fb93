"""Alert pipeline end to end: no false positives, fast firing, full recovery.

A deterministic synthetic workload (manual clock, ``random.Random(29)``)
driven through a :class:`~repro.obs.TimelineRecorder` and an
:class:`~repro.obs.AlertEngine` with four rules:

1. *stationary*: 55 windows of N(0,1) latency and a steady request rate
   fire nothing (the p99 SLO rule, the KLL drift detector, the rate
   threshold and the change-point rule all stay quiet);
2. *injected regression*: a p99 regression plus a distribution shift
   (N(0,1) → N(1.2, 1)) and a rate spike fire every rule within 3
   evaluation ticks;
3. *recovery*: back on baseline, every rule resolves within 40 ticks.

The engine's cost on a running process is gated by the ``engine`` row
of ``scripts/check_overhead.py``.
"""

import random

from repro.obs import (
    AlertEngine,
    ChangePointRule,
    DriftRule,
    MetricsRegistry,
    QuantileRule,
    ThresholdRule,
    TimelineRecorder,
)

STATIONARY_WINDOWS = 55
FIRE_WITHIN_TICKS = 3
RESOLVE_WITHIN_TICKS = 40


def build_rules():
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


def test_detectors_quiet_then_fire_then_resolve():
    registry = MetricsRegistry()
    clock = [1000.0]
    recorder = TimelineRecorder(
        registry=registry, interval=1.0, max_windows=256, clock=lambda: clock[0]
    )
    hist = registry.histogram("lat_seconds", "Synthetic latency.")
    counter = registry.counter("req_total", "Synthetic requests.")
    recorder.tick()
    hist._attach_window()
    engine = AlertEngine(recorder, rules=build_rules())
    rng = random.Random(29)

    def step(mean, rate):
        hist.observe_many([rng.gauss(mean, 1.0) for _ in range(100)])
        counter.inc(rate)
        clock[0] += 1.0
        recorder.tick(clock[0])
        return engine.evaluate(clock[0])

    false_positives = []
    for _ in range(STATIONARY_WINDOWS):
        false_positives.extend(step(0.0, 10))
    assert not false_positives, sorted({e.rule for e in false_positives})

    fired: dict[str, int] = {}
    for tick in range(1, FIRE_WITHIN_TICKS + 1):
        for event in step(1.2, 300):
            if event.to_state == "firing":
                fired.setdefault(event.rule, tick)
    assert set(fired) == {"p99-slo", "kll-drift", "rate-spike", "req-changepoint"}, fired

    for _ in range(RESOLVE_WITHIN_TICKS):
        step(0.0, 10)
        states = {r["name"]: r["state"] for r in engine.as_dict()["rules"]}
        if set(states.values()) <= {"resolved", "inactive"}:
            break
    else:
        raise AssertionError(f"rules did not resolve after recovery: {states}")
