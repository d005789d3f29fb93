"""A13 — alert detector sensitivity and evaluation cost.

The alert engine turns the paper's mergeable-summary guarantee into an
*operational* one: a drift alarm is trustworthy exactly because the KLL
rank-error bound is known, so the detector can separate "the sketch is
noisy" from "the distribution moved".  Two measurements gate that story:

- **Sensitivity.**  A manually clocked recorder feeds a stationary
  N(0,1) stream, then injects mean shifts of growing magnitude; for
  each shift this driver reports windows-until-firing.  Shifts inside
  the combined ``2·rank_error_bound`` + sampling-noise threshold must
  *never* fire (the bound is doing its job), shifts beyond it must fire
  within a few evaluation ticks.  A 55-window stationary run doubles as
  the false-positive check.
- **Evaluation cost.**  The suite's ``obs/alert_eval`` case times full
  engine passes (threshold + quantile SLO + KLL drift + change-point
  over a 96-window ring); cheap evaluation is what makes a 1 s ticker
  viable, and the ``engine`` row of ``scripts/check_overhead.py``
  holds the running engine below 5% workload overhead in CI.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_a13_alerts.py -s``.
"""

import random

from _util import emit

from suite import ALERT_EVALS, TIMELINE_WINDOWS, build_runner

from repro.obs import AlertEngine, DriftRule, MetricsRegistry, TimelineRecorder

BASELINE_WINDOWS = 40
RECENT_WINDOWS = 5
OBS_PER_WINDOW = 400
MAX_TICKS = 30


def _drift_rig(seed):
    registry = MetricsRegistry()
    clock = [1_000.0]
    recorder = TimelineRecorder(
        registry=registry, interval=1.0, max_windows=256, clock=lambda: clock[0]
    )
    hist = registry.histogram("a13_lat", "A13 sensitivity workload.")
    recorder.tick()
    rule = DriftRule(
        "drift", "a13_lat", baseline_windows=BASELINE_WINDOWS,
        recent_windows=RECENT_WINDOWS, min_count=300,
    )
    engine = AlertEngine(recorder, rules=[rule])
    rng = random.Random(seed)

    def step(mean):
        hist.observe_many([rng.gauss(mean, 1.0) for _ in range(OBS_PER_WINDOW)])
        clock[0] += 1.0
        recorder.tick(clock[0])
        return engine.evaluate(clock[0])

    return engine, step


def test_a13_drift_sensitivity():
    rows = []
    for shift in (0.02, 0.1, 0.3, 0.6, 1.0, 2.0):
        engine, step = _drift_rig(seed=37)
        for _ in range(BASELINE_WINDOWS + RECENT_WINDOWS):
            events = step(0.0)
            assert not events, "stationary warmup must not fire"
        fired_at = None
        divergence = threshold = float("nan")
        for tick in range(1, MAX_TICKS + 1):
            for event in step(shift):
                if event.to_state == "firing" and fired_at is None:
                    fired_at = tick
            status = engine.as_dict(history=0)["rules"][0]
            if status["recent"]:
                _, divergence, threshold = status["recent"][-1]
            if fired_at is not None:
                break
        rows.append([
            f"{shift:.2f}σ", divergence, threshold,
            fired_at if fired_at is not None else "never",
        ])

    emit(
        "a13_alert_sensitivity",
        "A13: KLL drift detector — injected mean shift (N(0,1) baseline, "
        f"{BASELINE_WINDOWS}w baseline vs {RECENT_WINDOWS}w recent, "
        f"{OBS_PER_WINDOW} obs/window) vs windows-until-firing; threshold = "
        "margin*(eps_B+eps_R) + z*sqrt(.25/nB+.25/nR):",
        ["shift", "divergence", "threshold", "windows to fire"],
        rows,
    )
    # Inside the combined sketch-error + sampling-noise bound: silent.
    assert rows[0][-1] == "never"
    # Well past the bound: fires, and monotonically faster as the shift grows.
    big = [r[-1] for r in rows if isinstance(r[-1], int)]
    assert big, "no shift fired at all"
    assert big[-1] <= 3  # a 2-sigma shift is caught within 3 windows


def test_a13_stationary_false_positive_rate():
    """55 stationary windows after warmup: zero transitions of any kind."""
    engine, step = _drift_rig(seed=101)
    transitions = []
    for _ in range(BASELINE_WINDOWS + RECENT_WINDOWS + 55):
        transitions.extend(step(0.0))
    assert transitions == []
    assert engine.healthy()


def test_a13_evaluation_cost():
    runner = build_runner(repeats=3, warmup=1)
    result = runner.run(ids=["obs/alert_eval"])[0]
    per_eval_us = result.ns_per_op / ALERT_EVALS / 1e3
    emit(
        "a13_alert_eval_cost",
        "A13: full engine pass (4 rule families) over a "
        f"{TIMELINE_WINDOWS}-window ring:",
        ["case", "evals/pass", "us/eval", "evals/s"],
        [[result.case_id, ALERT_EVALS, per_eval_us, result.items_per_sec]],
    )
    # A 1 s ticker spends well under 1% of its period evaluating.
    assert per_eval_us < 10_000
