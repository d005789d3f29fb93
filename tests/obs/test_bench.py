"""The unified benchmark harness: timing, stats, runner, payload schema.

Timing primitives are tested with deterministic fake workloads (call
counters, not wall-clock assertions), the runner end-to-end with a toy
case, and the ``BENCH_*.json`` schema for round-trip fidelity plus the
two compatibility promises: unknown fields from a newer minor revision
are tolerated, a different major ``schema_version`` is rejected.
"""

import json

import pytest

import repro.obs as obs
from repro.obs import MetricsRegistry
from repro.obs.bench import (
    DEFAULT_SEED,
    SCHEMA,
    SCHEMA_VERSION,
    BenchResult,
    BenchRunner,
    CaseContext,
    host_fingerprint,
    interleaved_ns,
    load_payload,
    measure_ns,
    overhead_estimate,
    payload,
    summarize,
    validate_payload,
    write_payload,
)


# -- timing primitives ------------------------------------------------------


def test_measure_ns_counts_calls():
    calls = []
    samples = measure_ns(lambda st: calls.append(st), repeats=4, warmup=2)
    assert len(samples) == 4  # warmup samples dropped
    assert len(calls) == 6  # ... but warmup calls happened
    assert all(isinstance(s, int) and s >= 0 for s in samples)


def test_measure_ns_setup_runs_before_every_call():
    states = []
    seq = iter(range(100))
    samples = measure_ns(
        lambda st: states.append(st), repeats=3, warmup=1, setup=lambda: next(seq)
    )
    assert states == [0, 1, 2, 3]  # fresh state per call, warmup included
    assert len(samples) == 3


def test_measure_ns_rejects_zero_repeats():
    with pytest.raises(ValueError):
        measure_ns(lambda st: None, repeats=0)


def test_summarize_known_samples():
    stats = summarize([100, 200, 300, 400, 1000], n_items=10)
    assert stats["median_ns"] == 300.0
    assert stats["iqr_ns"] == 200.0
    assert stats["ns_per_op"] == 30.0
    assert stats["items_per_sec"] == pytest.approx(10 / (300e-9))
    assert stats["ci_low_ns"] <= stats["median_ns"] <= stats["ci_high_ns"]


def test_summarize_is_deterministic():
    samples = [120, 80, 95, 110, 130, 70, 500]
    assert summarize(samples) == summarize(samples)


def test_summarize_single_sample_degenerate_ci():
    stats = summarize([250])
    assert stats["ci_low_ns"] == stats["ci_high_ns"] == 250.0


def test_interleaved_ns_aligns_rounds_and_runs_teardown():
    order = []
    torn_down = []
    samples = interleaved_ns(
        [
            ("a", None, lambda _: order.append("a")),
            ("b", lambda: "state", lambda st: order.append(st), torn_down.append),
        ],
        repeats=3,
    )
    # every arm once per round, the first arm rotating between rounds
    assert order == ["a", "state", "state", "a", "a", "state"]
    assert torn_down == ["state"] * 3
    assert len(samples["a"]) == len(samples["b"]) == 3


def test_overhead_estimate_robust_to_one_spike():
    base = [100, 100, 100, 100, 100]
    # one contended sample in the variant must not fake a regression
    assert overhead_estimate([102, 102, 500, 102, 102], base) == pytest.approx(0.02)
    # a real 2x slowdown shows up in both estimators
    assert overhead_estimate([200, 210, 205, 200, 202], base) == pytest.approx(1.0)


def test_overhead_estimate_requires_paired_samples():
    with pytest.raises(ValueError):
        overhead_estimate([1, 2], [1, 2, 3])


# -- case context / runner --------------------------------------------------


def test_case_context_derives_distinct_deterministic_seeds():
    a1 = CaseContext(run_seed=7, case_id="update/HLL/scalar")
    a2 = CaseContext(run_seed=7, case_id="update/HLL/scalar")
    b = CaseContext(run_seed=7, case_id="update/KLL/scalar")
    assert a1.seed == a2.seed != b.seed
    assert a1.rng.integers(1 << 30) == a2.rng.integers(1 << 30)


def _toy_runner(**kwargs):
    runner = BenchRunner(seed=kwargs.pop("seed", 11), repeats=3, warmup=1, **kwargs)
    runner.add(
        "toy/sum",
        family="Toy",
        prepare=lambda ctx: list(ctx.rng.integers(0, 100, 50)),
        run=lambda state, data: sum(data),
        n_items=50,
        params={"n": 50},
        accuracy=lambda state, data: 0.0,
        accuracy_metric="abs_err",
        footprint=lambda state, data: 640,
        tags={"toy"},
    )
    return runner


def test_runner_executes_case_and_fills_result():
    result, = _toy_runner().run(tags={"toy"})
    assert result.case_id == "toy/sum"
    assert result.family == "Toy"
    assert result.n_items == 50
    assert result.seed == 11
    assert len(result.samples_ns) == 3
    assert result.items_per_sec > 0
    assert result.state_bytes == 640
    assert result.accuracy == 0.0
    assert result.accuracy_metric == "abs_err"


def test_runner_rejects_duplicate_case_id():
    runner = _toy_runner()
    with pytest.raises(ValueError, match="duplicate"):
        runner.add("toy/sum", family="Toy", run=lambda s, d: None)


def test_runner_select_unknown_id():
    with pytest.raises(KeyError):
        _toy_runner().select(ids={"no/such/case"})


def test_runner_exports_state_gauge_when_enabled(registry):
    from repro.obs.export import render_prometheus

    _toy_runner().run(tags={"toy"})
    text = render_prometheus(registry)
    assert "repro_sketch_state_bytes" in text
    assert 'sketch="Toy"' in text
    assert "640" in text


def test_runner_skips_gauge_when_disabled():
    from repro.obs.export import render_prometheus

    fresh = MetricsRegistry()
    previous = obs.set_registry(fresh)
    try:
        assert not obs.enabled()
        _toy_runner().run(tags={"toy"})
        assert "repro_sketch_state_bytes" not in render_prometheus(fresh)
    finally:
        obs.set_registry(previous if previous is not None else MetricsRegistry())


# -- BENCH_*.json schema ----------------------------------------------------


HOST = {"hostname": "h", "calibration_ns": 1e7}


def _doc(**overrides):
    results = _toy_runner().run(tags={"toy"})
    doc = payload(results, run="test", seed=11, host=dict(HOST), sha="abc123")
    doc.update(overrides)
    return doc


def test_payload_roundtrip(tmp_path):
    path = str(tmp_path / "BENCH_test.json")
    doc = _doc()
    assert validate_payload(doc) == []
    write_payload(path, doc)
    loaded = load_payload(path)
    assert loaded == json.loads(json.dumps(doc))  # exact JSON fidelity
    row = loaded["results"][0]
    assert BenchResult.from_dict(row).as_dict() == row  # lossless revival


def test_payload_tolerates_unknown_fields(tmp_path):
    doc = _doc()
    doc["future_top_level"] = {"anything": [1, 2, 3]}
    doc["results"][0]["future_metric"] = 0.5
    assert validate_payload(doc) == []
    path = str(tmp_path / "BENCH_future.json")
    write_payload(path, doc)
    row = load_payload(path)["results"][0]
    revived = BenchResult.from_dict(row)  # unknown result field dropped
    assert revived.case_id == "toy/sum"
    assert not hasattr(revived, "future_metric")


def test_payload_rejects_wrong_schema_version():
    issues = validate_payload(_doc(schema_version=SCHEMA_VERSION + 1))
    assert any("schema_version" in issue for issue in issues)
    issues = validate_payload(_doc(schema="someone.elses.schema"))
    assert any("schema" in issue for issue in issues)


def test_payload_rejects_missing_required_field():
    doc = _doc()
    del doc["results"][0]["ns_per_op"]
    assert any("ns_per_op" in issue for issue in validate_payload(doc))
    doc = _doc()
    del doc["git_sha"]
    assert any("git_sha" in issue for issue in validate_payload(doc))


def test_payload_rejects_duplicate_case_ids():
    doc = _doc()
    doc["results"].append(dict(doc["results"][0]))
    assert any("duplicate" in issue for issue in validate_payload(doc))


def test_payload_rejects_bad_calibration():
    issues = validate_payload(_doc(host={"hostname": "h"}))
    assert any("calibration_ns" in issue for issue in issues)
    issues = validate_payload(_doc(host={"hostname": "h", "calibration_ns": -5}))
    assert any("calibration_ns" in issue for issue in issues)


def test_write_payload_refuses_invalid(tmp_path):
    with pytest.raises(ValueError, match="invalid payload"):
        write_payload(str(tmp_path / "bad.json"), {"schema": SCHEMA})


def test_load_payload_raises_on_invalid(tmp_path):
    path = tmp_path / "BENCH_bad.json"
    path.write_text(json.dumps({"schema": SCHEMA}))
    with pytest.raises(ValueError):
        load_payload(str(path))


def test_host_fingerprint_records_calibration():
    host = host_fingerprint(calibration_ns=123.0)
    assert host["calibration_ns"] == 123.0
    assert host["cpu_count"] >= 1
    assert isinstance(host["python"], str)


def test_default_seed_is_stable():
    # the documented default --seed; changing it invalidates baselines
    assert DEFAULT_SEED == 20230
