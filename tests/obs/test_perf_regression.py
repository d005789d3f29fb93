"""Exit-code contract of ``scripts/check_perf_regression.py``.

The gate is CI's interface to the performance observatory, so its exit
codes are API: 0 = every common case's median ratio over the payloads
within x1.6, 1 = at least one calibration-normalized regression,
2 = missing/invalid inputs (including disjoint case sets).  Payloads are synthesized — no real
timing — so the verdicts are exact and the suite is fast.
"""

import json
import os
import subprocess
import sys
from pathlib import Path


SCRIPTS = Path(__file__).resolve().parents[2] / "scripts"
SRC = Path(__file__).resolve().parents[2] / "src"

from repro.obs.bench import SCHEMA, SCHEMA_VERSION  # noqa: E402


def make_payload(
    ns_per_op: dict[str, float],
    calibration_ns: float = 1e7,
    run: str = "synthetic",
    **extra,
):
    doc = {
        "schema": SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "run": run,
        "seed": 1,
        "git_sha": "0" * 40,
        "host": {"hostname": "synthetic", "calibration_ns": calibration_ns},
        "config": {},
        "results": [
            {
                "case_id": case_id,
                "family": case_id.split("/")[1] if "/" in case_id else case_id,
                "params": {},
                "n_items": 1000,
                "seed": 1,
                "median_ns": value * 1000,
                "ns_per_op": value,
                "items_per_sec": 1e9 / value,
            }
            for case_id, value in ns_per_op.items()
        ],
    }
    doc.update(extra)
    return doc


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_gate(*args: str):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / "check_perf_regression.py"), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


BASE = {"update/HLL/scalar": 100.0, "update/KLL/batch": 2000.0}


def test_exit_0_when_within_tolerance(tmp_path):
    baseline = write(tmp_path, "base.json", make_payload(BASE))
    current = write(
        tmp_path,
        "cur.json",
        make_payload({"update/HLL/scalar": 130.0, "update/KLL/batch": 1900.0}),
    )
    proc = run_gate(current, "--baseline", baseline)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "all 2 common case(s) within tolerance" in proc.stdout


def test_exit_1_on_regression(tmp_path):
    baseline = write(tmp_path, "base.json", make_payload(BASE))
    current = write(
        tmp_path,
        "cur.json",
        make_payload({"update/HLL/scalar": 250.0, "update/KLL/batch": 1900.0}),
    )
    proc = run_gate(current, "--baseline", baseline)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "FAIL update/HLL/scalar" in proc.stdout
    assert "ok   update/KLL/batch" in proc.stdout  # the healthy case still reports


def test_calibration_normalization_forgives_slow_host(tmp_path):
    # current host is uniformly 2x slower (calibration doubles too):
    # raw ns/op doubles but the normalized ratio stays 1.0 -> pass.
    baseline = write(tmp_path, "base.json", make_payload(BASE, calibration_ns=1e7))
    current = write(
        tmp_path,
        "cur.json",
        make_payload(
            {case: 2 * v for case, v in BASE.items()}, calibration_ns=2e7
        ),
    )
    assert run_gate(current, "--baseline", baseline).returncode == 0


def test_calibration_normalization_still_catches_real_regression(tmp_path):
    # same slow host, but one kernel additionally regressed 2x
    baseline = write(tmp_path, "base.json", make_payload(BASE, calibration_ns=1e7))
    slowed = {case: 2 * v for case, v in BASE.items()}
    slowed["update/HLL/scalar"] *= 2
    current = write(
        tmp_path, "cur.json", make_payload(slowed, calibration_ns=2e7)
    )
    assert run_gate(current, "--baseline", baseline).returncode == 1


def test_one_outlier_payload_passes(tmp_path):
    # one process in five reads a case 2.5x slow: the median is 1.0
    baseline = write(tmp_path, "base.json", make_payload(BASE))
    runs = [write(tmp_path, f"cur{i}.json", make_payload(BASE)) for i in range(4)]
    outlier = dict(BASE, **{"update/HLL/scalar": 250.0})
    runs.append(write(tmp_path, "outlier.json", make_payload(outlier)))
    proc = run_gate(*runs, "--baseline", baseline)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "median of 5 payload(s)" in proc.stdout
    assert "2.50" in proc.stdout  # the outlier's ratio is still reported


def test_majority_over_the_bound_fails(tmp_path):
    # three processes in five read the case over x1.6: the median is over
    baseline = write(tmp_path, "base.json", make_payload(BASE))
    slow = dict(BASE, **{"update/HLL/scalar": 170.0})
    runs = [write(tmp_path, f"slow{i}.json", make_payload(slow)) for i in range(3)]
    runs += [write(tmp_path, f"ok{i}.json", make_payload(BASE)) for i in range(2)]
    proc = run_gate(*runs, "--baseline", baseline)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "FAIL update/HLL/scalar" in proc.stdout
    assert "ok   update/KLL/batch" in proc.stdout


def test_median_normalizes_each_payload_by_its_own_calibration(tmp_path):
    # each process's host speed differs; each payload is divided by its own
    # calibration before the median, so uniformly slower processes pass
    baseline = write(tmp_path, "base.json", make_payload(BASE, calibration_ns=1e7))
    runs = [
        write(
            tmp_path,
            f"cur{i}.json",
            make_payload(
                {case: v * speed for case, v in BASE.items()}, calibration_ns=1e7 * speed
            ),
        )
        for i, speed in enumerate((1.0, 2.0, 3.0))
    ]
    assert run_gate(*runs, "--baseline", baseline).returncode == 0


def test_tolerance_is_not_configurable(tmp_path):
    loose = make_payload(BASE, tolerances={"update/HLL/scalar": 3.0})
    baseline = write(tmp_path, "base.json", loose)
    current = write(tmp_path, "cur.json", make_payload({"update/HLL/scalar": 250.0}))
    # a "tolerances" map in the baseline loosens nothing
    assert run_gate(current, "--baseline", baseline).returncode == 1
    # and there is no flag for it
    assert run_gate(current, "--baseline", baseline, "--tolerance", "3.0").returncode == 2


def test_one_missing_payload_among_several_is_an_input_error(tmp_path):
    baseline = write(tmp_path, "base.json", make_payload(BASE))
    current = write(tmp_path, "cur.json", make_payload(BASE))
    proc = run_gate(current, str(tmp_path / "nope.json"), "--baseline", baseline)
    assert proc.returncode == 2
    assert "current payload not found" in proc.stdout


def test_exit_2_missing_baseline(tmp_path):
    current = write(tmp_path, "cur.json", make_payload(BASE))
    proc = run_gate(current, "--baseline", str(tmp_path / "nope.json"))
    assert proc.returncode == 2
    assert "baseline not found" in proc.stdout


def test_exit_2_missing_current(tmp_path):
    baseline = write(tmp_path, "base.json", make_payload(BASE))
    proc = run_gate(str(tmp_path / "nope.json"), "--baseline", baseline)
    assert proc.returncode == 2
    assert "current payload not found" in proc.stdout


def test_exit_2_invalid_payload(tmp_path):
    baseline = write(tmp_path, "base.json", make_payload(BASE))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "wrong"}))
    assert run_gate(str(bad), "--baseline", baseline).returncode == 2


def test_exit_2_wrong_schema_version(tmp_path):
    baseline = write(tmp_path, "base.json", make_payload(BASE))
    future = write(
        tmp_path, "future.json", make_payload(BASE, schema_version=SCHEMA_VERSION + 1)
    )
    proc = run_gate(future, "--baseline", baseline)
    assert proc.returncode == 2
    assert "schema_version" in proc.stdout


def test_exit_2_no_common_cases(tmp_path):
    baseline = write(tmp_path, "base.json", make_payload(BASE))
    current = write(tmp_path, "cur.json", make_payload({"other/case": 10.0}))
    proc = run_gate(current, "--baseline", baseline)
    assert proc.returncode == 2
    assert "no overlapping case ids" in proc.stdout


def test_committed_baseline_is_valid():
    """The repo's committed A9 baseline must always load and validate."""
    from repro.obs.bench import load_payload

    path = (
        Path(__file__).resolve().parents[2]
        / "benchmarks"
        / "baselines"
        / "BENCH_A09_baseline.json"
    )
    doc = load_payload(str(path))
    assert doc["run"] == "A09_baseline"
    assert len(doc["results"]) >= 10
    assert doc["seed"] == 20230


def test_gate_against_committed_baseline_identical_payload():
    """Comparing the committed baseline against itself is a clean pass."""
    path = str(
        Path(__file__).resolve().parents[2]
        / "benchmarks"
        / "baselines"
        / "BENCH_A09_baseline.json"
    )
    proc = run_gate(path, "--baseline", path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
