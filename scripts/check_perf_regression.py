#!/usr/bin/env python3
"""Gate: compare ``BENCH_*.json`` runs against the committed baseline.

Absolute ns/op is meaningless across machines, so the comparison is
*calibration-normalized*: each payload's host fingerprint records
``calibration_ns`` — the wall time of a fixed reference workload
(interpreter loop + numpy kernels, :func:`repro.obs.bench.calibrate`)
measured on that host at run time.  A case's portable score is
``ns_per_op / calibration_ns``, and its ratio in one payload is

    (current ns/op / current calibration)
    ------------------------------------
    (baseline ns/op / baseline calibration)

A case's time differs between interpreter processes by more than its
repetitions inside one process do, so the gate takes one or more
payloads, each from a fresh ``run_benchmarks.py`` process, and fails
when the *median* of a case's ratios over the payloads that ran it
exceeds ``TOLERANCE`` (1.6x).  That absorbs residual host and scheduler
noise while still catching a deliberate 2x slowdown (EXPERIMENTS.md A9).

Exit codes: 0 = pass, 1 = regression detected, 2 = missing/invalid
baseline or current payload (including no overlapping cases).

Usage::

    for i in 1 2 3 4 5; do
        PYTHONPATH=src python scripts/run_benchmarks.py --suite fast --run ci$i --quiet
    done
    PYTHONPATH=src python scripts/check_perf_regression.py BENCH_ci*.json
    PYTHONPATH=src python scripts/check_perf_regression.py BENCH_ci1.json \\
        --baseline benchmarks/baselines/BENCH_A09_baseline.json
"""

import argparse
import os
import statistics
import sys

from repro.obs.bench import load_payload

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_BASELINE = os.path.join(
    REPO_ROOT, "benchmarks", "baselines", "BENCH_A09_baseline.json"
)
TOLERANCE = 1.6


def normalized_scores(doc) -> dict[str, float]:
    """``{case_id: ns_per_op / calibration_ns}`` for one payload."""
    calibration = float(doc["host"]["calibration_ns"])
    return {
        row["case_id"]: float(row["ns_per_op"]) / calibration
        for row in doc["results"]
    }


def compare(baseline, currents):
    """(rows, regressions) over the cases the baseline shares with any payload.

    Each row is ``(case_id, median, ratios, verdict)``: the normalized
    current/baseline slowdown in each payload that ran the case, their
    median, and ``"ok"`` or ``"REGRESSION"``.
    """
    base_scores = normalized_scores(baseline)
    runs = [normalized_scores(doc) for doc in currents]
    rows = []
    regressions = []
    for case_id in sorted(base_scores):
        ratios = [run[case_id] / base_scores[case_id] for run in runs if case_id in run]
        if not ratios:
            continue
        median = statistics.median(ratios)
        verdict = "ok" if median <= TOLERANCE else "REGRESSION"
        rows.append((case_id, median, ratios, verdict))
        if verdict != "ok":
            regressions.append(case_id)
    return rows, regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "current",
        nargs="+",
        help="BENCH_*.json payloads, each from its own run_benchmarks.py process",
    )
    parser.add_argument(
        "--baseline",
        default=DEFAULT_BASELINE,
        help=f"committed baseline payload (default {os.path.relpath(DEFAULT_BASELINE)})",
    )
    args = parser.parse_args(argv)

    try:
        baseline = load_payload(args.baseline)
    except FileNotFoundError:
        print(f"error: baseline not found: {args.baseline}")
        return 2
    except ValueError as exc:
        print(f"error: invalid baseline: {exc}")
        return 2
    currents = []
    for path in args.current:
        try:
            currents.append(load_payload(path))
        except FileNotFoundError:
            print(f"error: current payload not found: {path}")
            return 2
        except ValueError as exc:
            print(f"error: invalid current payload {path}: {exc}")
            return 2

    rows, regressions = compare(baseline, currents)
    if not rows:
        print("error: no overlapping case ids between baseline and current payload")
        return 2

    base_calib = float(baseline["host"]["calibration_ns"])
    print(
        f"baseline {baseline['run']!r} sha {baseline['git_sha'][:12]} "
        f"(calibration {base_calib / 1e6:.1f}ms) vs {len(currents)} payload(s):"
    )
    for doc in currents:
        print(
            f"  {doc['run']!r} sha {doc['git_sha'][:12]} "
            f"(calibration {float(doc['host']['calibration_ns']) / 1e6:.1f}ms)"
        )
    width = max(len(case_id) for case_id, *_ in rows)
    for case_id, median, ratios, verdict in rows:
        marker = "ok  " if verdict == "ok" else "FAIL"
        spread = " ".join(f"{r:.2f}" for r in ratios)
        print(f"{marker} {case_id.ljust(width)}  x{median:5.2f}  [{spread}]")
    skipped = len(normalized_scores(baseline)) - len(rows)
    if skipped:
        print(f"note: {skipped} baseline case(s) absent from every current run")
    if regressions:
        print(
            f"{len(regressions)} case(s) over x{TOLERANCE:.2f} in the median: {regressions}"
        )
        return 1
    print(
        f"all {len(rows)} common case(s) within tolerance "
        f"(median of {len(currents)} payload(s) <= x{TOLERANCE:.2f})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
