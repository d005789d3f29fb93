#!/usr/bin/env python3
"""Run the unified benchmark suite and write a ``BENCH_<run>.json``.

The one CLI in front of :mod:`repro.obs.bench`: builds the registered
case suite (``benchmarks/suite.py``), runs the selected subset with
warmup + repetitions on ``perf_counter_ns``, and serializes the
versioned payload — per-case median/IQR/bootstrap-CI, items/sec,
ns/op, ``memory_footprint()`` state bytes, accuracy metric, plus the
host fingerprint (including the calibration reference the regression
gate normalizes by) and git sha.

Everything random flows from ``--seed``: each case derives its own
stream from (run seed, case id), and the seed is recorded in the
payload so a rerun replays identical workloads.

Usage::

    PYTHONPATH=src python scripts/run_benchmarks.py                 # fast subset
    PYTHONPATH=src python scripts/run_benchmarks.py --suite full
    PYTHONPATH=src python scripts/run_benchmarks.py --tags batch merge
    PYTHONPATH=src python scripts/run_benchmarks.py --seed 7 --out BENCH_seed7.json

The fast subset (25 cases, ~9 s) is what CI runs, in five separate
processes, before ``scripts/check_perf_regression.py`` gates the median
of their calibration-normalized ratios.
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "benchmarks"))

from suite import FAST_IDS, build_runner  # noqa: E402

from repro.obs.bench import (  # noqa: E402
    DEFAULT_SEED,
    calibrate,
    host_fingerprint,
    payload,
    write_payload,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--suite",
        choices=("fast", "full"),
        default="fast",
        help="fast = the curated CI subset (25 cases); full = every case",
    )
    parser.add_argument(
        "--tags",
        nargs="*",
        default=None,
        help="run only cases carrying any of these tags (overrides --suite)",
    )
    parser.add_argument(
        "--ids",
        nargs="*",
        default=None,
        help="run only these exact case ids (overrides --suite)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"run seed reaching every workload generator (default {DEFAULT_SEED})",
    )
    parser.add_argument("--repeats", type=int, default=5, help="timed runs per case")
    parser.add_argument("--warmup", type=int, default=1, help="untimed runs per case")
    parser.add_argument(
        "--run",
        default=None,
        help="run label embedded in the payload (default: the suite name)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output path (default BENCH_<run>.json in the cwd)",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress per-case lines")
    args = parser.parse_args(argv)

    runner = build_runner(seed=args.seed, repeats=args.repeats, warmup=args.warmup)
    if args.tags or args.ids:
        tags, ids = set(args.tags or ()), set(args.ids or ())
    elif args.suite == "fast":
        tags, ids = set(), set(FAST_IDS)
    else:
        tags, ids = set(), set()

    run_name = args.run or args.suite
    out_path = args.out or f"BENCH_{run_name}.json"

    started = time.perf_counter()
    if not args.quiet:
        n = len(runner.select(tags=tags or None, ids=ids or None))
        print(f"running {n} case(s), seed={args.seed}, repeats={args.repeats}")
    results = runner.run(tags=tags or None, ids=ids or None, verbose=not args.quiet)
    calibration_ns = calibrate()
    doc = payload(
        results,
        run=run_name,
        seed=args.seed,
        config={
            "suite": args.suite,
            "tags": sorted(tags),
            "ids": sorted(ids),
            "repeats": args.repeats,
            "warmup": args.warmup,
        },
        host=host_fingerprint(calibration_ns),
    )
    write_payload(out_path, doc)
    elapsed = time.perf_counter() - started
    print(
        f"wrote {out_path}: {len(results)} case(s) in {elapsed:.1f}s "
        f"(calibration {calibration_ns / 1e6:.1f}ms, sha {doc['git_sha'][:12]})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
