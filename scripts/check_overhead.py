#!/usr/bin/env python3
"""Gate: instrumentation must be near-free when off and cheap when on.

Runs every row of the overhead table (``benchmarks/overhead.py``) at CI
sizes and prints one line per (condition, workload).  Bounds:

- ``off``: metrics and tracing disabled vs the raw kernel, < 2%;
- ``metrics``, ``tracing``: enabled vs the raw kernel, < 5%;
- ``recorder-idle``: a recorder that was never started vs obs on, < 2%;
- ``recorder``: a recorder ticking every 1 s vs obs on, < 5%;
- ``engine``: a 1 s alert engine vs the running recorder, < 5%.

The last two gate the paired estimate (floored at zero) plus their
tick's and evaluation pass's share of the 1 s interval, timed on a
steady state (``duty_cycles``).

Exits 1 if any row is over its bound.

Usage: ``PYTHONPATH=src python scripts/check_overhead.py``
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "benchmarks"))

from overhead import gate_workloads, measure  # noqa: E402

REPEATS = 240


def main() -> int:
    results = measure(gate_workloads(), repeats=REPEATS)
    for r in results:
        passes = f"; with passes {r.duty:.2%}: {r.cost:.2%}" if r.duty else ""
        print(
            f"{'ok  ' if r.ok else 'FAIL'} {r.condition.name:<13} {r.workload:<11} "
            f"{r.overhead:+7.2%} (bound {r.condition.bound:.0%}, "
            f"{r.condition.base} {r.base_ns / 1e6:.2f}ms{passes})"
        )
    failed = [r for r in results if not r.ok]
    if failed:
        print(f"{len(failed)} overhead bound(s) violated")
        return 1
    print(f"all {len(results)} overhead rows within bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
