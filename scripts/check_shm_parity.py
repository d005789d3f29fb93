#!/usr/bin/env python3
"""Smoke check: shm-built sketches must be bitwise identical to serial builds.

For every family that implements the :class:`~repro.core.SharedStateSketch`
protocol, this builds the same sharded stream twice through
``parallel_build`` — once over the zero-copy shared-memory fabric
(``backend="shm"``: workers write their partial state directly into
per-shard segments, the parent adopts the arrays with no serde) and
once through the in-process serial path — and compares the full
``state_dict()`` contents byte for byte.  It also asserts the build
really used the shm transport (no silent fallback) and that no wire
bytes were shipped.  A second pass builds every family again on the
now-warm worker pool and must match the serial builds again, on the
same workers, so a build cannot leave state behind for the next one.
Exits nonzero if any check fails — cheap
enough for CI (the exhaustive version lives in
``tests/parallel/test_shm.py``).

Usage: ``PYTHONPATH=src python scripts/check_shm_parity.py``
"""

import sys

import numpy as np

from repro.cardinality import FlajoletMartin, HyperLogLog, LogLog
from repro.frequency import CountMinSketch, CountSketch
from repro.membership import BloomFilter, CountingBloomFilter
from repro.moments import AMSSketch
from repro.parallel import SketchSpec, parallel_build, partition_items, shm_available

N_ITEMS = 120_000
N_SHARDS = 4

FAMILIES = [
    ("HyperLogLog", SketchSpec(HyperLogLog, p=12, seed=1)),
    ("LogLog", SketchSpec(LogLog, p=10, seed=1)),
    ("FlajoletMartin", SketchSpec(FlajoletMartin, m=64, seed=1)),
    ("CountMin", SketchSpec(CountMinSketch, width=1024, depth=4, seed=1)),
    ("CountMin(conservative)", SketchSpec(CountMinSketch, width=1024, depth=4, conservative=True, seed=1)),
    ("CountSketch", SketchSpec(CountSketch, width=1024, depth=5, seed=1)),
    ("Bloom", SketchSpec(BloomFilter, m=1 << 16, k=4, seed=1)),
    ("CountingBloom", SketchSpec(CountingBloomFilter, m=1 << 15, k=4, seed=1)),
    ("AMS", SketchSpec(AMSSketch, buckets=64, groups=5, seed=1)),
]


def normalize(value):
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, dict):
        return {k: normalize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [normalize(v) for v in value]
    return value


def check_families(shards) -> tuple[int, set]:
    """Build every family over shm and serially; (mismatches, worker pids)."""
    failures = 0
    pids = set()
    for name, spec in FAMILIES:
        shm_built, report = parallel_build(
            spec, shards, workers=2, backend="shm", return_report=True
        )
        serial_built = parallel_build(spec, shards, backend="serial")
        pids |= report.worker_pids
        problems = []
        if report.backend != "shm":
            problems.append(f"fell back to {report.backend} ({report.fallback_reason})")
        if report.total_bytes != 0:
            problems.append(f"shipped {report.total_bytes} wire bytes")
        if report.total_shm_bytes <= 0:
            problems.append("no shm segment bytes recorded")
        if normalize(shm_built.state_dict()) != normalize(serial_built.state_dict()):
            problems.append("state_dict mismatch vs serial build")
        if problems:
            print(f"  MISMATCH {name}: {'; '.join(problems)}")
            failures += 1
        else:
            print(f"  ok       {name} (shm={report.total_shm_bytes}B, wire=0B)")
    return failures, pids


def main() -> int:
    if not shm_available():
        print("shared memory unavailable on this platform; nothing to check")
        return 0
    rng = np.random.default_rng(20230)
    items = rng.integers(0, 1 << 40, size=N_ITEMS, dtype=np.uint64)
    shards = partition_items(items, N_SHARDS)
    print("pass 1: the first build spawns the worker pool")
    failures, first_pids = check_families(shards)
    # The pool outlives each build: building every family again on the
    # same workers shows that no build leaves state behind for the next.
    print("pass 2: every family again on the warm pool")
    warm_failures, warm_pids = check_families(shards)
    failures += warm_failures
    if not warm_pids <= first_pids:
        print(f"  MISMATCH pool: pass 2 ran on new workers {sorted(warm_pids - first_pids)}")
        failures += 1
    if failures:
        print(f"{failures} check{'' if failures == 1 else 's'} failed")
        return 1
    print(
        f"all {len(FAMILIES)} families, cold and warm pool: "
        "shm build == serial build, zero wire bytes"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
