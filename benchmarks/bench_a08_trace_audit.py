"""A8 — span overhead of tracing and observed accuracy of the auditor.

Two halves of the PR-4 observability layer, quantified:

1. **Span overhead per family**: the ``off`` and ``tracing`` rows of
   the overhead table (``benchmarks/overhead.py``, the A7 protocol) at
   this benchmark's sizes — best-of-N ``update_many`` throughput for the
   raw kernel, the tracing-disabled path (the shared hot-flag load),
   and the tracing-enabled path recording one span per batch call into
   a fresh :class:`~repro.obs.Tracer`.  Acceptance bounds (asserted):
   disabled < 2%, enabled < 5%.

2. **Auditor observed error vs theoretical bound** for
   HLL (cardinality), Count-Min (frequency), and KLL (rank) on seeded
   1M-item streams: each family is shadowed by an
   :class:`~repro.obs.AccuracyAuditor`, checked every 250k items, and
   the table reports the final observed error, the bound it was held
   to, the margin, and the health verdict.  Asserted: every honest
   sketch passes every check, and a corrupted HLL (registers forced
   high) is flagged unhealthy within one check.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_a08_trace_audit.py -s``.
"""

import numpy as np

from _util import emit
from overhead import CONDITIONS, family_workloads, measure, throughput_rows

from repro.cardinality import HyperLogLog
from repro.frequency import CountMinSketch
from repro.obs import AccuracyAuditor
from repro.quantiles import KLLSketch

N_ITEMS = 200_000
REPEATS = 80
CALLS_PER_RUN = 1

WORKLOADS = family_workloads(21, N_ITEMS, CALLS_PER_RUN)

AUDIT_N = 1_000_000
AUDIT_BATCH = 100_000
CHECK_EVERY = 250_000


def test_a08_span_overhead():
    conditions = [c for c in CONDITIONS if c.name in ("off", "tracing")]
    results = measure(WORKLOADS, REPEATS, conditions)
    emit(
        "a08_span_overhead",
        f"A8: span overhead on update_many "
        f"({N_ITEMS:,} items/call, best of {REPEATS})",
        ["sketch", "raw M/s", "off M/s", "traced M/s", "off ovh %", "traced ovh %"],
        throughput_rows(results, N_ITEMS * CALLS_PER_RUN),
    )
    failed = [r for r in results if not r.ok]
    assert not failed, failed


def audit_stream(name):
    rng = np.random.default_rng(31)
    if name == "HLL":
        sketch = HyperLogLog(p=12, seed=1)
        batches = [rng.integers(0, 600_000, size=AUDIT_BATCH) for _ in range(10)]
    elif name == "CountMin":
        sketch = CountMinSketch(width=4096, depth=5, seed=2)
        batches = [rng.zipf(1.2, size=AUDIT_BATCH) % 50_000 for _ in range(10)]
    else:  # KLL
        sketch = KLLSketch(k=200, seed=3)
        batches = [rng.lognormal(size=AUDIT_BATCH) for _ in range(10)]
    return sketch, batches


def test_a08_auditor_error_vs_bound():
    rows = []
    failures = []
    for name in ("HLL", "CountMin", "KLL"):
        sketch, batches = audit_stream(name)
        auditor = AccuracyAuditor(sketch, check_every=CHECK_EVERY, seed=7)
        for batch in batches:
            auditor.update_many(batch)
        last = auditor.last_check
        margin = last.bound - last.observed_error
        rows.append(
            [
                name,
                auditor.kind,
                auditor.n,
                auditor.checks_run,
                last.observed_error,
                last.bound,
                margin,
                "healthy" if auditor.healthy() else "UNHEALTHY",
            ]
        )
        if auditor.violations or not auditor.healthy():
            failures.append(f"{name}: honest sketch flagged unhealthy")

    # The negative control: an HLL whose registers are corrupted after
    # ingest must be flagged within one check.
    sketch, batches = audit_stream("HLL")
    auditor = AccuracyAuditor(sketch, check_every=0, seed=7)
    for batch in batches:
        auditor.update_many(batch)
    sketch._registers[:] = np.maximum(sketch._registers, 25)
    broken = auditor.check()
    rows.append(
        [
            "HLL(corrupted)",
            auditor.kind,
            auditor.n,
            auditor.checks_run,
            broken.observed_error,
            broken.bound,
            broken.bound - broken.observed_error,
            "healthy" if auditor.healthy() else "UNHEALTHY",
        ]
    )
    if not broken.violated:
        failures.append("corrupted HLL passed the audit")

    emit(
        "a08_audit_error",
        f"A8: auditor observed error vs bound "
        f"({AUDIT_N:,}-item streams, checks every {CHECK_EVERY:,})",
        ["stream", "kind", "items", "checks", "observed", "bound", "margin", "verdict"],
        rows,
    )
    assert not failures, "; ".join(failures)
