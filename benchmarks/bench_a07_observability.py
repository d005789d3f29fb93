"""A7 — instrumentation overhead of the self-hosted metrics layer.

The obs layer promises to be free when off and cheap when on: every
hook guards on a single attribute load, and the enabled path reuses a
per-registry metric cache plus the library's own KLL sketches for
latency quantiles (the "sketches observing sketches" loop from the
paper's monitoring thread).  A7 quantifies both promises against the
raw kernels, which remain reachable as ``update_many.__wrapped__`` —
the exact pre-instrumentation code path.

Measurement runs the ``off`` and ``metrics`` rows of the overhead table
(``benchmarks/overhead.py``) at this benchmark's sizes: arms interleaved
within each round so clock drift hits them equally, overhead taken as
the smaller of the best-of-N ratio and the median paired ratio so one
contended round can't fake a failure.  ``scripts/check_overhead.py``
gates the whole table in CI at smaller sizes.

Acceptance bounds (asserted): disabled overhead < 2%, enabled < 5%.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_a07_observability.py -s``.
"""

from _util import emit
from overhead import CONDITIONS, family_workloads, measure, throughput_rows

N_ITEMS = 200_000
REPEATS = 80
CALLS_PER_RUN = 1

WORKLOADS = family_workloads(11, N_ITEMS, CALLS_PER_RUN)


def test_a07_observability_overhead():
    conditions = [c for c in CONDITIONS if c.name in ("off", "metrics")]
    results = measure(WORKLOADS, REPEATS, conditions)
    emit(
        "a07_obs_overhead",
        f"A7: instrumentation overhead on update_many "
        f"({N_ITEMS:,} items/call, best of {REPEATS})",
        ["sketch", "raw M/s", "off M/s", "on M/s", "off ovh %", "on ovh %"],
        throughput_rows(results, N_ITEMS * CALLS_PER_RUN),
    )
    failed = [r for r in results if not r.ok]
    assert not failed, failed
