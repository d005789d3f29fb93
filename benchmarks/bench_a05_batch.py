"""A5 — batch (``update_many``) vs per-item update throughput.

Follow-up to A4: that ablation showed the scalar Python update path is
interpreter-bound.  A5 measures what the shared batch kernel layer
(:mod:`repro.core.batch`) buys per family — canonicalize once, hash
with numpy kernels, scatter in C.  Both paths now run through the
unified harness's suite cases (``update/<family>/scalar`` vs
``update/<family>/batch``), so the same rows feed ``BENCH_*.json`` and
the CI regression gate.  The batch paths are state-identical to the
scalar ones (``tests/core/test_batch_parity.py`` enforces it), so the
speedup is free accuracy-wise.  Stream lengths differ per path (20k
scalar, 200k batch — scalar at batch length would dominate the suite's
wall time), which if anything *understates* the batch win for
compaction-based families.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_a05_batch.py -s``.
"""

from _util import emit

from suite import build_runner


def test_a05_batch_speedup():
    runner = build_runner(repeats=3, warmup=1)
    scalar = {r.family: r for r in runner.run(tags={"scalar"})}
    batch = {r.family: r for r in runner.run(tags={"batch"})}
    rows = []
    speedups = {}
    for family in sorted(set(scalar) & set(batch)):
        s, b = scalar[family], batch[family]
        speedups[family] = b.items_per_sec / s.items_per_sec
        rows.append([family, s.items_per_sec, b.items_per_sec, speedups[family]])
    emit(
        "a05_batch",
        "A5: per-item vs update_many throughput (items/s; unified harness)",
        ["sketch", "per-item upd/s", "batch upd/s", "speedup"],
        rows,
    )
    # Acceptance: the kernel layer pays off by >=5x for at least four
    # families on numpy int streams.
    big_wins = [n for n, s in speedups.items() if s >= 5.0]
    assert len(big_wins) >= 4, f"only {big_wins} reached 5x"
