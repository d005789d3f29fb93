"""disk == ring, bitwise: live range reads equal the persisted and compacted store.

A recorder writes every window through to a store while its ring keeps
only the newest few.  A range that straddles the ring and the disk must
read the same from the live recorder as from a reopened store: folded
KLL states identical, counter totals and gauge values exact.  The
recorder's 4 s ``series`` buckets must equal the 4 s windows decay
compaction writes for the same windows.  Seeded streams vary ring size,
KLL ``k``, batch sizes and the range.
"""

import shutil

import numpy as np
import pytest

from repro.obs import MetricsRegistry, TimelineRecorder
from repro.store import Compactor, SketchStore, encode_partial

SEEDS = range(5)
WINDOWS = 32
T0 = 1000.0
ROUTES = ("a", "b")
QUANTILES = (0.5, 0.9, 0.99)


def _record(path, seed):
    """Write WINDOWS seeded one-second windows through a small ring."""
    rng = np.random.default_rng(seed)
    registry = MetricsRegistry()
    clock = [T0]
    store = SketchStore(path, partition_seconds=8.0, registry=MetricsRegistry())
    ring = int(rng.integers(4, 13))
    rec = TimelineRecorder(registry=registry, interval=1.0, max_windows=ring,
                           clock=lambda: clock[0])
    rec.attach_store(store, replay=False)
    k = int(rng.choice([64, 200]))
    hists = [registry.histogram("lat", k=k, route=route) for route in ROUTES]
    counter = registry.counter("ops_total")
    gauge = registry.gauge("depth")
    rec.tick(clock[0])  # starts the histograms' window mirrors
    for _ in range(WINDOWS):
        for hist in hists:
            hist.observe_many(rng.lognormal(0.0, 1.0, int(rng.integers(1, 600))))
        counter.inc(float(rng.integers(0, 50)) + float(rng.random()))
        gauge.set(float(rng.normal()))
        clock[0] += 1.0
        rec.tick(clock[0])
    assert len(rec) == ring and rec.evicted > 0
    return rec, store, rng


def _series():
    yield "lat", {"route": "a"}
    yield "lat", {"route": "b"}
    yield "ops_total", {}
    yield "depth", {}


def _assert_same_state(a, b):
    # encode_partial serializes state_dict() deterministically: equal
    # bytes are equal states, ndarray levels and coin state included.
    assert type(a) is type(b)
    assert encode_partial(a) == encode_partial(b)


@pytest.mark.parametrize("seed", SEEDS)
def test_straddling_query_equals_reopened_store(tmp_path, seed):
    path = str(tmp_path / "db")
    rec, store, rng = _record(path, seed)
    oldest = rec.windows()[0].start
    since = oldest - float(rng.integers(1, int(oldest - T0) + 1))
    until = oldest + float(rng.integers(1, len(rec) + 1))
    reopened = SketchStore(path, partition_seconds=8.0, registry=MetricsRegistry())
    for metric, labels in _series():
        live = rec.query(metric, since=since, until=until, **labels)
        disk = reopened.query(metric, since=since, until=until, **labels)
        assert live.n_windows == disk.n_windows == until - since
        assert (live.kind, live.start, live.end) == (disk.kind, disk.start, disk.end)
        assert live.values == disk.values
        assert live.total == disk.total
        if metric == "lat":
            _assert_same_state(live.sketch, disk.sketch)
            for q in QUANTILES:
                assert live.quantile(q) == disk.quantile(q)
    store.close()


@pytest.mark.parametrize("seed", SEEDS)
def test_series_buckets_equal_compacted_windows(tmp_path, seed):
    path = str(tmp_path / "db")
    rec, store, rng = _record(path, seed)
    shutil.copytree(path, tmp_path / "compacted")
    compacted = SketchStore(str(tmp_path / "compacted"), partition_seconds=8.0,
                            registry=MetricsRegistry())
    stats = Compactor(compacted, decay_after=1.0, coarsen_to=4.0,
                      clock=lambda: T0 + 1e6, registry=MetricsRegistry()).run_once()
    assert stats["windows_in"] == WINDOWS + 1
    oldest = rec.windows()[0].start
    # grid-aligned, starting past the ring and ending at the newest window
    since = 4.0 * np.floor(oldest / 4.0) - 4.0 * float(rng.integers(1, 4))
    until = T0 + WINDOWS
    for metric, labels in _series():
        points = rec.series(metric, since=since, until=until, step=4.0,
                            quantiles=QUANTILES, **labels)
        assert [p["t"] for p in points] == list(np.arange(since, until, 4.0))
        for point in points:
            t = point["t"]
            coarse = compacted.query(metric, since=t, until=t + 4.0, **labels)
            assert (coarse.n_windows, coarse.start, coarse.end) == (1, t, t + 4.0)
            if metric == "lat":
                assert point["count"] == coarse.count
                assert point["quantiles"] == {str(q): coarse.quantile(q) for q in QUANTILES}
                live = rec.query(metric, since=t, until=t + 4.0, **labels)
                _assert_same_state(live.sketch, coarse.sketch)
            elif metric == "ops_total":
                assert point["value"] == coarse.total
            else:
                assert point["value"] == coarse.last
    store.close()
