"""The store's decoded-window cache: warm reads answer what cold reads do.

Reads keep the window records they decode (and the partials revived
from them) in a byte-bounded LRU keyed by ``(segment path, offset)``.
These tests pin what that must never change: a warm store answers
exactly like a freshly reopened one, cached partials are never folded
into or handed out as mutable entry dicts, compaction purges what it
deletes, and the byte total stays within the budget.
"""

import sys
import tempfile
import threading
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.store.store as store_module
from repro.obs import MetricsRegistry
from repro.quantiles import KLLSketch
from repro.sampling import L0Sampler
from repro.store import Compactor, SketchStore
from repro.store.store import WINDOW_CACHE_BYTES, encode_partial

ROUTES = ("a", "b")


def _counter_value(registry, name):
    for metric in registry.iter_metrics():
        if metric.name == name:
            return metric.value
    return 0.0


def _window_series(i, rng):
    series = [{"name": "g", "kind": "gauge", "value": float(i)}]
    for route in ROUTES:
        sk = KLLSketch(k=64, seed=i)
        sk.update_many(rng.lognormal(0.0, 1.0, int(rng.integers(10, 300))))
        series.append({"name": "lat", "labels": {"route": route}, "kind": "histogram",
                       "sketch": sk})
        series.append({"name": "ops", "labels": {"route": route}, "kind": "counter",
                       "value": float(rng.integers(0, 100))})
    return series


def _cache_invariants(store, budget):
    """Byte total within budget, and every key names a live segment."""
    cached = store._cache
    assert store._cache_bytes == sum(w.nbytes for w in cached.values())
    assert store._cache_bytes <= budget
    live = {r.path for r in store.segments()}
    if store._active is not None:
        live.add(store._active.path)
    assert {path for path, _ in cached} <= live
    for window in cached.values():
        for i, sketch in window.sketches.items():
            assert encode_partial(sketch) == window.series[i]["blob"]


def _answer(result):
    return (
        result.kind,
        result.n_windows,
        result.start,
        result.end,
        result.total,
        list(result.values),
        None if result.sketch is None else encode_partial(result.sketch),
    )


def _reads(store, since, until):
    """Every read path's answer over one range, in comparable form."""
    out = {"coverage": store.coverage()}
    for metric in ("lat", "ops", "g"):
        out[metric] = _answer(store.query(metric, since=since, until=until))
        grouped = store.query(metric, since=since, until=until, group_by="route")
        out[metric, "route"] = {value: _answer(r) for value, r in grouped.items()}
    out["lat", "a"] = _answer(store.query("lat", since=since, until=until, route="a"))
    out["raw"] = list(store.iter_windows(since=since, until=until, revive=False))
    out["revived"] = [
        (w["start"], w["end"], [
            {k: (encode_partial(v) if k == "sketch" else v) for k, v in e.items()}
            for e in w["series"]
        ])
        for w in store.iter_windows(since=since, until=until)
    ]
    return out


OPS = st.one_of(
    st.tuples(st.just("append"), st.integers(1, 3)),
    st.tuples(st.just("flush")),
    st.tuples(st.just("seal")),
    st.tuples(st.just("compact")),
    st.tuples(st.just("read"), st.integers(0, 24), st.integers(1, 24)),
)


class TestWarmEqualsCold:
    @settings(max_examples=50, deadline=None)
    @given(
        ops=st.lists(OPS, min_size=1, max_size=14),
        budget=st.sampled_from([WINDOW_CACHE_BYTES, 20_000, 1]),
        seed=st.integers(0, 2**16),
    )
    def test_interleavings(self, ops, budget, seed):
        rng = np.random.default_rng(seed)
        with tempfile.TemporaryDirectory() as path, \
                mock.patch.object(store_module, "WINDOW_CACHE_BYTES", budget):
            clock = [0.0]
            warm = SketchStore(path, partition_seconds=4.0, registry=MetricsRegistry())
            compactor = Compactor(warm, ttl=30.0, decay_after=8.0, coarsen_to=4.0,
                                  clock=lambda: clock[0], registry=MetricsRegistry())
            for op in ops:
                if op[0] == "append":
                    for _ in range(op[1]):
                        warm.append(clock[0], clock[0] + 1.0,
                                    _window_series(int(clock[0]), rng))
                        clock[0] += 1.0
                elif op[0] == "flush":
                    warm.flush()
                elif op[0] == "seal":
                    warm.seal_active()
                elif op[0] == "compact":
                    compactor.run_once()
                else:
                    since = float(op[1])
                    warm.query("lat", since=since, until=since + op[2])
                    list(warm.iter_windows(since=since, until=since + op[2]))
                warm.flush()
                cold = SketchStore(path, partition_seconds=4.0, registry=MetricsRegistry())
                for since, until in ((None, None), (clock[0] - 5.0, None), (2.0, 9.0)):
                    assert _reads(warm, since, until) == _reads(cold, since, until)
                    _cache_invariants(warm, budget)
            warm.close()


class TestAliasing:
    def test_l0_folds_leave_cached_partials_alone(self, tmp_path):
        """L0Sampler has no k-way kernel: its fold must clone, not merge in place."""
        store = SketchStore(str(tmp_path / "db"), registry=MetricsRegistry())
        for w in range(3):
            sk = L0Sampler(key_bits=4, s=2, seed=1)
            for key in range(w, w + 6):
                sk.update(key, w + 1)
            store.append(float(w), w + 1.0, [{"name": "x", "sketch": sk}])
        first = encode_partial(store.query("x").sketch)
        assert len(store._cache) == 3
        assert encode_partial(store.query("x").sketch) == first
        assert encode_partial(store.query("x").sketch) == first
        for window in store._cache.values():
            assert encode_partial(window.sketches[0]) == window.series[0]["blob"]
        cold = SketchStore(str(tmp_path / "db"), registry=MetricsRegistry())
        assert encode_partial(cold.query("x").sketch) == first

    def test_raw_replay_hands_out_fresh_entries(self, tmp_path):
        store = SketchStore(str(tmp_path / "db"), registry=MetricsRegistry())
        rng = np.random.default_rng(1)
        for w in range(3):
            store.append(float(w), w + 1.0, _window_series(w, rng))
        before = list(store.iter_windows(revive=False))
        for window in store.iter_windows(revive=False):
            window["series"][0]["value"] = -1.0
            window["series"][1]["labels"]["route"] = "zzz"
            window["series"].clear()
        assert list(store.iter_windows(revive=False)) == before
        cached = {id(w.series) for w in store._cache.values()}
        cached |= {id(e) for w in store._cache.values() for e in w.series}
        for window in store.iter_windows(revive=False):
            assert id(window["series"]) not in cached
            assert not {id(e) for e in window["series"]} & cached
        assert store.query("g").values == [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]

    def test_revived_sketches_are_shared(self, tmp_path):
        store = SketchStore(str(tmp_path / "db"), registry=MetricsRegistry())
        store.append(0.0, 1.0, _window_series(0, np.random.default_rng(2)))
        (one,), (two,) = list(store.iter_windows()), list(store.iter_windows())
        assert one["series"] is not two["series"]
        assert one["series"][1]["sketch"] is two["series"][1]["sketch"]
        assert store.query("lat", route="a").sketch is one["series"][1]["sketch"]

    def test_key_carries_the_segment_path(self, tmp_path):
        """Every segment's first record sits at the same offset."""
        store = SketchStore(str(tmp_path / "db"), partition_seconds=1.0,
                            registry=MetricsRegistry())
        for w in range(4):
            store.append(float(w), w + 1.0, [{"name": "n", "kind": "counter",
                                              "value": float(10 ** w)}])
        assert len(store) == 4
        assert store.query("n").total == 1111.0
        assert [store.query("n", since=float(w), until=w + 1.0).total
                for w in range(4)] == [1.0, 10.0, 100.0, 1000.0]
        assert store.query("n").total == 1111.0


class TestLifecycle:
    def test_remove_segments_purges_entries(self, tmp_path):
        store = SketchStore(str(tmp_path / "db"), partition_seconds=2.0,
                            registry=MetricsRegistry())
        rng = np.random.default_rng(3)
        for w in range(6):
            store.append(float(w), w + 1.0, _window_series(w, rng))
        store.seal_active()
        store.query("lat")
        doomed = store.segments()[:2]
        assert {path for path, _ in store._cache} >= {r.path for r in doomed}
        store.remove_segments(doomed)
        assert not {path for path, _ in store._cache} & {r.path for r in doomed}
        assert store._cache_bytes == sum(w.nbytes for w in store._cache.values())
        assert len(store._cache) == 2

    def test_budget_evicts_least_recently_used(self, tmp_path, monkeypatch):
        store = SketchStore(str(tmp_path / "db"), registry=MetricsRegistry())
        for w in range(6):
            store.append(float(w), w + 1.0, [{"name": "n", "kind": "counter",
                                              "value": float(w)}])
        store.query("n", since=0.0, until=1.0)
        (size,) = [w.nbytes for w in store._cache.values()]
        monkeypatch.setattr(store_module, "WINDOW_CACHE_BYTES", 2 * size)
        assert store.query("n", since=0.0, until=3.0).total == 3.0
        assert [w.start for w in store._cache.values()] == [1.0, 2.0]
        store.query("n", since=1.0, until=2.0)
        store.query("n", since=4.0, until=5.0)
        assert [w.start for w in store._cache.values()] == [1.0, 4.0]
        assert store._cache_bytes == 2 * size


class TestConcurrentReads:
    def test_readers_and_a_writer_share_the_cache(self, tmp_path, monkeypatch):
        """Cache fills, hits, evictions and appends interleave under the store lock."""
        path = str(tmp_path / "db")
        store = SketchStore(path, partition_seconds=4.0, registry=MetricsRegistry())
        rng = np.random.default_rng(6)
        store.append(0.0, 1.0, _window_series(0, rng))
        store.query("lat")
        budget = 4 * next(iter(store._cache.values())).nbytes
        monkeypatch.setattr(store_module, "WINDOW_CACHE_BYTES", budget)
        stop = threading.Event()
        errors = []

        def reader(k):
            try:
                while not stop.is_set():
                    store.query("lat", since=float(k), group_by="route")
                    for window in store.iter_windows(since=float(k)):
                        assert window["series"][0]["value"] == window["start"]
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for w in range(1, 24):
                store.append(float(w), w + 1.0, _window_series(w, rng))
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        _cache_invariants(store, budget)
        store.flush()
        cold = SketchStore(path, partition_seconds=4.0, registry=MetricsRegistry())
        assert _reads(store, 3.0, None) == _reads(cold, 3.0, None)


class TestReadCounters:
    def test_reads_count_hits_and_decodes(self, tmp_path):
        registry = MetricsRegistry()
        store = SketchStore(str(tmp_path / "db"), registry=registry)
        rng = np.random.default_rng(5)
        for w in range(5):
            store.append(float(w), w + 1.0, _window_series(w, rng))
        for _ in range(2):
            store.query("lat", since=1.0, until=4.0)
        assert _counter_value(registry, "repro_store_windows_read_total") == 6.0
        assert _counter_value(registry, "repro_store_window_cache_hits_total") == 3.0
        for _ in range(2):
            list(store.iter_windows())
        assert _counter_value(registry, "repro_store_windows_read_total") == 16.0
        assert _counter_value(registry, "repro_store_window_cache_hits_total") == 11.0
