"""One store holding generic and fixed-layout partials side by side.

Window partials written before the fixed layout carry the generic tagged
encoding; partials written since carry tag 11.  Both must decode in the
same segment, and every read — a range query, a GROUP BY and a decay
compaction — must answer exactly as a fold of the decoded partials.
"""

import io
import struct

import numpy as np
import pytest

from repro.cardinality import HyperLogLog
from repro.core.serde import MAGIC, encode_value
from repro.obs import MetricsRegistry
from repro.quantiles import KLLSketch
from repro.store import Compactor, SketchStore, fold_partials
from repro.store.store import decode_partial, encode_partial

WINDOWS = 12
ROUTES = ("/a", "/b")
QS = (0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0)


def generic_blob(sketch):
    """A partial as the generic encoder writes it (the pre-layout bytes)."""
    out = io.BytesIO()
    out.write(MAGIC + struct.pack("<H", 1))
    encode_value(type(sketch).__name__, out)
    encode_value(sketch.state_dict(), out)
    return out.getvalue()


def payload_tag(blob, metric):
    """The byte after the header: 11 for a fixed layout, 8 for a generic dict."""
    name = b"KLLSketch" if metric == "lat" else b"HyperLogLog"
    return blob[len(MAGIC) + 2 + 9 + len(name)]


def partials(window, route):
    rng = np.random.default_rng(100 * window + len(route) + ord(route[-1]))
    kll = KLLSketch(k=64, seed=window)
    kll.update_many(rng.normal(size=150 + 40 * window))
    hll = HyperLogLog(p=8, seed=5)
    hll.update_many(rng.integers(0, 10_000, size=300))
    return kll, hll


@pytest.fixture
def blobs():
    """``{(window, route, metric): blob}``; even windows generic, odd ones layout."""
    out = {}
    for window in range(WINDOWS):
        encode = generic_blob if window % 2 == 0 else encode_partial
        for route in ROUTES:
            kll, hll = partials(window, route)
            out[window, route, "lat"] = encode(kll)
            out[window, route, "users"] = encode(hll)
    for (window, _, metric), blob in out.items():
        assert payload_tag(blob, metric) == (11 if window % 2 else 8)
    return out


@pytest.fixture
def path(tmp_path, blobs):
    path = str(tmp_path / "db")
    store = SketchStore(path, partition_seconds=4.0, registry=MetricsRegistry())
    for window in range(WINDOWS):
        store.append(float(window), float(window + 1), [
            {"name": metric, "labels": {"route": route}, "kind": "sketch",
             "blob": blobs[window, route, metric]}
            for route in ROUTES for metric in ("lat", "users")
        ])
    store.close()
    return path


def fold(blobs, metric, routes=ROUTES, windows=range(WINDOWS)):
    return fold_partials(
        [decode_partial(blobs[w, r, metric]) for w in windows for r in routes]
    )


def assert_kll(result, expected):
    assert result.count == expected.n
    assert [result.quantile(q) for q in QS] == [expected.quantile(q) for q in QS]


def assert_hll(result, expected):
    assert np.array_equal(result.sketch.state_dict()["registers"],
                          expected.state_dict()["registers"])


def test_adjacent_formats_decode_to_their_sketches(blobs):
    for window in range(WINDOWS):
        kll, hll = partials(window, "/a")
        assert decode_partial(blobs[window, "/a", "lat"]).state_dict()["n"] == kll.n
        assert np.array_equal(decode_partial(blobs[window, "/a", "users"])._registers,
                              hll._registers)


def test_query_and_group_by_equal_the_fold(path, blobs):
    store = SketchStore(path, partition_seconds=4.0, registry=MetricsRegistry())
    try:
        assert_kll(store.query("lat"), fold(blobs, "lat"))
        assert_hll(store.query("users"), fold(blobs, "users"))
        assert_kll(store.query("lat", since=3.0, until=7.0),
                   fold(blobs, "lat", windows=range(3, 7)))
        grouped = store.query("lat", group_by="route")
        assert sorted(grouped) == list(ROUTES)
        for route in ROUTES:
            assert_kll(grouped[route], fold(blobs, "lat", routes=(route,)))
        for route, result in store.query("users", group_by="route").items():
            assert_hll(result, fold(blobs, "users", routes=(route,)))
    finally:
        store.close()


def test_compaction_folds_both_formats(path, blobs):
    store = SketchStore(path, partition_seconds=4.0, registry=MetricsRegistry())
    try:
        stats = Compactor(
            store, decay_after=1.0, coarsen_to=float(WINDOWS),
            clock=lambda: 1_000.0, registry=MetricsRegistry(),
        ).run_once()
        assert stats["windows_in"] == WINDOWS and stats["windows_out"] == 1
        ((_, record),) = list(store.segments()[0].records())
        for entry in record["series"]:  # rewritten partials take the layout
            assert payload_tag(entry["blob"], entry["name"]) == 11
        # Each series coarsens on its own; the query folds the two results.
        per_route = [fold(blobs, "lat", routes=(route,)) for route in ROUTES]
        assert_kll(store.query("lat"), fold_partials(per_route))
        assert_hll(store.query("users"), fold(blobs, "users"))
    finally:
        store.close()
    reopened = SketchStore(path, partition_seconds=4.0, registry=MetricsRegistry())
    try:
        grouped = reopened.query("lat", group_by="route")
        for route in ROUTES:
            assert_kll(grouped[route], fold(blobs, "lat", routes=(route,)))
    finally:
        reopened.close()
