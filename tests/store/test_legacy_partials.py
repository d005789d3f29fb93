"""Stores whose KLL partials carry the older Mersenne Twister ``rng_state``.

KLL partials used to persist a 625-word MT state; they now persist one
coin-state int.  Segments written in the older form must stay
readable, queryable and compactable: each legacy partial seeds its
coins deterministically from its MT state, so a query equals a fold of
the same decoded partials, and compaction rewrites them with int coin
states.
"""

import os
import random

import numpy as np
import pytest

from repro.core.serde import dump_sketch, load_header, pack_rng_state
from repro.obs import MetricsRegistry
from repro.quantiles import KLLSketch
from repro.store import Compactor, SketchStore, fold_partials
from repro.store.store import decode_partial

FIXTURE = os.path.join(os.path.dirname(os.path.dirname(__file__)), "fixtures", "kll_v1.bin")
WINDOWS = 12
QS = (0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0)


def legacy_blob(window):
    """A window partial as blobs before the coin stream wrote it."""
    if window == 0:
        with open(FIXTURE, "rb") as fh:
            return fh.read()
    sk = KLLSketch(k=64, seed=window)
    sk.update_many(np.random.default_rng(window).normal(size=200 + 50 * window))
    state = sk.state_dict()
    state["rng_state"] = pack_rng_state(random.Random(window).getstate())
    return dump_sketch("KLLSketch", state)


@pytest.fixture
def blobs():
    out = [legacy_blob(i) for i in range(WINDOWS)]
    for blob in out:
        assert not isinstance(load_header(blob)[1]["rng_state"], int)
    return out


@pytest.fixture
def path(tmp_path, blobs):
    path = str(tmp_path / "db")
    store = SketchStore(path, partition_seconds=4.0, registry=MetricsRegistry())
    for i, blob in enumerate(blobs):
        store.append(float(i), float(i + 1), [
            {"name": "lat", "labels": {}, "kind": "sketch", "blob": blob},
            {"name": "reqs", "labels": {}, "kind": "counter", "value": 1.0},
        ])
    store.close()
    return path


def expected_fold(blobs):
    return fold_partials([decode_partial(blob) for blob in blobs])


def assert_matches(result, fold):
    assert result.count == fold.n
    assert [result.quantile(q) for q in QS] == [fold.quantile(q) for q in QS]


def test_reopened_store_queries_legacy_partials(path, blobs):
    store = SketchStore(path, partition_seconds=4.0, registry=MetricsRegistry())
    try:
        assert store.query("reqs").total == WINDOWS
        assert_matches(store.query("lat"), expected_fold(blobs))
        assert_matches(store.query("lat", since=4.0, until=8.0), expected_fold(blobs[4:8]))
    finally:
        store.close()


def test_compaction_rewrites_legacy_partials_with_int_coins(path, blobs):
    store = SketchStore(path, partition_seconds=4.0, registry=MetricsRegistry())
    try:
        store.seal_active()
        stats = Compactor(
            store, decay_after=1.0, coarsen_to=float(WINDOWS),
            clock=lambda: 1_000.0, registry=MetricsRegistry(),
        ).run_once()
        assert stats["windows_in"] == WINDOWS and stats["windows_out"] == 1
        assert store.query("reqs").total == WINDOWS
        assert_matches(store.query("lat"), expected_fold(blobs))
        (reader,) = store.segments()
        (record,) = [record for _, record in reader.records()]
        (entry,) = [e for e in record["series"] if e["kind"] == "sketch"]
        assert type(load_header(entry["blob"])[1]["rng_state"]) is int
    finally:
        store.close()
    reopened = SketchStore(path, partition_seconds=4.0, registry=MetricsRegistry())
    try:
        assert_matches(reopened.query("lat"), expected_fold(blobs))
    finally:
        reopened.close()
