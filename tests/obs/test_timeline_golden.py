"""``/timeline`` bodies pinned byte for byte against golden fixtures.

The fixture ``tests/fixtures/timeline_bodies_v1.json`` holds the bodies
(and the ``series()`` points) that the renderer produced before sealed
windows memoized their answers.  A seeded recorder with a store runs
through ring and past-the-ring reads, steps of 1, 2.5 and 0.5 windows,
counters, gauges and histograms, a histogram window with no
observations and unaligned windows after a stop/start; every case must
render the same bytes, on a first poll and on a repeat poll that reads
the memo.

The fixture is a record of earlier output, not of this tree: regenerate
it only from a tree known to render the old bytes, with
``PYTHONPATH=<that tree>/src python tests/obs/test_timeline_golden.py``.
"""

import json
import os
import sys
from urllib.parse import parse_qs

import numpy as np

FIXTURE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "fixtures",
                       "timeline_bodies_v1.json")

#: query strings rendered by ``/timeline``.
CASES = (
    "",
    "metric=lat_seconds",
    "metric=lat_seconds&since=1003&until=1024.5",
    "metric=lat_seconds&since=1003&step=2.5",
    "metric=lat_seconds&step=0.5",
    "metric=lat_seconds&step=1.0&q=0.1,0.5,0.9",
    "metric=lat_seconds&since=1000&q=0.99",
    "metric=ops_total&since=1000",
    "metric=ops_total&step=2.5",
    "metric=queue_depth&since=1002&step=0.5",
    "metric=idle_seconds&since=1000",
    "all=1",
    "all=1&since=1005&step=2.5",
    "all=1&since=1000&step=0.5&q=0.25",
)

#: ``series()`` calls: (metric, since, step, quantiles, labels).
SERIES = (
    ("lat_seconds", None, None, (0.5, 0.99), {"route": "a"}),
    ("lat_seconds", 1003.0, 2.5, (0.5, 0.99), {"route": "b"}),
    ("lat_seconds", 1000.0, 0.5, (0.1, 0.9), {"route": "a"}),
    ("ops_total", 1000.0, None, (0.5,), {}),
    ("queue_depth", None, 2.5, (0.5,), {}),
    ("idle_seconds", 1000.0, None, (0.5, 0.99), {}),
)


def build(store_path: str):
    """(server, recorder, store): a seeded 8-window ring over a 4 s-partition store."""
    from repro.obs import MetricsRegistry, ObsServer, TimelineRecorder
    from repro.store import SketchStore

    registry = MetricsRegistry()
    clock = [1000.0]
    recorder = TimelineRecorder(registry=registry, interval=1.0, max_windows=8,
                                clock=lambda: clock[0])
    store = SketchStore(store_path, partition_seconds=4.0, registry=MetricsRegistry(),
                        clock=lambda: clock[0])
    recorder.attach_store(store)
    hists = [registry.histogram("lat_seconds", route=r) for r in ("a", "b")]
    idle = registry.histogram("idle_seconds")
    ops = registry.counter("ops_total")
    depth = registry.gauge("queue_depth")
    rng = np.random.default_rng(29)
    recorder.tick(clock[0])

    def window(end: float) -> None:
        for i, hist in enumerate(hists):
            hist.observe_many(rng.lognormal(-5.0 + 0.3 * i, 0.5, int(rng.integers(5, 60))))
        if int(end) % 3 == 0:  # the other windows hold an empty idle partial
            idle.observe_many(rng.uniform(0.0, 1.0, 7))
        ops.inc(float(rng.integers(0, 50)))
        depth.set(float(rng.integers(0, 9)))
        clock[0] = end
        recorder.tick(end)

    for w in range(1, 21):
        window(1000.0 + w)
    hists[0].observe_many(rng.lognormal(-5.0, 0.5, 11))
    ops.inc(3.0)
    clock[0] = 1020.4
    recorder._on_stop()   # stop(): flushes [1020, 1020.4)
    clock[0] = 1021.7
    recorder._on_start()  # start(): the next window opens at 1021.7
    for end in (1022.0, 1023.0, 1024.0):
        window(end)
    server = ObsServer(registry=registry, timeline=recorder)
    return server, recorder, store


def render(server, query: str) -> str:
    body, status = server._render_timeline(parse_qs(query))
    assert status == 200, (query, body)
    return body


def series_points(recorder) -> list:
    return [
        recorder.series(metric, since=since, step=step, quantiles=qs, **labels)
        for metric, since, step, qs, labels in SERIES
    ]


def capture(store_path: str) -> dict:
    server, recorder, store = build(store_path)
    try:
        return {"bodies": {query: render(server, query) for query in CASES},
                "series": series_points(recorder)}
    finally:
        store.close()


def test_bodies_match_the_fixture(tmp_path, monkeypatch):
    with open(FIXTURE) as fh:
        golden = json.load(fh)
    monkeypatch.chdir(tmp_path)  # the body's store path reads "store"
    server, recorder, store = build("store")
    try:
        for _ in range(2):  # the second poll reads every window's memo
            for query in CASES:
                assert render(server, query) == golden["bodies"][query], query
            assert series_points(recorder) == golden["series"]
    finally:
        store.close()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        captured = capture("store")
    with open(FIXTURE, "w") as fh:
        json.dump(captured, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(captured['bodies'])} bodies to {FIXTURE}", file=sys.stderr)
