"""The repo-wide benchmark suite, registered into one BenchRunner.

Every case the perf trajectory tracks lives here — ``bench_a0*.py``
pytest drivers, ``scripts/run_benchmarks.py``, and the CI regression
gate all call :func:`build_runner` and select by tag, so there is one
definition of what "HLL batch ingest" means and every run of it lands
in a comparable ``BENCH_<run>.json`` row.

Tags:

- ``scalar`` — per-item ``update`` throughput (the A4 ablation);
- ``batch`` — ``update_many`` throughput (the A5 ablation);
- ``merge`` — 64-way ``merge_many`` reduction (the A6 ablation);
- ``serde`` — ``to_bytes``/``from_bytes`` round-trips (a fixed batch
  per timed run, reported per round trip);
- ``concurrent`` — multi-threaded ``update_many`` ingest through
  :class:`~repro.concurrent.ConcurrentSketch` (``threads{1,2,4}``
  writers over pre-split chunks, joined and compacted inside the timed
  region — the A10 ablation gating the lock-free wrapper);
- ``parallel`` — full fan-out/reduce ``parallel_build`` on the
  ``process`` backend (serde wire); scatter, build, and reduce are
  inside the timed region, on the warm process pool the first call
  spawns;
- ``obs`` — the telemetry timeline (the A9 observability plane):
  ``obs/timeline_record`` feeds histograms and ticks windows closed,
  ``obs/observe_inline`` is the per-request path (one ``observe`` +
  one ``inc`` per value on labelled series, a tick per window),
  ``obs/timeline_query`` folds window KLL partials for range quantiles,
  ``obs/timeline_series`` is one new window ticked, then one dashboard
  ``/timeline`` poll (per-window p50/p99 points over a full ring, three
  labelled series: the new window's answer is made, the other 59 are
  read from their windows — the ``live`` workload's shape),
  ``obs/alert_eval`` runs full alert-engine evaluation passes (threshold,
  p99 SLO, KLL drift, change-point) against a prebuilt timeline;
- ``store`` — the durable sketch store (the A12 persistence plane):
  ``store/append`` persists windowed partials through segment files
  (serde encode + framing + buffered write per window),
  ``store/query`` answers range + GROUP BY reads from sealed segments
  (index lookup, k-way fold; the repeated ranges hit the
  decoded-window cache), ``store/query_cold`` runs the same reads on a
  freshly opened store (each covered partial decoded once), and
  ``store/alert_pass`` is one alert pass whose drift baseline reaches
  past a small ring into the store, with one new window ticked before
  it (the ``live`` workload's shape);
- ``streaming`` — GROUP BY ingest (the paper's §3 workload, E9):
  ``streaming/groupby_hll`` is one ``GroupBySketcher.process_many``
  batch of int flow keys over Zipf-distributed sources into per-source
  HyperLogLogs — the per-window GROUP BY of the ``flows`` end-to-end
  workload — and ``streaming/groupby_countmin`` the same batch into
  per-source Count-Min sketches through the default GROUP BY kernel;
- ``fast`` — the curated 25-case subset the CI regression gate runs
  (~seconds, not minutes).

Workloads come from :mod:`repro.workloads` generators seeded through
the harness's :class:`~repro.obs.bench.CaseContext`, so one ``--seed``
flag reproduces every stream and the seed is recorded in the payload.
"""

import atexit
import shutil
import tempfile

import numpy as np

from repro.cardinality import HyperLogLog, HyperLogLogPlusPlus, KMVSketch
from repro.concurrent import ConcurrentSketch
from repro.frequency import CountMinSketch, CountSketch, SpaceSaving
from repro.membership import BloomFilter, CountingBloomFilter
from repro.moments import AMSSketch
from repro.obs import (
    AlertEngine,
    ChangePointRule,
    DriftRule,
    MetricsRegistry,
    QuantileRule,
    ThresholdRule,
    TimelineRecorder,
)
from repro.obs.bench import DEFAULT_SEED, BenchRunner, run_threaded
from repro.parallel import SketchSpec, parallel_build, partition_items
from repro.quantiles import KLLSketch, ReqSketch, TDigest
from repro.sampling import ReservoirSampler
from repro.store import SketchStore
from repro.streaming import GroupBySketcher
from repro.workloads import uniform_stream, zipf_stream

N_SCALAR = 20_000
N_BATCH = 200_000
N_CONCURRENT = 120_000
N_PARALLEL = 200_000
PARALLEL_SHARDS = 4
PARALLEL_WORKERS = 2
CONCURRENT_THREADS = (1, 2, 4)
MERGE_PARTS = 64
MERGE_ITEMS = 1_500

#: workload universe for uniform integer streams.
UNIVERSE = 1 << 30


def _ints(ctx, n):
    return uniform_stream(n, n_items=UNIVERSE, seed=ctx.seed)


def _zipf(ctx, n):
    return zipf_stream(n, n_items=10_000, skew=1.1, seed=ctx.seed)


def _floats(ctx, n):
    return ctx.rng.normal(size=n)


def _scalar_drive(sk, data):
    update = sk.update
    for item in data:
        update(item)


def _distinct_rel_err(sk, data):
    exact = len(np.unique(data))
    return abs(sk.estimate() - exact) / exact


def _top_count_rel_err(sk, data):
    top = int(np.bincount(np.asarray(data)).argmax())
    exact = int(np.sum(np.asarray(data) == top))
    est = sk.estimate(top)
    est = getattr(est, "value", est)  # families returning Estimate objects
    return abs(float(est) - exact) / exact


def _median_rank_err(sk, data):
    est = sk.quantile(0.5)
    return abs(float(np.mean(np.asarray(data) <= est)) - 0.5)


# (label, factory, stream builder, accuracy fn, accuracy metric)
_SCALAR = [
    ("HyperLogLog", lambda: HyperLogLog(p=12, seed=1), _ints,
     _distinct_rel_err, "distinct_rel_err"),
    ("Bloom", lambda: BloomFilter(m=1 << 16, k=4, seed=1), _ints, None, None),
    ("CountMin", lambda: CountMinSketch(width=2048, depth=4, seed=1), _zipf,
     _top_count_rel_err, "top_count_rel_err"),
    ("CountSketch", lambda: CountSketch(width=2048, depth=4, seed=1), _zipf,
     _top_count_rel_err, "top_count_rel_err"),
    ("SpaceSaving", lambda: SpaceSaving(k=256), _zipf,
     _top_count_rel_err, "top_count_rel_err"),
    ("KMV", lambda: KMVSketch(k=256, seed=1), _ints,
     _distinct_rel_err, "distinct_rel_err"),
    ("KLL", lambda: KLLSketch(k=200, seed=1), _floats,
     _median_rank_err, "median_rank_err"),
    ("TDigest", lambda: TDigest(delta=100), _floats,
     _median_rank_err, "median_rank_err"),
]

_BATCH = [
    ("HyperLogLog", lambda: HyperLogLog(p=12, seed=1), _ints,
     _distinct_rel_err, "distinct_rel_err"),
    ("HLLPlusPlus", lambda: HyperLogLogPlusPlus(p=12, seed=1), _ints,
     _distinct_rel_err, "distinct_rel_err"),
    ("Bloom", lambda: BloomFilter(m=1 << 18, k=4, seed=1), _ints, None, None),
    ("CountingBloom", lambda: CountingBloomFilter(m=1 << 16, k=4, seed=1), _ints,
     None, None),
    ("CountMin", lambda: CountMinSketch(width=2048, depth=4, seed=1), _zipf,
     _top_count_rel_err, "top_count_rel_err"),
    ("CountMinConservative",
     lambda: CountMinSketch(width=2048, depth=4, conservative=True, seed=1), _zipf,
     _top_count_rel_err, "top_count_rel_err"),
    ("CountSketch", lambda: CountSketch(width=2048, depth=4, seed=1), _zipf,
     _top_count_rel_err, "top_count_rel_err"),
    ("SpaceSaving", lambda: SpaceSaving(k=256), _zipf,
     _top_count_rel_err, "top_count_rel_err"),
    ("KMV", lambda: KMVSketch(k=256, seed=1), _ints,
     _distinct_rel_err, "distinct_rel_err"),
    ("AMS", lambda: AMSSketch(buckets=256, groups=8, seed=1), _zipf, None, None),
    ("KLL", lambda: KLLSketch(k=200, seed=1), _floats,
     _median_rank_err, "median_rank_err"),
    ("REQ", lambda: ReqSketch(k=32, seed=1), _floats,
     _median_rank_err, "median_rank_err"),
]

_MERGE = [
    ("HyperLogLog", lambda: HyperLogLog(p=12, seed=1), _ints),
    ("CountMin", lambda: CountMinSketch(width=2048, depth=4, seed=1), _ints),
    ("Bloom", lambda: BloomFilter(m=1 << 16, k=4, seed=1), _ints),
    ("KMV", lambda: KMVSketch(k=256, seed=1), _ints),
    ("SpaceSaving", lambda: SpaceSaving(k=512),
     lambda ctx, n: uniform_stream(n, n_items=256, seed=ctx.seed)),
    ("KLL", lambda: KLLSketch(k=200, seed=1), _floats),
    ("Reservoir", lambda: ReservoirSampler(k=256, seed=1), _ints),
]

#: round trips per timed serde run: one cold round trip per repetition
#: is too short to time sharply.
SERDE_ROUNDTRIPS = 32

_SERDE = [
    ("HyperLogLog", lambda: HyperLogLog(p=12, seed=1), _ints),
    ("KLL", lambda: KLLSketch(k=200, seed=1), _floats),
]

#: full fan-out/reduce builds over the warm process pool (serde wire).
_PARALLEL = [
    ("HyperLogLog", SketchSpec(HyperLogLog, p=12, seed=1), _ints),
    ("CountMin", SketchSpec(CountMinSketch, width=2048, depth=4, seed=1), _ints),
]
PARALLEL_BACKENDS = ("process",)

#: multi-threaded ingest through the lock-free concurrent wrapper.
_CONCURRENT = [
    ("HyperLogLog", lambda: HyperLogLog(p=12, seed=1), _ints),
    ("CountMin", lambda: CountMinSketch(width=2048, depth=4, seed=1), _zipf),
    ("KLL", lambda: KLLSketch(k=200, seed=1), _floats),
]

#: timeline recording/query shape: windows in the ring, observations
#: landing per window, and range queries folded per timed run.
TIMELINE_WINDOWS = 96
TIMELINE_OBS = 2_000
TIMELINE_QUERIES = 64
ALERT_EVALS = 16

#: dashboard poll shape: a full ring of windows, labelled series with
#: these observations per window (the live benchmark's routes), and
#: polls per timed run.
POLL_WINDOWS = 60
POLL_OBS = (80, 100, 120)
POLL_REPEATS = 32

#: inline instrumentation shape: labelled routes, windows, and values
#: each route observes per window (one observe + inc per value).
INLINE_ROUTES = 16
INLINE_WINDOWS = 12
INLINE_OBS = 200

#: durable store shape: windows persisted per append pass, observations
#: behind each KLL partial, labelled shards per window (exercises the
#: key index + GROUP BY), and range queries folded per timed run.
STORE_WINDOWS = 48
STORE_OBS = 1_000
STORE_SHARDS = 4
STORE_QUERIES = 32
STORE_PARTITION = 8.0

#: alert-over-store shape: a small ring with a store attached, windows
#: of history written first, a drift baseline reaching past the ring
#: into the store, and passes per timed run (one new window before each).
ALERT_STORE_RING = 8
ALERT_STORE_PREFILL = 40
ALERT_STORE_BASELINE = 32
ALERT_STORE_PASSES = 24

#: GROUP BY shape: records per process_many batch, Zipf(1.1) sources
#: (one HLL group each) and destination bits of each int flow key.
GROUPBY_RECORDS = 70_000
GROUPBY_SOURCES = 512
GROUPBY_DEST_BITS = 20

#: the curated CI subset — quick, covers scalar/batch/merge/serde,
#: the concurrent wrapper at 1 and 4 writer threads, and the timeline.
FAST_IDS = frozenset({
    "update/HyperLogLog/scalar",
    "update/SpaceSaving/scalar",
    "update/HyperLogLog/batch",
    "update/CountMin/batch",
    "update/Bloom/batch",
    "update/KLL/batch",
    "merge/HyperLogLog/kway64",
    "merge/KMV/kway64",
    "merge/KLL/kway64",
    "serde/HyperLogLog/roundtrip",
    "serde/KLL/roundtrip",
    "concurrent/CountMin/threads1",
    "concurrent/CountMin/threads4",
    "parallel/HyperLogLog/process",
    "obs/timeline_record",
    "obs/observe_inline",
    "obs/timeline_query",
    "obs/timeline_series",
    "obs/alert_eval",
    "store/append",
    "store/query",
    "store/query_cold",
    "store/alert_pass",
    "streaming/groupby_hll",
    "streaming/groupby_countmin",
})


def _source_of(key):
    """GROUP BY key of a flow record: its source (high 32 bits)."""
    return key >> 32


def _timeline_fixture(max_windows=TIMELINE_WINDOWS):
    """(registry, recorder, clock-cell) with a manually driven clock."""
    registry = MetricsRegistry()
    clock = [1_000.0]
    recorder = TimelineRecorder(
        registry=registry, interval=1.0, max_windows=max_windows,
        clock=lambda: clock[0],
    )
    return registry, recorder, clock


def _timeline_feed(registry, recorder, clock, chunks):
    """Drive one observation chunk into each window and tick it closed."""
    hist = registry.histogram("bench_lat_seconds", "Timeline bench.")
    counter = registry.counter("bench_ops_total", "Timeline bench.")
    recorder.tick()  # attach the window mirror before the first chunk
    for chunk in chunks:
        hist.observe_many(chunk)
        counter.inc(len(chunk))
        clock[0] += 1.0
        recorder.tick()


def _store_windows(ctx):
    """Per-window series lists with prebuilt KLL partials.

    The sketches are built here so the timed append pass measures the
    store (serde encode, CRC framing, buffered writes, partition rolls)
    and not the sketch ingest itself.
    """
    chunks = ctx.rng.lognormal(mean=-3.0, sigma=0.8,
                               size=(STORE_WINDOWS, STORE_SHARDS, STORE_OBS))
    windows = []
    for w in range(STORE_WINDOWS):
        series = [{"name": "bench_store_ops", "kind": "counter",
                   "value": float(STORE_SHARDS * STORE_OBS)}]
        for s in range(STORE_SHARDS):
            sk = KLLSketch(k=200, seed=1)
            sk.update_many(chunks[w, s])
            series.append({
                "name": "bench_store_lat", "labels": {"shard": f"s{s}"},
                "kind": "sketch", "sketch": sk,
            })
        windows.append((1_000.0 + w, 1_000.0 + w + 1.0, series))
    return windows


def build_runner(
    seed: int = DEFAULT_SEED,
    repeats: int = 5,
    warmup: int = 1,
    bootstrap: int = 200,
) -> BenchRunner:
    """Construct the runner with every suite case registered."""
    runner = BenchRunner(seed=seed, repeats=repeats, warmup=warmup, bootstrap=bootstrap)

    def tags_for(case_id, *groups):
        base = set(groups)
        if case_id in FAST_IDS:
            base.add("fast")
        return frozenset(base)

    for label, factory, stream, accuracy, metric in _SCALAR:
        cid = f"update/{label}/scalar"
        runner.add(
            cid, label,
            run=lambda sk, data: _scalar_drive(sk, data),
            prepare=(lambda stream: lambda ctx: list(stream(ctx, N_SCALAR)))(stream),
            setup=(lambda factory: lambda data: factory())(factory),
            n_items=N_SCALAR,
            params={"n": N_SCALAR, "path": "scalar"},
            accuracy=accuracy, accuracy_metric=metric,
            tags=tags_for(cid, "scalar", "throughput"),
        )

    for label, factory, stream, accuracy, metric in _BATCH:
        cid = f"update/{label}/batch"
        runner.add(
            cid, label,
            run=lambda sk, data: sk.update_many(data),
            prepare=(lambda stream: lambda ctx: stream(ctx, N_BATCH))(stream),
            setup=(lambda factory: lambda data: factory())(factory),
            n_items=N_BATCH,
            params={"n": N_BATCH, "path": "batch"},
            accuracy=accuracy, accuracy_metric=metric,
            tags=tags_for(cid, "batch", "throughput"),
        )

    for label, factory, stream in _MERGE:
        cid = f"merge/{label}/kway64"

        def prepare(ctx, factory=factory, stream=stream):
            parts = []
            for i in range(MERGE_PARTS):
                sk = factory()
                sk.update_many(stream(ctx, MERGE_ITEMS))
                parts.append(sk)
            return {"parts": parts, "out": None}

        def run(_, data):
            data["out"] = type(data["parts"][0]).merge_many(data["parts"])

        runner.add(
            cid, label,
            run=run,
            prepare=prepare,
            n_items=MERGE_PARTS,
            params={"k": MERGE_PARTS, "items_per_part": MERGE_ITEMS},
            footprint=lambda _, data: data["out"].memory_footprint(),
            tags=tags_for(cid, "merge"),
        )

    for label, factory, stream in _CONCURRENT:
        for n_threads in CONCURRENT_THREADS:
            cid = f"concurrent/{label}/threads{n_threads}"

            def prepare(ctx, stream=stream, n_threads=n_threads):
                data = np.asarray(stream(ctx, N_CONCURRENT))
                return np.array_split(data, n_threads)

            def run(conc, chunks):
                # Join and compact inside the timed region: the cost of
                # the epoch hand-off and the final fold is part of what
                # "concurrent ingest" means.
                run_threaded(conc.update_many, chunks)
                conc.compact()

            runner.add(
                cid, label,
                run=run,
                prepare=prepare,
                setup=(lambda factory: lambda data: ConcurrentSketch(factory))(
                    factory
                ),
                n_items=N_CONCURRENT,
                params={"n": N_CONCURRENT, "threads": n_threads},
                footprint=lambda conc, _: conc.query(
                    lambda sk: sk.memory_footprint()
                ),
                tags=tags_for(cid, "concurrent", "throughput"),
            )

    for label, spec, stream in _PARALLEL:
        for backend in PARALLEL_BACKENDS:
            cid = f"parallel/{label}/{backend}"

            def prepare(ctx, stream=stream):
                data = np.asarray(stream(ctx, N_PARALLEL))
                return partition_items(data, PARALLEL_SHARDS)

            def run(_, shards, spec=spec, backend=backend):
                # Input scatter, shard builds, and the k-way reduce are
                # timed: the end-to-end cost a caller pays.  The first
                # call spawns the warm process pool; later repetitions
                # reuse it, as every later build in a process does.
                parallel_build(
                    spec, shards, workers=PARALLEL_WORKERS, backend=backend
                )

            runner.add(
                cid, label,
                run=run,
                prepare=prepare,
                n_items=N_PARALLEL,
                params={
                    "n": N_PARALLEL,
                    "shards": PARALLEL_SHARDS,
                    "workers": PARALLEL_WORKERS,
                    "backend": backend,
                },
                tags=tags_for(cid, "parallel", "throughput"),
            )

    for label, factory, stream in _SERDE:
        cid = f"serde/{label}/roundtrip"

        def prepare(ctx, factory=factory, stream=stream):
            sk = factory()
            sk.update_many(stream(ctx, N_SCALAR))
            return sk

        def run(_, sk):
            cls = type(sk)
            for _ in range(SERDE_ROUNDTRIPS):
                cls.from_bytes(sk.to_bytes())

        runner.add(
            cid, label,
            run=run,
            prepare=prepare,
            n_items=SERDE_ROUNDTRIPS,
            params={"n": N_SCALAR, "path": "roundtrip", "roundtrips": SERDE_ROUNDTRIPS},
            footprint=lambda _, sk: sk.memory_footprint(),
            tags=tags_for(cid, "serde"),
        )

    cid = "obs/timeline_record"

    def record_prepare(ctx):
        return ctx.rng.lognormal(mean=-3.0, sigma=0.8,
                                 size=(TIMELINE_WINDOWS, TIMELINE_OBS))

    def record_run(_, chunks):
        # A full recording pass: per-window histogram feeds plus the
        # tick that swaps the KLL partial out and closes the window.
        registry, recorder, clock = _timeline_fixture()
        _timeline_feed(registry, recorder, clock, chunks)

    runner.add(
        cid, "Timeline",
        run=record_run,
        prepare=record_prepare,
        n_items=TIMELINE_WINDOWS * TIMELINE_OBS,
        params={"windows": TIMELINE_WINDOWS, "obs_per_window": TIMELINE_OBS},
        tags=tags_for(cid, "obs", "throughput"),
    )

    cid = "obs/observe_inline"

    def inline_prepare(ctx):
        values = ctx.rng.lognormal(mean=-3.0, sigma=0.8,
                                   size=(INLINE_WINDOWS, INLINE_ROUTES, INLINE_OBS))
        return values.tolist()

    def inline_run(_, windows):
        # An instrumented service: every request observes its latency
        # and bumps its route's counter inline, with a recorder attached.
        registry, recorder, clock = _timeline_fixture()
        routes = [
            (registry.histogram("bench_lat_seconds", "Inline bench.", route=f"r{i}"),
             registry.counter("bench_requests_total", "Inline bench.", route=f"r{i}"))
            for i in range(INLINE_ROUTES)
        ]
        recorder.tick()  # attach the window mirrors
        for window in windows:
            for (hist, counter), values in zip(routes, window):
                for value in values:
                    hist.observe(value)
                    counter.inc()
            clock[0] += 1.0
            recorder.tick()

    runner.add(
        cid, "Timeline",
        run=inline_run,
        prepare=inline_prepare,
        n_items=INLINE_WINDOWS * INLINE_ROUTES * INLINE_OBS,
        params={"windows": INLINE_WINDOWS, "routes": INLINE_ROUTES,
                "obs_per_window": INLINE_OBS},
        tags=tags_for(cid, "obs", "throughput"),
    )

    cid = "obs/timeline_query"

    def query_prepare(ctx):
        registry, recorder, clock = _timeline_fixture()
        chunks = ctx.rng.lognormal(mean=-3.0, sigma=0.8,
                                   size=(TIMELINE_WINDOWS, TIMELINE_OBS))
        _timeline_feed(registry, recorder, clock, chunks)
        starts = ctx.rng.integers(0, TIMELINE_WINDOWS - 1, size=TIMELINE_QUERIES)
        spans = ctx.rng.integers(1, TIMELINE_WINDOWS, size=TIMELINE_QUERIES)
        ranges = [
            (1_000.0 + float(i), 1_000.0 + float(min(i + s, TIMELINE_WINDOWS)))
            for i, s in zip(starts, spans)
        ]
        return {"recorder": recorder, "ranges": ranges}

    def query_run(_, data):
        # Range queries fold the covered window KLL partials with the
        # k-way merge kernel, then extract p50/p99 from the fold.
        recorder = data["recorder"]
        for t0, t1 in data["ranges"]:
            result = recorder.query("bench_lat_seconds", since=t0, until=t1)
            result.quantile(0.5)
            result.quantile(0.99)
            recorder.query("bench_ops_total", since=t0, until=t1)

    runner.add(
        cid, "Timeline",
        run=query_run,
        prepare=query_prepare,
        n_items=TIMELINE_QUERIES,
        params={
            "windows": TIMELINE_WINDOWS,
            "obs_per_window": TIMELINE_OBS,
            "queries": TIMELINE_QUERIES,
        },
        tags=tags_for(cid, "obs"),
    )

    cid = "obs/timeline_series"

    def series_prepare(ctx):
        registry, recorder, clock = _timeline_fixture(max_windows=POLL_WINDOWS)
        hists = [registry.histogram("bench_lat_seconds", "Poll bench.", route=f"r{i}")
                 for i in range(len(POLL_OBS))]
        chunks = [[ctx.rng.lognormal(mean=-5.0, sigma=0.5, size=n) for n in POLL_OBS]
                  for _ in range(POLL_WINDOWS)]
        recorder.tick()  # attach the window mirrors

        def tick(w):
            for hist, chunk in zip(hists, chunks[w % len(chunks)]):
                hist.observe_many(chunk)
            clock[0] += 1.0
            recorder.tick()

        for w in range(POLL_WINDOWS):
            tick(w)
        poll(recorder)  # earlier polls have read every window but the next
        return {"recorder": recorder, "tick": tick}

    def poll(recorder):
        for i in range(len(POLL_OBS)):
            recorder.series("bench_lat_seconds", quantiles=(0.5, 0.99), route=f"r{i}")

    def series_run(_, data):
        # One poll per new window: the /timeline points of every labelled
        # series, the new window's p50/p99 made, the rest read back.
        for w in range(POLL_REPEATS):
            data["tick"](w)
            poll(data["recorder"])

    runner.add(
        cid, "Timeline",
        run=series_run,
        prepare=series_prepare,
        n_items=POLL_REPEATS,
        params={
            "windows": POLL_WINDOWS,
            "obs_per_window": list(POLL_OBS),
            "polls": POLL_REPEATS,
        },
        tags=tags_for(cid, "obs"),
    )

    cid = "obs/alert_eval"

    def alert_prepare(ctx):
        registry, recorder, clock = _timeline_fixture()
        registry.counter("bench_ops_total", "Timeline bench.")  # rule target
        chunks = ctx.rng.lognormal(mean=-3.0, sigma=0.8,
                                   size=(TIMELINE_WINDOWS, TIMELINE_OBS))
        _timeline_feed(registry, recorder, clock, chunks)
        engine = AlertEngine(recorder, rules=[
            ThresholdRule("rate", "bench_ops_total", threshold=1e12, over=5),
            QuantileRule("p99", "bench_lat_seconds", threshold=1e12, q=0.99,
                         over=5, min_count=1),
            DriftRule("drift", "bench_lat_seconds", baseline_windows=32,
                      recent_windows=4, min_count=1),
            ChangePointRule("cp", "bench_ops_total", trailing=16, min_history=4),
        ])
        return {"engine": engine, "clock": clock}

    def alert_run(_, data):
        # One pass = every rule family evaluated once: range folds for
        # threshold/quantile, the double merge_many fold + CDF probes
        # for drift, and the robust z-score for the change-point.
        for _ in range(ALERT_EVALS):
            data["engine"].evaluate(data["clock"][0])

    runner.add(
        cid, "Alerts",
        run=alert_run,
        prepare=alert_prepare,
        n_items=ALERT_EVALS,
        params={
            "windows": TIMELINE_WINDOWS,
            "obs_per_window": TIMELINE_OBS,
            "evaluations": ALERT_EVALS,
            "rules": 4,
        },
        tags=tags_for(cid, "obs"),
    )

    cid = "store/append"

    def store_append_run(_, windows):
        # A full persistence pass: every window's partials are
        # serde-encoded, CRC-framed into the active segment, partitions
        # roll and seal, and the manifest closes out.
        path = tempfile.mkdtemp(prefix="repro-bench-store-")
        try:
            store = SketchStore(path, partition_seconds=STORE_PARTITION)
            for start, end, series in windows:
                store.append(start, end, series)
                store.flush()
            store.close()
        finally:
            shutil.rmtree(path, ignore_errors=True)

    runner.add(
        cid, "SketchStore",
        run=store_append_run,
        prepare=_store_windows,
        n_items=STORE_WINDOWS * (STORE_SHARDS + 1),
        params={
            "windows": STORE_WINDOWS,
            "series_per_window": STORE_SHARDS + 1,
            "obs_per_sketch": STORE_OBS,
            "partition_seconds": STORE_PARTITION,
        },
        tags=tags_for(cid, "store", "throughput"),
    )

    cid = "store/query"

    def store_query_prepare(ctx):
        path = tempfile.mkdtemp(prefix="repro-bench-store-")
        atexit.register(shutil.rmtree, path, ignore_errors=True)
        store = SketchStore(path, partition_seconds=STORE_PARTITION)
        for start, end, series in _store_windows(ctx):
            store.append(start, end, series)
        store.flush()
        store.seal_active()
        starts = ctx.rng.integers(0, STORE_WINDOWS - 1, size=STORE_QUERIES)
        spans = ctx.rng.integers(1, STORE_WINDOWS, size=STORE_QUERIES)
        ranges = [
            (1_000.0 + float(i), 1_000.0 + float(min(i + s, STORE_WINDOWS)))
            for i, s in zip(starts, spans)
        ]
        return {"store": store, "ranges": ranges}

    def store_query_pass(store, ranges):
        # Range reads hit the in-file key index, read the covered
        # partials, and fold them with the k-way merge kernel; every
        # fourth range also fans out per shard through GROUP BY.
        for qi, (t0, t1) in enumerate(ranges):
            result = store.query("bench_store_lat", since=t0, until=t1)
            result.quantile(0.5)
            result.quantile(0.99)
            store.query("bench_store_ops", since=t0, until=t1)
            if qi % 4 == 0:
                groups = store.query(
                    "bench_store_lat", since=t0, until=t1, group_by="shard"
                )
                for grouped in groups.values():
                    grouped.quantile(0.99)

    store_params = {
        "windows": STORE_WINDOWS,
        "series_per_window": STORE_SHARDS + 1,
        "queries": STORE_QUERIES,
        "partition_seconds": STORE_PARTITION,
    }
    runner.add(
        cid, "SketchStore",
        run=lambda _, data: store_query_pass(data["store"], data["ranges"]),
        prepare=store_query_prepare,
        n_items=STORE_QUERIES,
        params=store_params,
        tags=tags_for(cid, "store"),
    )

    cid = "store/query_cold"

    def store_query_cold_run(_, data):
        # The same reads on a store opened fresh: segment indexes load
        # and every covered partial is decoded from disk.
        store = SketchStore(data["store"].path, partition_seconds=STORE_PARTITION)
        store_query_pass(store, data["ranges"])

    runner.add(
        cid, "SketchStore",
        run=store_query_cold_run,
        prepare=store_query_prepare,
        n_items=STORE_QUERIES,
        params=store_params,
        tags=tags_for(cid, "store"),
    )

    cid = "store/alert_pass"

    def alert_store_prepare(ctx):
        path = tempfile.mkdtemp(prefix="repro-bench-store-")
        atexit.register(shutil.rmtree, path, ignore_errors=True)
        registry, recorder, clock = _timeline_fixture(max_windows=ALERT_STORE_RING)
        recorder.attach_store(SketchStore(path, partition_seconds=STORE_PARTITION,
                                          registry=MetricsRegistry()))
        hists = [registry.histogram("bench_lat_seconds", "Alert bench.", route=f"r{i}")
                 for i in range(len(POLL_OBS))]
        chunks = [[ctx.rng.lognormal(mean=-5.0, sigma=0.5, size=n) for n in POLL_OBS]
                  for _ in range(ALERT_STORE_PREFILL)]
        recorder.tick()  # attach the window mirrors

        def tick(w):
            for hist, chunk in zip(hists, chunks[w % len(chunks)]):
                hist.observe_many(chunk)
            clock[0] += 1.0
            recorder.tick()

        for w in range(ALERT_STORE_PREFILL):
            tick(w)
        engine = AlertEngine(recorder, rules=[
            DriftRule("drift", "bench_lat_seconds", baseline_windows=ALERT_STORE_BASELINE,
                      recent_windows=4, min_count=1, labels={"route": "r1"}),
        ], registry=MetricsRegistry(), clock=lambda: clock[0])
        return {"engine": engine, "tick": tick, "clock": clock}

    def alert_store_run(_, data):
        # One pass per new window: the drift rule re-reads its baseline,
        # all but the newest of which the previous pass already read.
        for w in range(ALERT_STORE_PASSES):
            data["tick"](w)
            data["engine"].evaluate(data["clock"][0])

    runner.add(
        cid, "Alerts",
        run=alert_store_run,
        prepare=alert_store_prepare,
        n_items=ALERT_STORE_PASSES,
        params={
            "ring": ALERT_STORE_RING,
            "baseline_windows": ALERT_STORE_BASELINE,
            "routes": len(POLL_OBS),
            "passes": ALERT_STORE_PASSES,
        },
        tags=tags_for(cid, "store", "obs"),
    )

    cid = "streaming/groupby_hll"

    def groupby_prepare(ctx):
        sources = zipf_stream(GROUPBY_RECORDS, n_items=GROUPBY_SOURCES, skew=1.1,
                              seed=ctx.seed)
        dests = ctx.rng.integers(0, 1 << GROUPBY_DEST_BITS, size=GROUPBY_RECORDS)
        return ((np.asarray(sources, dtype=np.int64) << 32) | dests).tolist()

    def groupby_run(gb, keys):
        # One window's GROUP BY: group ids, then one hash pass over the
        # batch in stream order, with only the (index, rho) arrays sorted
        # by group before each group's register update.
        gb.process_many(keys)

    runner.add(
        cid, "GroupBySketcher",
        run=groupby_run,
        prepare=groupby_prepare,
        setup=lambda keys: GroupBySketcher(_source_of, lambda: HyperLogLog(p=10, seed=0)),
        n_items=GROUPBY_RECORDS,
        params={"records": GROUPBY_RECORDS, "sources": GROUPBY_SOURCES,
                "zipf": 1.1, "p": 10},
        footprint=lambda gb, _: sum(sk.memory_footprint() for _, sk in gb.items()),
        tags=tags_for(cid, "streaming", "throughput"),
    )

    cid = "streaming/groupby_countmin"

    def groupby_default_run(gb, keys):
        # The default kernel: group ids, one canonicalization of the
        # batch, then one stable sort of the records and one
        # update_many per group on its slice.
        gb.process_many(keys)

    runner.add(
        cid, "GroupBySketcher",
        run=groupby_default_run,
        prepare=groupby_prepare,
        setup=lambda keys: GroupBySketcher(
            _source_of, lambda: CountMinSketch(width=1024, depth=4, seed=1)
        ),
        n_items=GROUPBY_RECORDS,
        params={"records": GROUPBY_RECORDS, "sources": GROUPBY_SOURCES,
                "zipf": 1.1, "width": 1024, "depth": 4},
        footprint=lambda gb, _: sum(sk.memory_footprint() for _, sk in gb.items()),
        tags=tags_for(cid, "streaming", "throughput"),
    )

    return runner
