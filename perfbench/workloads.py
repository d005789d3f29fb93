"""The four benchmark workloads.

Every workload is one process with one client thread in a closed loop:
the next call is made only after the previous one returned.  A virtual
clock (1 s windows starting at :data:`T0`) drives
``TimelineRecorder.tick``, ``AlertEngine.evaluate`` and
``Compactor.run_once`` by hand, so windows close at the same points in
every run.  Inputs come from ``numpy.random.default_rng(seed)``; the
program sees only the generated values.

A workload is used as::

    wl = Ingest(seed, tmp_root)      # generator state only
    wl.setup()                       # program set-up (timed as setup_s)
    while ...: wl.step()             # one closed-loop step
    wl.finish()                      # end-of-run checks
    wl.close()                       # stop threads, delete the store

Each step times only the program's calls; generating inputs and
checking answers happen between the timed sections (and, in a traced
run, inside ``bench.gen`` / ``bench.client`` spans).
"""

from __future__ import annotations

import contextlib
import functools
import http.client
import json
import math
import shutil
import tempfile
import time
from urllib.parse import urlencode

import numpy as np

from . import stats

#: virtual epoch of window 0 (a multiple of every partition width used).
T0 = 1_699_999_980.0

#: confidence of the HLL interval a per-source estimate must hit.
HLL_CONFIDENCE = 1.0 - 1e-6

#: a source's HLL interval is checked once its exact distinct count is
#: this many times the register count: well inside the raw-estimate
#: range that the interval's 1.04/sqrt(m) error model describes.
HLL_CHECKED_FROM = 5


#: a quantile sketch's rank-error bound holds at this confidence
#: (``KLLSketch.rank_error_bound`` is stated at 99%).
RANK_BOUND_CONFIDENCE = 0.99

#: an answer this many bounds off is wrong at any confidence.
RANK_BOUND_HARD = 3.0


def rank_error(values: np.ndarray, served: float, q: float) -> float:
    """Distance of ``q`` from the exact normalized rank interval of ``served``.

    The interval is ``[#(< v)/n, #(<= v)/n]``; 0 when ``q`` lies inside
    it, infinite when nothing was served.
    """
    n = len(values)
    if n == 0 or served is None:
        return math.inf
    below = np.count_nonzero(values < served) / n
    at_or_below = np.count_nonzero(values <= served) / n
    return max(0.0, below - q, q - at_or_below)


def allowed_misses(checks: int) -> int:
    """Answers past the bound that its confidence allows in ``checks`` tries.

    The binomial expectation plus four standard deviations, so a
    correct sketch fails this with probability far below 1e-4.
    """
    p = 1.0 - RANK_BOUND_CONFIDENCE
    return int(checks * p + 4.0 * math.sqrt(checks * p * (1.0 - p)))


class Workload:
    """Shared plumbing: samples, failures, spans, the store directory."""

    name = ""
    #: headline-op samples a run needs (p90 with 10 samples beyond it).
    min_ops = stats.min_samples(0.9)
    #: steps in each phase of a traced run.
    trace_steps = 20

    def __init__(self, seed: int, tmp_root: str) -> None:
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.tmp = tempfile.mkdtemp(prefix=f"{self.name}-", dir=tmp_root)
        #: a traced run sets these after set-up (SpanRecorder, Probes).
        self.recorder = None
        self.probes = None
        self.attempted = 0
        self.failures: list[str] = []
        #: headline-op latency samples (seconds).
        self.op_s: list[float] = []
        self.work = 0
        self.work_s = 0.0
        self.disk_bytes_per_series_window: float | None = None
        self.quantile_checks = 0
        self.quantile_misses = 0
        self.quantile_worst = 0.0
        self._closers: list = []

    # -- helpers ---------------------------------------------------------------

    def span(self, name: str):
        if self.recorder is None:
            return contextlib.nullcontext()
        return self.recorder.span(name)

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.failures.append(message)
        return ok

    def now(self, window: int) -> float:
        """Virtual end time of window ``window`` (which covers [T0+w, T0+w+1))."""
        return T0 + window + 1

    def on_close(self, fn) -> None:
        self._closers.append(fn)

    def close(self) -> None:
        while self._closers:
            fn = self._closers.pop()
            try:
                fn()
            except Exception as exc:  # keep closing; report the leak
                self.failures.append(f"close: {type(exc).__name__}: {exc}")
        shutil.rmtree(self.tmp, ignore_errors=True)

    def http_get(self, server, path: str, params: dict):
        """One GET round trip; returns ``(status, payload, seconds)``."""
        url = f"{path}?{urlencode(params)}"
        with self.span("http.request"):
            t0 = time.perf_counter()
            conn = http.client.HTTPConnection(server.host, server.port, timeout=60)
            try:
                conn.request("GET", url)
                response = conn.getresponse()
                body = response.read()
            finally:
                conn.close()
            elapsed = time.perf_counter() - t0
        if self.probes is not None:
            self.probes.counts["response_bytes"] += len(body)
        payload = json.loads(body) if response.status == 200 else None
        self.check(response.status == 200, f"GET {url} -> HTTP {response.status}")
        return response.status, payload, elapsed

    def record_disk(self) -> None:
        """Store bytes now ÷ series-windows appended so far."""
        series = self.meta.get("repro_store_series_total")
        self.disk_bytes_per_series_window = self.store.total_bytes() / series.value

    def check_quantile(self, what: str, values: np.ndarray, served, q: float) -> None:
        """A served quantile's exact rank error against the sketch's bound.

        The bound holds at :data:`RANK_BOUND_CONFIDENCE`, so one answer
        past it is not yet a failure: :meth:`finish_quantiles` fails the
        run when more answers miss than that confidence allows.  An
        answer :data:`RANK_BOUND_HARD` bounds off fails at once.
        """
        eps = self.eps
        error = rank_error(values, served, q)
        self.quantile_checks += 1
        if error > eps:
            self.quantile_misses += 1
            self.quantile_worst = max(self.quantile_worst, error / eps)
        self.check(error <= RANK_BOUND_HARD * eps,
                   f"{what}: q={q} served {served} is {error:.4f} off in rank "
                   f"(bound {eps:.4f})")

    def finish_quantiles(self) -> None:
        if self.quantile_checks:
            self.attempted += 1
            allowed = allowed_misses(self.quantile_checks)
            self.check(self.quantile_misses <= allowed,
                       f"{self.quantile_misses} of {self.quantile_checks} quantiles past "
                       f"the rank bound (its confidence allows {allowed})")

    def quantile_metrics(self) -> dict[str, float]:
        return {
            "quantiles_checked": self.quantile_checks,
            "quantiles_past_bound": self.quantile_misses,
            "worst_rank_error_over_bound": self.quantile_worst,
        }

    def check_histogram_payload(self, what: str, payload: dict, values: np.ndarray) -> None:
        """Count exact and every served quantile within the rank bound."""
        self.check(payload.get("count") == len(values),
                   f"{what}: count {payload.get('count')} != {len(values)}")
        for q, served in payload.get("quantiles", {}).items():
            self.check_quantile(what, values, served, float(q))

    # -- workload interface ----------------------------------------------------

    def satisfied(self) -> bool:
        """Whether the run holds enough samples for every metric."""
        return (len(self.op_s) >= self.min_ops
                and self.disk_bytes_per_series_window is not None)

    def setup(self) -> None:
        raise NotImplementedError

    def step(self) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """End-of-run checks: the quantile miss rate (and, per workload, more)."""
        self.finish_quantiles()

    def metrics(self) -> dict[str, float]:
        """Ungated, raw metrics under the workload's own names (printed)."""
        raise NotImplementedError

    def end_to_end(self) -> dict[str, float]:
        """The gated metrics every workload reports."""
        op_ms = [s * 1e3 for s in self.op_s]
        return {
            "ops_per_s": self.work / self.work_s if self.work_s else 0.0,
            "op_ms_p50": stats.median(op_ms),
            "op_ms_p90": stats.percentile(op_ms, 0.9),
            "disk_bytes_per_series_window": self.disk_bytes_per_series_window,
        }


class _Telemetry(Workload):
    """Registry + manually clocked recorder + store, shared by three workloads."""

    hist = "http_request_duration_seconds"
    counter = "http_requests_total"
    routes: list[int] = []
    #: lognormal sigma of every route's latency.
    sigma = 0.5
    partition_seconds = 60.0
    max_windows = 600

    def build_telemetry(self) -> None:
        from repro.obs import MetricsRegistry, TimelineRecorder
        from repro.store import SketchStore

        self.reg = MetricsRegistry()
        #: the store's, compactor's and alert engine's own meters.
        self.meta = MetricsRegistry()
        self.clock = [T0]
        self.timeline = TimelineRecorder(
            registry=self.reg, interval=1.0, max_windows=self.max_windows,
            clock=lambda: self.clock[0],
        )
        self.store = SketchStore(self.tmp + "/store", partition_seconds=self.partition_seconds,
                                 registry=self.meta)
        self.on_close(self.store.close)
        self.timeline.attach_store(self.store)
        self.hists = [self.reg.histogram(self.hist, route=f"r{i}") for i in range(len(self.routes))]
        self.counters = [self.reg.counter(self.counter, route=f"r{i}")
                         for i in range(len(self.routes))]
        # The attach tick: starts the histograms' window mirrors.  It
        # covers [T0 - 1, T0) and carries zero counter deltas.
        self.timeline.tick(T0)
        self.eps = self.hists[0].rank_error_bound()
        self.window = 0
        #: per-window list of per-route value arrays (the exact reference).
        self.values: list[list[np.ndarray]] = []
        self.mu = np.log(0.004) + 0.15 * np.arange(len(self.routes))

    def generate(self) -> list[np.ndarray]:
        with self.span("bench.gen"):
            values = [self.rng.lognormal(self.mu[i], self.sigma, n)
                      for i, n in enumerate(self.routes)]
        self.values.append(values)
        return values

    def observe(self, values: list[np.ndarray]) -> float:
        """Inline instrumentation: one observe + one inc per request."""
        lists = [v.tolist() for v in values]
        t0 = time.perf_counter()
        for hist, counter, batch in zip(self.hists, self.counters, lists):
            for value in batch:
                hist.observe(value)
                counter.inc()
        return time.perf_counter() - t0

    def tick(self) -> tuple[object, float]:
        now = self.now(self.window)
        self.clock[0] = now
        t0 = time.perf_counter()
        published = self.timeline.tick(now)
        return published, time.perf_counter() - t0

    def check_tick(self, published, values) -> None:
        """The published window carries exact counts; nothing failed to persist."""
        self.attempted += 1
        with self.span("bench.client"):
            for i, batch in enumerate(values):
                key = (self.counter, (("route", f"r{i}"),))
                hkey = (self.hist, (("route", f"r{i}"),))
                self.check(published.counters.get(key) == len(batch),
                           f"window {self.window}: counter r{i} "
                           f"{published.counters.get(key)} != {len(batch)}")
                partial = published.histograms.get(hkey)
                self.check(partial is not None and partial.n == len(batch),
                           f"window {self.window}: histogram r{i} count mismatch")
            errors = self.reg.get("repro_timeline_store_write_errors_total")
            self.check(errors is None or errors.value == 0,
                       f"window {self.window}: store write errors")

    def route_values(self, route: int, lo: int, hi: int) -> np.ndarray:
        """Exact values of ``route`` over windows ``[lo, hi)``."""
        return np.concatenate([self.values[w][route] for w in range(lo, hi)])


class Ingest(_Telemetry):
    """Instrumented service: observe + inc inline, a tick per window."""

    name = "ingest"
    routes = [160 + 12 * i for i in range(16)]
    partition_seconds = 15.0
    max_windows = 60
    #: windows after which the disk footprint is read (past decay and TTL).
    disk_checkpoint = 120
    #: long enough to reach decay and TTL, as a timed run does.
    trace_steps = 90
    #: windows whose exact values are kept (more than TTL + a partition).
    kept_windows = 150

    def setup(self) -> None:
        from repro.store import Compactor

        self.build_telemetry()
        self.compactor = Compactor(self.store, ttl=60.0, decay_after=30.0, coarsen_to=15.0,
                                   clock=lambda: self.clock[0], registry=self.meta)
        self.close_s: list[float] = []
        self.compact_s: list[float] = []
        self.observe_s = 0.0
        for _ in range(3):  # warm: first observes, first encodes, first append
            self.step()
        self.op_s.clear()
        self.close_s.clear()
        self.compact_s.clear()
        self.observe_s = 0.0
        self.work = 0
        self.work_s = 0.0

    def step(self) -> None:
        values = self.generate()
        observe_s = self.observe(values)
        self.observe_s += observe_s
        published, tick_s = self.tick()
        compact_s = 0.0
        if self.window % int(self.partition_seconds) == 0:  # the store just rolled
            t0 = time.perf_counter()
            self.compactor.run_once(self.clock[0])
            compact_s = time.perf_counter() - t0
            self.compact_s.append(compact_s)
        self.check_tick(published, values)
        if self.window >= self.kept_windows:
            # Past the TTL horizon: the reference for it is no longer needed.
            self.values[self.window - self.kept_windows] = None
        self.window += 1
        if self.window == self.disk_checkpoint:
            self.record_disk()
        self.op_s.append(tick_s)
        self.close_s.append(tick_s)
        self.work += sum(len(v) for v in values)
        self.work_s += observe_s + tick_s + compact_s

    def finish(self) -> None:
        """Every route's retained history reads back exactly (counters) and
        within the rank bound (quantiles), after decay and TTL."""
        for i in range(len(self.routes)):
            self.attempted += 1
            hist = self.store.query(self.hist, route=f"r{i}")
            total = self.store.query(self.counter, route=f"r{i}")
            lo = max(0, int(math.floor(hist.start - T0)))
            hi = int(math.ceil(hist.end - T0))
            values = self.route_values(i, lo, hi)
            self.check(hist.count == len(values), f"r{i}: retained count mismatch")
            for q in (0.5, 0.99):
                self.check_quantile(f"r{i}: retained", values, hist.quantile(q), q)
            lo_c = max(0, int(math.floor(total.start - T0)))
            hi_c = int(math.ceil(total.end - T0))
            exact = sum(len(self.values[w][i]) for w in range(lo_c, hi_c))
            self.check(total.total == exact, f"r{i}: retained counter {total.total} != {exact}")
        super().finish()

    def metrics(self) -> dict[str, float]:
        close_ms = [s * 1e3 for s in self.close_s]
        return {
            "obs_per_s": self.work / self.work_s,
            "window_close_ms_p50": stats.median(close_ms),
            "window_close_ms_p90": stats.percentile(close_ms, 0.9),
            "observe_inc_us_per_obs": self.observe_s / self.work * 1e6,
            **self.quantile_metrics(),
            "compaction_ms_mean": sum(self.compact_s) / max(1, len(self.compact_s)) * 1e3,
            "compactions": len(self.compact_s),
            "windows": self.window,
        }


class History(_Telemetry):
    """Operator reading deep, sealed history over HTTP ``/query``."""

    name = "history"
    routes = [100 + 10 * i for i in range(8)]
    n_windows = 200
    max_windows = 256
    trace_steps = 40
    #: queries of each kind per cycle of 100, in a seeded order.  Each
    #: kind's spans are log-spaced: its i-th query of n covers the last
    #: exp(mid of the i-th of n equal slices of [log 10 s, log 200 s])
    #: seconds, so every cycle holds the same design.
    MIX = {"route": 50, "rate": 34, "range": 10, "group": 6}
    min_ops = sum(MIX.values())

    def setup(self) -> None:
        from repro.obs import ObsServer
        from repro.store import SketchStore

        self.build_telemetry()
        for _ in range(self.n_windows):
            values = self.generate()
            for hist, counter, batch in zip(self.hists, self.counters, values):
                hist.observe_many(batch)
                counter.inc(len(batch))
            published, _ = self.tick()
            self.check_tick(published, values)
            self.window += 1
        self.store.close()
        self.store = SketchStore(self.tmp + "/store", registry=self.meta)
        self.on_close(self.store.close)
        self.record_disk()
        self.server = ObsServer(registry=self.reg, store=self.store).start()
        self.on_close(self.server.stop)
        self.plan: list[tuple[str, float]] = []
        for kind in self.MIX:  # warm every query path once, on short spans
            self.run_query(kind, 0.0)
        self.op_s.clear()
        self.kinds_run = {kind: 0 for kind in self.MIX}

    def next_query(self) -> tuple[str, float]:
        """The next (kind, span quantile) of the current seeded cycle."""
        if not self.plan:
            self.plan = [(kind, (i + 0.5) / n)
                         for kind, n in self.MIX.items() for i in range(n)]
            self.rng.shuffle(self.plan)
        return self.plan.pop()

    def run_query(self, kind: str, u: float) -> float:
        """Send and check one query whose log-span sits at quantile ``u``."""
        with self.span("bench.gen"):
            lo, hi = math.log(10.0), math.log(self.n_windows)
            span = math.exp(lo + u * (hi - lo))
            until = T0 + self.n_windows
            since = max(T0, round(until - span, 3))
            route = int(self.rng.integers(len(self.routes)))
        params = {"since": repr(since), "until": repr(until)}
        if kind == "rate":
            params.update(metric=self.counter, route=f"r{route}")
        else:
            params.update(metric=self.hist, q="0.5,0.99")
            if kind == "route":
                params["route"] = f"r{route}"
            elif kind == "group":
                params["group_by"] = "route"
        status, payload, elapsed = self.http_get(self.server, "/query", params)
        self.attempted += 1
        if status != 200:
            return elapsed
        with self.span("bench.client"):
            lo = int(math.floor(since - T0))
            hi = int(math.ceil(until - T0))
            what = f"/query {kind} [{since}, {until})"
            if kind == "group":
                groups = payload.get("groups", {})
                self.check(sorted(groups) == [f"r{i}" for i in range(len(self.routes))],
                           f"{what}: groups {sorted(groups)}")
                for i in range(len(self.routes)):
                    self.check_result(what, groups.get(f"r{i}", {}), lo, hi)
                    self.check_histogram_payload(f"{what} r{i}", groups.get(f"r{i}", {}),
                                                 self.route_values(i, lo, hi))
            elif kind == "rate":
                self.check_result(what, payload, lo, hi)
                exact = float(len(self.route_values(route, lo, hi)))
                self.check(payload.get("total") == exact,
                           f"{what}: total {payload.get('total')} != {exact}")
                rate = exact / (hi - lo)
                self.check(math.isclose(payload.get("rate") or 0.0, rate, rel_tol=1e-12),
                           f"{what}: rate {payload.get('rate')} != {rate}")
            else:
                self.check_result(what, payload, lo, hi)
                routes = [route] if kind == "route" else range(len(self.routes))
                values = np.concatenate([self.route_values(i, lo, hi) for i in routes])
                self.check_histogram_payload(what, payload, values)
        return elapsed

    def check_result(self, what: str, payload: dict, lo: int, hi: int) -> None:
        """Coverage snaps outward to whole windows."""
        self.check(payload.get("n_windows") == hi - lo,
                   f"{what}: n_windows {payload.get('n_windows')} != {hi - lo}")
        self.check(payload.get("start") == T0 + lo and payload.get("end") == T0 + hi,
                   f"{what}: coverage [{payload.get('start')}, {payload.get('end')})")

    def step(self) -> None:
        kind, u = self.next_query()
        elapsed = self.run_query(kind, u)
        self.kinds_run[kind] += 1
        self.op_s.append(elapsed)
        self.work += 1
        self.work_s += elapsed

    def metrics(self) -> dict[str, float]:
        query_ms = [s * 1e3 for s in self.op_s]
        return {
            "query_ms_p50": stats.median(query_ms),
            "query_ms_p90": stats.percentile(query_ms, 0.9),
            "queries_per_s": self.work / self.work_s,
            **{f"queries_{kind}": n for kind, n in self.kinds_run.items()},
            **self.quantile_metrics(),
        }


class Live(_Telemetry):
    """Writes and reads the same store: tick, alert pass, dashboard poll."""

    name = "live"
    routes = [80, 100, 120]
    max_windows = 60
    #: windows of history written in set-up (the drift baseline's reach).
    prefill = 90
    disk_checkpoint = 150
    baseline_windows = 80
    recent_windows = 5
    drift_min_count = 200
    #: the change-point rule's trailing windows (inside the ring).
    trailing = 30
    #: the dashboard's /timeline poll covers this many recent windows.
    poll_windows = 60
    trace_steps = 30

    def setup(self) -> None:
        from repro.obs import ObsServer
        from repro.obs.alerts import (
            AlertEngine,
            ChangePointRule,
            DriftRule,
            QuantileRule,
            ThresholdRule,
        )

        self.build_telemetry()
        labels = {"route": "r1"}
        self.rules = {
            "rate": ThresholdRule("rate", self.counter, threshold=1e9, over=5, labels=labels),
            "p99": QuantileRule("p99", self.hist, threshold=1e9, q=0.99,
                                over=self.recent_windows, labels=labels),
            "drift": DriftRule("drift", self.hist, baseline_windows=self.baseline_windows,
                               recent_windows=self.recent_windows,
                               min_count=self.drift_min_count,
                               labels=labels),
            "change": ChangePointRule("change", self.counter, trailing=self.trailing,
                                      labels=labels),
        }
        self.engine = AlertEngine(self.timeline, rules=list(self.rules.values()),
                                  registry=self.meta, clock=lambda: self.clock[0])
        for _ in range(self.prefill):
            values = self.generate()
            self.observe(values)
            published, _ = self.tick()
            self.check_tick(published, values)
            self.window += 1
        self.server = ObsServer(registry=self.reg, timeline=self.timeline,
                                alerts=self.engine).start()
        self.on_close(self.server.stop)
        self.close_s: list[float] = []
        self.query_s: list[float] = []
        self.step()  # warm: first alert pass and first polls
        self.op_s.clear()
        self.close_s.clear()
        self.query_s.clear()
        self.work = 0
        self.work_s = 0.0

    def step(self) -> None:
        values = self.generate()
        observe_s = self.observe(values)
        published, tick_s = self.tick()
        self.check_tick(published, values)
        now = self.clock[0]
        t0 = time.perf_counter()
        self.engine.evaluate(now)
        alert_s = time.perf_counter() - t0
        self.check_alerts()
        timeline_params = {"metric": self.hist, "since": repr(now - self.poll_windows),
                           "until": repr(now), "q": "0.5,0.99"}
        _, timeline, timeline_s = self.http_get(self.server, "/timeline", timeline_params)
        self.check_timeline(timeline)
        last = len(self.routes) - 1
        query_params = {"metric": self.hist, "route": f"r{last}", "since": repr(now - 10),
                        "until": repr(now), "q": "0.5,0.99"}
        _, query, query_s = self.http_get(self.server, "/query", query_params)
        self.attempted += 2
        if query is not None:
            with self.span("bench.client"):
                self.check_histogram_payload(f"window {self.window}: /query", query,
                                             self.route_values(last, self.window - 9,
                                                               self.window + 1))
        self.window += 1
        if self.window == self.disk_checkpoint:
            self.record_disk()
        self.op_s.append(alert_s)
        self.close_s.append(tick_s)
        self.query_s.extend([timeline_s, query_s])
        self.work += sum(len(v) for v in values)
        self.work_s += observe_s + tick_s + alert_s + timeline_s + query_s

    def check_alerts(self) -> None:
        """Rules evaluated without error on exact inputs."""
        self.attempted += 1
        with self.span("bench.client"):
            status = {rule["name"]: rule for rule in self.engine.as_dict(history=0)["rules"]}
            errors = sum(rule["errors"] for rule in status.values())
            self.check(errors == 0, f"window {self.window}: {errors} rule errors")
            w = self.window
            recent = self.route_values(1, w + 1 - self.recent_windows, w + 1)
            p99 = status["p99"]
            self.check(p99["context"].get("count") == len(recent),
                       f"window {w}: p99 rule count {p99['context'].get('count')}")
            self.check_quantile(f"window {w}: p99 rule", recent, p99["value"], 0.99)
            drift = status["drift"]["context"]
            lo = w + 1 - self.recent_windows - self.baseline_windows
            baseline = sum(len(self.values[x][1])
                           for x in range(lo, w + 1 - self.recent_windows))
            self.check(drift.get("baseline_count") == baseline
                       and drift.get("recent_count") == len(recent),
                       f"window {w}: drift counts {drift}")

    def check_timeline(self, payload) -> None:
        if payload is None:
            return
        with self.span("bench.client"):
            series = {s["labels"].get("route"): s for s in payload.get("series", [])}
            lo, hi = self.window + 1 - self.poll_windows, self.window + 1
            for i in range(len(self.routes)):
                entry = series.get(f"r{i}")
                if not self.check(entry is not None, f"window {self.window}: /timeline r{i}"):
                    continue
                self.check(entry["range"]["n_windows"] == self.poll_windows,
                           f"window {self.window}: /timeline n_windows")
                self.check_histogram_payload(f"window {self.window}: /timeline r{i}",
                                             entry["range"], self.route_values(i, lo, hi))

    def metrics(self) -> dict[str, float]:
        close_ms = [s * 1e3 for s in self.close_s]
        alert_ms = [s * 1e3 for s in self.op_s]
        query_ms = [s * 1e3 for s in self.query_s]
        return {
            "obs_per_s": self.work / self.work_s,
            "window_close_ms_p50": stats.median(close_ms),
            "window_close_ms_p90": stats.percentile(close_ms, 0.9),
            "query_ms_p50": stats.median(query_ms),
            "query_ms_p90": stats.percentile(query_ms, 0.9),
            "alert_pass_ms_p50": stats.median(alert_ms),
            "alert_pass_ms_p90": stats.percentile(alert_ms, 0.9),
            "windows": self.window,
            **self.quantile_metrics(),
        }


def source_of(key: int) -> int:
    """Group key of a flow record: its source (high 32 bits)."""
    return key >> 32


class Flows(Workload):
    """The paper's GROUP BY: one HLL per source over int64 flow keys."""

    name = "flows"
    n_sources = 512
    zipf_a = 1.1
    #: records per window: above the auto backend's small-input cut, so
    #: each window's CountMin build runs on the process pool.
    records = 70_000
    dest_bits = 20
    disk_checkpoint = 20
    trace_steps = 20

    def setup(self) -> None:
        from repro.cardinality import HyperLogLog
        from repro.frequency import CountMinSketch
        from repro.obs import MetricsRegistry
        from repro.parallel import SketchSpec
        from repro.store import SketchStore
        from repro.streaming import GroupBySketcher

        ranks = np.arange(1, self.n_sources + 1, dtype=np.float64)
        weights = ranks ** -self.zipf_a
        self.source_p = weights / weights.sum()
        self.meta = MetricsRegistry()
        self.store = SketchStore(self.tmp + "/store", registry=self.meta)
        self.on_close(self.store.close)
        self.groups = GroupBySketcher(source_of, functools.partial(HyperLogLog, p=10, seed=0))
        self.cm_spec = SketchSpec(CountMinSketch, width=2048, depth=4, seed=0)
        self.window = 0
        self.backends: dict[str, int] = {}
        self.fallbacks = 0
        #: small-range sources sampled, and how many missed their interval.
        self.small_checked = 0
        self.small_outside = 0
        self.step()  # warm: hashing kernels, the pool, shared memory
        self.op_s.clear()
        self.work = 0
        self.work_s = 0.0

    def step(self) -> None:
        import repro.parallel
        from repro.parallel import partition_items
        from repro.streaming import StreamPipeline

        with self.span("bench.gen"):
            sources = self.rng.choice(self.n_sources, size=self.records, p=self.source_p)
            dests = self.rng.integers(0, 1 << self.dest_bits, size=self.records)
            keys = (sources.astype(np.int64) << 32) | dests
            records = keys.tolist()
        start, end = T0 + self.window, self.now(self.window)
        with self.span("op.window"):
            t0 = time.perf_counter()
            StreamPipeline(records).feed(self.groups, batch_size=self.records)
            sketches = self.groups.items()
            self.groups.flush_to_store(self.store, "flow_destinations", start, end,
                                       group_label="src")
            cm, report = repro.parallel.parallel_build(
                self.cm_spec, partition_items(dests, 2), workers=2, backend="auto",
                return_report=True,
            )
            elapsed = time.perf_counter() - t0
        self.backends[report.backend] = self.backends.get(report.backend, 0) + 1
        self.fallbacks += report.fallback_reason is not None
        self.check_window(keys, dests, sketches, cm)
        self.window += 1
        if self.window == self.disk_checkpoint:
            self.record_disk()
        self.op_s.append(elapsed)
        self.work += self.records
        self.work_s += elapsed

    def check_window(self, keys, dests, sketches, cm) -> None:
        self.attempted += 1
        with self.span("bench.client"):
            distinct = np.unique(keys)
            exact = np.bincount(distinct >> 32, minlength=self.n_sources)
            small = []
            for source, sketch in sketches:
                truth = int(exact[source])
                if truth < HLL_CHECKED_FROM * sketch.m:
                    small.append((source, sketch))
                    continue
                interval = sketch.estimate_interval(confidence=HLL_CONFIDENCE)
                self.check(interval.lower <= truth <= interval.upper,
                           f"window {self.window}: source {source} has {truth} distinct, "
                           f"HLL interval [{interval.lower:.1f}, {interval.upper:.1f}]")
            # Below that range the interval is not calibrated (linear
            # counting's error is not 1.04/sqrt(m)); sample and report it.
            for index in self.rng.choice(len(small), size=min(32, len(small)), replace=False):
                source, sketch = small[index]
                interval = sketch.estimate_interval(confidence=HLL_CONFIDENCE)
                self.small_checked += 1
                self.small_outside += not interval.lower <= exact[source] <= interval.upper
            self.check(len(sketches) == int(np.count_nonzero(exact)),
                       f"window {self.window}: {len(sketches)} groups")
            self.check(cm.n == len(dests), f"window {self.window}: CountMin n {cm.n}")
            ordered = np.sort(dests)
            probes = np.unique(dests[:64])
            exact_counts = (np.searchsorted(ordered, probes, "right")
                            - np.searchsorted(ordered, probes, "left"))
            under = sum(cm.estimate(int(v)) < int(c) for v, c in zip(probes, exact_counts))
            self.check(under == 0, f"window {self.window}: CountMin underestimates {under}")

    def finish(self) -> None:
        self.attempted += 1
        held = self.store.stats()["windows"]
        self.check(held == self.window, f"store holds {held} of {self.window} windows")

    def metrics(self) -> dict[str, float]:
        return {
            "records_per_s": self.work / self.work_s,
            "windows": self.window,
            "parallel_fallbacks": self.fallbacks,
            "hll_small_range_outside_frac": self.small_outside / max(1, self.small_checked),
            **{f"backend_{name}": n for name, n in sorted(self.backends.items())},
        }


WORKLOADS = {cls.name: cls for cls in (Ingest, History, Live, Flows)}
