"""repro.obs.bench — the unified benchmark harness.

Every ``benchmarks/bench_*.py`` used to roll its own timing loop and
print prose; nothing machine-readable survived a run, so no PR could
prove it didn't regress throughput or blow up sketch memory.  This
module is the single timing implementation the whole repo shares:

- :func:`measure_ns` / :func:`summarize` — warmup + repetition timing
  on ``time.perf_counter_ns`` with statistical summaries (median, IQR,
  bootstrap CI of the median) instead of single-shot numbers;
- :func:`interleaved_ns` / :func:`overhead_estimate` — the
  noise-robust A/B overhead protocol used by the obs/trace overhead
  gates (variants interleaved per round so clock drift hits all arms
  equally; overhead is the *smaller* of the best-of-N ratio and the
  median paired ratio, so one contended round cannot fake a failure);
- :class:`BenchCase` / :class:`BenchRunner` / :class:`BenchResult` —
  a case registry with seeded workloads.  Results carry throughput
  (items/sec, ns/op), the sketch's :meth:`~repro.core.base.Sketch.
  memory_footprint` state bytes, and an optional accuracy metric, and
  serialize to a versioned machine-readable ``BENCH_<run>.json``
  (:func:`payload` / :func:`write_payload` / :func:`load_payload` /
  :func:`validate_payload`) with a host fingerprint and git sha, so
  ``scripts/check_perf_regression.py`` can gate PRs against a
  committed baseline.

Cross-host comparability: absolute ns/op from two machines are not
comparable, so the host fingerprint includes :func:`calibrate` — the
wall time of a fixed reference workload (interpreter-bound loop +
numpy kernel, the two regimes sketch code lives in) measured at run
time.  The regression gate compares *calibration-normalized* ns/op,
which cancels first-order host speed differences.

Memory introspection closes the loop: every sketch answers
:meth:`~repro.core.base.Sketch.memory_footprint` — the state-payload
bytes ``to_bytes()`` would ship, O(1) for array-backed families and
exact serde arithmetic (:func:`repro.core.encoded_nbytes` /
:func:`~repro.core.blob_nbytes`) for the rest; the footprint test
suite holds every mergeable family to within 2x of
``len(to_bytes())``.  Benchmarks record the number per case, and live
deployments surface the identical quantity as a
``repro_sketch_state_bytes`` gauge via
:meth:`~repro.obs.MetricsRegistry.track_state` (weakref-tracked,
re-read at every scrape), so a dashboard and a ``BENCH_*.json`` agree
by construction.
"""

from __future__ import annotations

import json
import math
import os
import platform
import socket
import subprocess
import sys
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

import numpy as np

__all__ = [
    "BenchCase",
    "BenchResult",
    "BenchRunner",
    "CaseContext",
    "DEFAULT_SEED",
    "SCHEMA",
    "SCHEMA_VERSION",
    "calibrate",
    "git_sha",
    "host_fingerprint",
    "interleaved_ns",
    "load_payload",
    "measure_ns",
    "overhead_estimate",
    "payload",
    "run_threaded",
    "summarize",
    "validate_payload",
    "write_payload",
]

#: default workload seed — every generator in a run derives from this
#: (recorded in the payload so a run is reproducible bit-for-bit).
DEFAULT_SEED = 20230

SCHEMA = "repro.bench"
SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# timing primitives (the one implementation everything else calls)
# ---------------------------------------------------------------------------


def measure_ns(
    run: Callable[[Any], Any],
    *,
    repeats: int = 5,
    warmup: int = 1,
    setup: Callable[[], Any] | None = None,
) -> list[int]:
    """Time ``run(state)`` ``repeats`` times, returning per-call ns samples.

    ``setup`` (untimed) builds fresh state before *every* call — warmup
    included — so state-dependent costs (compaction, bucket saturation)
    are identical across samples.  Without ``setup``, ``run`` receives
    ``None``.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    samples: list[int] = []
    for i in range(warmup + repeats):
        state = setup() if setup is not None else None
        start = time.perf_counter_ns()
        run(state)
        elapsed = time.perf_counter_ns() - start
        if i >= warmup:
            samples.append(elapsed)
    return samples


def summarize(
    samples_ns: Iterable[int],
    *,
    n_items: int = 1,
    bootstrap: int = 200,
    bootstrap_seed: int = 0,
) -> dict[str, float]:
    """Statistical summary of timing samples.

    Returns median/IQR and a bootstrap percentile CI (2.5%–97.5%) of
    the median — honest error bars for noisy container hosts — plus the
    derived ``ns_per_op`` and ``items_per_sec`` at ``n_items`` items
    per timed call.  Deterministic: the bootstrap resampler is seeded.
    """
    samples = np.asarray(list(samples_ns), dtype=np.float64)
    if samples.size == 0:
        raise ValueError("summarize requires at least one sample")
    if n_items < 1:
        raise ValueError(f"n_items must be >= 1, got {n_items}")
    median = float(np.median(samples))
    q25, q75 = (float(q) for q in np.percentile(samples, [25.0, 75.0]))
    if samples.size == 1 or bootstrap < 1:
        ci_low = ci_high = median
    else:
        rng = np.random.default_rng(bootstrap_seed)
        draws = rng.integers(0, samples.size, size=(bootstrap, samples.size))
        medians = np.median(samples[draws], axis=1)
        ci_low, ci_high = (
            float(q) for q in np.percentile(medians, [2.5, 97.5])
        )
    return {
        "median_ns": median,
        "iqr_ns": q75 - q25,
        "ci_low_ns": ci_low,
        "ci_high_ns": ci_high,
        "ns_per_op": median / n_items,
        "items_per_sec": n_items / (median * 1e-9),
    }


def interleaved_ns(
    variants: list[tuple],
    *,
    repeats: int = 20,
) -> dict[str, list[int]]:
    """Per-round interleaved timing of several variants.

    ``variants`` is ``[(name, setup_or_None, run)]`` or
    ``[(name, setup, run, teardown)]``; each round times every
    variant's ``run(state)`` once, so slow scheduler drift degrades all
    arms equally.  Round ``i`` starts at variant ``i mod n`` and wraps
    around: in a fixed order the arm that always ran first (after the
    previous round's teardown) read a steady few percent off the others.
    ``setup``/``teardown`` run untimed around each sample (teardown is
    where an overhead check restores a swapped registry or tracer).
    Returns the ns samples per variant, aligned by round (sample ``i``
    of every variant came from the same round —
    :func:`overhead_estimate` relies on that pairing).
    """
    normalized = [(v[0], v[1], v[2], v[3] if len(v) > 3 else None) for v in variants]
    samples: dict[str, list[int]] = {name: [] for name, _, _, _ in normalized}
    if len(samples) != len(normalized):
        raise ValueError("variant names must be unique")
    for i in range(repeats):
        k = i % len(normalized)
        for name, setup, run, teardown in normalized[k:] + normalized[:k]:
            state = setup() if setup is not None else None
            start = time.perf_counter_ns()
            run(state)
            elapsed = time.perf_counter_ns() - start
            if teardown is not None:
                teardown(state)
            samples[name].append(elapsed)
    return samples


def run_threaded(work: Callable[[Any], Any], chunks: Iterable[Any]) -> None:
    """Drive ``work(chunk)`` on one thread per chunk and join them all.

    The timed kernel for multi-threaded bench cases (the
    ``concurrent/*/threadsN`` family): thread startup and join are
    deliberately *inside* the timed region, since a concurrent ingest
    path that only pays off after amortizing thread creation should be
    measured that way.  Worker exceptions propagate to the caller
    (re-raised after all threads are joined) so a crashing kernel
    fails the case instead of silently timing a partial run.
    """
    errors: list[BaseException] = []

    def runner(chunk: Any) -> None:
        try:
            work(chunk)
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            errors.append(exc)

    threads = [
        threading.Thread(target=runner, args=(chunk,)) for chunk in chunks
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def overhead_estimate(variant_ns: Iterable[int], base_ns: Iterable[int]) -> float:
    """Noise-robust relative overhead of a variant vs a base.

    Two estimators that fail differently under scheduler noise: the
    ratio of best-of-N times (robust to per-sample spikes) and the
    median of per-round paired ratios (robust to slow drift).  A real
    regression shows up in both, so take the smaller — a single
    contended round can't produce a false failure.
    """
    variant = list(variant_ns)
    base = list(base_ns)
    if not variant or len(variant) != len(base):
        raise ValueError("need equal, non-empty sample lists (paired by round)")
    best = min(variant) / min(base)
    ratios = sorted(v / b for v, b in zip(variant, base))
    median = ratios[len(ratios) // 2]
    return min(best, median) - 1.0


# ---------------------------------------------------------------------------
# host fingerprint + calibration
# ---------------------------------------------------------------------------


def calibrate(repeats: int = 3) -> float:
    """Reference-workload wall time in ns (best of ``repeats``).

    A fixed job covering the two regimes sketch code runs in — a pure
    interpreter loop and a vectorized numpy kernel — timed on this
    host, right now.  Normalizing a case's ns/op by this number yields
    a host-independent "slowness relative to this machine" score, which
    is what the regression gate compares across hosts.
    """
    rng = np.random.default_rng(12345)
    data = rng.integers(0, 1 << 40, 400_000)

    def job(_):
        acc = 0
        for v in data[:60_000].tolist():  # interpreter-bound arm
            acc ^= (v * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        np.sort(data)  # numpy-bound arm
        np.bincount(data & 0xFFF, minlength=1 << 12)
        return acc

    return float(min(measure_ns(job, repeats=repeats, warmup=1)))


def git_sha(short: bool = False) -> str:
    """The repo's current commit sha, or ``"unknown"`` outside git."""
    cmd = ["git", "rev-parse"] + (["--short"] if short else []) + ["HEAD"]
    try:
        out = subprocess.run(
            cmd,
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def host_fingerprint(calibration_ns: float | None = None) -> dict[str, Any]:
    """Where and on what a run was measured (embedded in the payload)."""
    return {
        "hostname": socket.gethostname(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cpu_count": os.cpu_count() or 1,
        "calibration_ns": calibrate() if calibration_ns is None else calibration_ns,
    }


# ---------------------------------------------------------------------------
# cases, results, runner
# ---------------------------------------------------------------------------


@dataclass
class CaseContext:
    """Per-case execution context handed to ``prepare``.

    ``rng``/``seed`` derive deterministically from the runner seed and
    the case id, so every workload generator in :mod:`repro.workloads`
    (or raw ``default_rng`` use) is seeded from the one ``--seed`` flag
    and two runs with the same seed replay identical streams.
    """

    run_seed: int
    case_id: str
    seed: int = field(init=False)
    rng: np.random.Generator = field(init=False)

    def __post_init__(self) -> None:
        self.seed = (self.run_seed * 0x1000193 + zlib.crc32(self.case_id.encode())) & 0x7FFFFFFF
        self.rng = np.random.default_rng([self.run_seed, zlib.crc32(self.case_id.encode())])


@dataclass
class BenchCase:
    """One registered benchmark: a timed kernel over a seeded workload.

    Lifecycle per run: ``data = prepare(ctx)`` once (untimed, builds
    the workload), then per iteration ``state = setup(data)`` (untimed,
    e.g. a fresh sketch) and ``run(state, data)`` (timed).  After the
    last iteration, ``accuracy(state, data)`` may score the result and
    ``footprint(state, data)`` may report state bytes — the default
    reports ``state.memory_footprint()`` whenever the final state
    object exposes the protocol.
    """

    id: str
    family: str
    run: Callable[[Any, Any], Any]
    prepare: Callable[[CaseContext], Any] | None = None
    setup: Callable[[Any], Any] | None = None
    n_items: int = 1
    params: dict[str, Any] = field(default_factory=dict)
    accuracy: Callable[[Any, Any], float | None] | None = None
    accuracy_metric: str | None = None
    footprint: Callable[[Any, Any], int | None] | None = None
    tags: frozenset[str] = frozenset()
    repeats: int | None = None
    warmup: int | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("BenchCase.id must be non-empty")
        self.tags = frozenset(self.tags)


@dataclass
class BenchResult:
    """One case's measured outcome (a row of ``BENCH_<run>.json``)."""

    case_id: str
    family: str
    params: dict[str, Any]
    n_items: int
    repeats: int
    warmup: int
    seed: int
    samples_ns: list[int]
    median_ns: float
    iqr_ns: float
    ci_low_ns: float
    ci_high_ns: float
    ns_per_op: float
    items_per_sec: float
    state_bytes: int | None = None
    accuracy: float | None = None
    accuracy_metric: str | None = None

    def as_dict(self) -> dict[str, Any]:
        return {
            "case_id": self.case_id,
            "family": self.family,
            "params": dict(self.params),
            "n_items": self.n_items,
            "repeats": self.repeats,
            "warmup": self.warmup,
            "seed": self.seed,
            "samples_ns": list(self.samples_ns),
            "median_ns": self.median_ns,
            "iqr_ns": self.iqr_ns,
            "ci_low_ns": self.ci_low_ns,
            "ci_high_ns": self.ci_high_ns,
            "ns_per_op": self.ns_per_op,
            "items_per_sec": self.items_per_sec,
            "state_bytes": self.state_bytes,
            "accuracy": self.accuracy,
            "accuracy_metric": self.accuracy_metric,
        }

    @classmethod
    def from_dict(cls, row: dict[str, Any]) -> "BenchResult":
        """Revive a result row, tolerating unknown (newer-schema) keys."""
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in row.items() if k in known})


class BenchRunner:
    """A registry of :class:`BenchCase` plus the loop that runs them.

    One runner per process is the normal shape
    (``benchmarks/suite.py`` builds it); ``seed`` is the single
    reproducibility knob — it reaches every workload generator through
    :class:`CaseContext` and is recorded in the payload.
    """

    def __init__(
        self,
        seed: int = DEFAULT_SEED,
        repeats: int = 5,
        warmup: int = 1,
        bootstrap: int = 200,
    ) -> None:
        self.seed = seed
        self.repeats = repeats
        self.warmup = warmup
        self.bootstrap = bootstrap
        self._cases: dict[str, BenchCase] = {}

    # -- registration ----------------------------------------------------

    def register(self, case: BenchCase) -> BenchCase:
        if case.id in self._cases:
            raise ValueError(f"duplicate bench case id {case.id!r}")
        self._cases[case.id] = case
        return case

    def add(self, id: str, family: str, run, **kwargs) -> BenchCase:
        """Shorthand: build and register a :class:`BenchCase`."""
        return self.register(BenchCase(id=id, family=family, run=run, **kwargs))

    @property
    def cases(self) -> list[BenchCase]:
        return [self._cases[cid] for cid in sorted(self._cases)]

    def select(
        self,
        tags: Iterable[str] | None = None,
        ids: Iterable[str] | None = None,
    ) -> list[BenchCase]:
        """Cases matching any of ``tags`` (and/or exact ``ids``)."""
        wanted_tags = set(tags or ())
        wanted_ids = set(ids or ())
        unknown = wanted_ids - set(self._cases)
        if unknown:
            raise KeyError(f"unknown bench case ids: {sorted(unknown)}")
        picked = []
        for case in self.cases:
            if case.id in wanted_ids or (wanted_tags & case.tags):
                picked.append(case)
            elif not wanted_tags and not wanted_ids:
                picked.append(case)
        return picked

    # -- execution -------------------------------------------------------

    def run_case(self, case: BenchCase) -> BenchResult:
        """Execute one case: prepare, warm up, time, summarize."""
        ctx = CaseContext(run_seed=self.seed, case_id=case.id)
        data = case.prepare(ctx) if case.prepare is not None else None
        repeats = case.repeats if case.repeats is not None else self.repeats
        warmup = case.warmup if case.warmup is not None else self.warmup
        state = None

        def one_setup():
            nonlocal state
            state = case.setup(data) if case.setup is not None else None
            return state

        samples = measure_ns(
            lambda st: case.run(st, data),
            repeats=repeats,
            warmup=warmup,
            setup=one_setup,
        )
        stats = summarize(samples, n_items=case.n_items, bootstrap=self.bootstrap)
        state_bytes = self._footprint(case, state, data)
        accuracy = case.accuracy(state, data) if case.accuracy is not None else None
        result = BenchResult(
            case_id=case.id,
            family=case.family,
            params=dict(case.params),
            n_items=case.n_items,
            repeats=repeats,
            warmup=warmup,
            seed=self.seed,
            samples_ns=list(samples),
            state_bytes=state_bytes,
            accuracy=None if accuracy is None else float(accuracy),
            accuracy_metric=case.accuracy_metric,
            **stats,
        )
        self._export_gauges(result)
        return result

    def run(
        self,
        tags: Iterable[str] | None = None,
        ids: Iterable[str] | None = None,
        verbose: bool = False,
    ) -> list[BenchResult]:
        results = []
        for case in self.select(tags=tags, ids=ids):
            result = self.run_case(case)
            if verbose:
                print(
                    f"  {result.case_id}: {result.items_per_sec:,.0f} items/s "
                    f"({result.ns_per_op:,.1f} ns/op, "
                    f"state {result.state_bytes or 0:,} B)"
                )
            results.append(result)
        return results

    @staticmethod
    def _footprint(case: BenchCase, state, data) -> int | None:
        if case.footprint is not None:
            value = case.footprint(state, data)
            return None if value is None else int(value)
        probe = getattr(state, "memory_footprint", None)
        if callable(probe):
            return int(probe())
        return None

    @staticmethod
    def _export_gauges(result: BenchResult) -> None:
        """Mirror state bytes into ``repro_sketch_state_bytes`` when obs is on.

        Live deployments surface the same gauge via
        :meth:`~repro.obs.MetricsRegistry.track_state`, so a dashboard
        and a ``BENCH_*.json`` report the identical number for the
        identical configuration.
        """
        from .registry import STATE, get_registry

        if not STATE.enabled or result.state_bytes is None:
            return
        get_registry().gauge(
            "repro_sketch_state_bytes",
            "Resident sketch state bytes (memory_footprint protocol).",
            sketch=result.family,
            id=result.case_id,
        ).set(result.state_bytes)


# ---------------------------------------------------------------------------
# the versioned BENCH_<run>.json payload
# ---------------------------------------------------------------------------

_REQUIRED_TOP = {
    "schema": str,
    "schema_version": int,
    "run": str,
    "seed": int,
    "git_sha": str,
    "host": dict,
    "config": dict,
    "results": list,
}

_REQUIRED_RESULT = {
    "case_id": str,
    "family": str,
    "params": dict,
    "n_items": int,
    "seed": int,
    "median_ns": (int, float),
    "ns_per_op": (int, float),
    "items_per_sec": (int, float),
}


def payload(
    results: Iterable[BenchResult],
    *,
    run: str,
    seed: int = DEFAULT_SEED,
    config: dict[str, Any] | None = None,
    host: dict[str, Any] | None = None,
    sha: str | None = None,
) -> dict[str, Any]:
    """Assemble the versioned machine-readable run document."""
    return {
        "schema": SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "run": run,
        "seed": seed,
        "created_unix": time.time(),
        "git_sha": git_sha() if sha is None else sha,
        "host": host_fingerprint() if host is None else host,
        "config": dict(config or {}),
        "results": [r.as_dict() for r in results],
    }


def write_payload(path: str, doc: dict[str, Any]) -> str:
    """Write a payload as pretty JSON; returns the path."""
    issues = validate_payload(doc)
    if issues:
        raise ValueError(f"refusing to write invalid payload: {issues[0]}")
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_payload(path: str) -> dict[str, Any]:
    """Load and validate a ``BENCH_*.json``; raises ``ValueError`` if bad."""
    with open(path) as fh:
        doc = json.load(fh)
    issues = validate_payload(doc)
    if issues:
        raise ValueError(f"{path}: {'; '.join(issues)}")
    return doc


def validate_payload(doc: Any) -> list[str]:
    """Schema check, forward-compatible: unknown fields are ignored.

    Only the *required* keys (and their types) are enforced; a payload
    written by a newer minor revision with extra fields still loads.  A
    different major ``schema_version`` is rejected — that is what the
    version field is for.
    """
    issues: list[str] = []
    if not isinstance(doc, dict):
        return ["payload is not a JSON object"]
    for key, kind in _REQUIRED_TOP.items():
        if key not in doc:
            issues.append(f"missing required field {key!r}")
        elif not isinstance(doc[key], kind):
            issues.append(f"field {key!r} has type {type(doc[key]).__name__}")
    if issues:
        return issues
    if doc["schema"] != SCHEMA:
        issues.append(f"schema {doc['schema']!r} is not {SCHEMA!r}")
    if doc["schema_version"] != SCHEMA_VERSION:
        issues.append(
            f"schema_version {doc['schema_version']} is not {SCHEMA_VERSION}"
        )
    calib = doc["host"].get("calibration_ns")
    if not isinstance(calib, (int, float)) or not math.isfinite(calib) or calib <= 0:
        issues.append("host.calibration_ns must be a positive finite number")
    seen: set[str] = set()
    for i, row in enumerate(doc["results"]):
        if not isinstance(row, dict):
            issues.append(f"results[{i}] is not an object")
            continue
        for key, kind in _REQUIRED_RESULT.items():
            if key not in row:
                issues.append(f"results[{i}] missing {key!r}")
            elif not isinstance(row[key], kind) or isinstance(row[key], bool):
                issues.append(f"results[{i}].{key} has type {type(row[key]).__name__}")
        cid = row.get("case_id")
        if isinstance(cid, str):
            if cid in seen:
                issues.append(f"duplicate case_id {cid!r}")
            seen.add(cid)
    return issues
