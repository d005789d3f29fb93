"""Online accuracy auditing: does the sketch honor its error bound?

"Statistical properties of sketching algorithms" asks when the
advertised bounds are tight; "Sketchy With a Chance of Adoption" argues
operators won't deploy sketches they cannot *verify* on live traffic.
:class:`AccuracyAuditor` is that verification loop: it shadows a
production sketch with a small exact (or exactly-counted sampled)
substream, periodically compares the sketch's estimates against the
shadow, and reports whether the observed error sits inside the
family's theoretical bound.

Three audit kinds, auto-detected from the wrapped sketch's query
surface:

``"cardinality"`` (HyperLogLog & friends — ``estimate()`` +
    ``relative_standard_error``)
    The shadow keeps an **exact distinct count of a hash-sampled
    substream**: items hash through a 64-bit mixer, values under an
    adaptive threshold land in an exact set, and the distinct estimate
    is ``|set| / rate``.  Hash-sampling samples *distinct values* (not
    stream positions), so the scaled count is an unbiased cardinality
    reference with relative error ≈ 1/√|set|; the threshold halves
    whenever the set outgrows ``distinct_cap``, keeping memory bounded.
``"frequency"`` (Count-Min / Count Sketch — per-item ``estimate`` +
    ``error_bound``)
    The shadow keeps **exact counters for the first ``track_keys``
    distinct keys** (adopted on the auditor's first batch, counted
    exactly from then on — zero sampling noise) and compares each
    tracked key's sketch estimate against its exact count.
``"rank"`` (KLL / REQ — ``quantile`` + ``rank``)
    The shadow is a uniform :class:`~repro.sampling.ReservoirSampler`
    substream; at each check the sketch's quantiles are scored by
    their empirical rank in the sample over a grid of q values.

Every :meth:`check` emits ``repro_audit_observed_error`` /
``repro_audit_error_bound`` gauges, a ``repro_audit_checks_total``
counter, and — when the observed error exceeds the bound —
``repro_audit_bound_violations_total`` (all labelled by sketch class
and audit kind) into the metrics registry when :mod:`repro.obs` is
enabled.  :meth:`healthy` is the operational verdict (the ``/healthz``
payload of :class:`~repro.obs.ObsServer`): True while the most recent
check stayed inside the bound.

The bound each family is held to combines the sketch's own guarantee
with the shadow's sampling noise at ``z`` standard deviations, so an
honest sketch passes with margin while a corrupted one (the injected
broken-register HLL of the A8 experiment) is flagged within one check.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any

from .registry import STATE as _OBS
from .registry import MetricsRegistry, get_registry
from .trace import op_span

__all__ = ["AccuracyAuditor", "AuditCheck"]

#: quantile grid scored by the rank audit.
RANK_GRID = (0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95)


@dataclass
class AuditCheck:
    """The outcome of one audit comparison."""

    kind: str
    n: int
    observed_error: float
    bound: float
    violated: bool
    details: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "n": self.n,
            "observed_error": self.observed_error,
            "bound": self.bound,
            "violated": self.violated,
            "details": dict(self.details),
        }


class AccuracyAuditor:
    """Shadow a sketch with ground truth and audit its error bound online.

    Parameters
    ----------
    sketch:
        The sketch under audit.  Feed the *auditor* (its
        ``update``/``update_many`` forward to the sketch) so the shadow
        sees exactly the same stream.
    kind:
        ``"cardinality"``, ``"frequency"``, ``"rank"``, or None to
        auto-detect from the sketch's query surface.
    check_every:
        Run :meth:`check` automatically after this many items (0
        disables auto-checks; call :meth:`check` yourself).
    sample_k:
        Reservoir size for the rank shadow.
    track_keys:
        Exact-counter budget for the frequency shadow.
    distinct_cap:
        Exact-set budget for the cardinality shadow (the sampling
        threshold halves when exceeded).
    z:
        How many shadow standard deviations of slack the bound gets on
        top of the sketch's own guarantee.
    confidence:
        Target confidence for per-family bounds that accept one
        (Bonferroni-corrected across tracked keys for frequency).
    registry:
        Metrics sink when :mod:`repro.obs` is enabled; defaults to the
        process-global registry.
    seed:
        Seed for the shadow's reservoir and hash sampling.
    """

    def __init__(
        self,
        sketch,
        kind: str | None = None,
        check_every: int = 100_000,
        sample_k: int = 4096,
        track_keys: int = 256,
        distinct_cap: int = 8192,
        z: float = 4.0,
        confidence: float = 0.999,
        registry: MetricsRegistry | None = None,
        seed: int = 0,
    ) -> None:
        self.sketch = sketch
        self.kind = kind if kind is not None else self._detect(sketch)
        if self.kind not in ("cardinality", "frequency", "rank"):
            raise ValueError(f"unknown audit kind {self.kind!r}")
        if check_every < 0:
            raise ValueError(f"check_every must be >= 0, got {check_every}")
        self.check_every = check_every
        self.z = float(z)
        self.confidence = float(confidence)
        self.seed = seed
        self._obs_registry = registry
        self.n = 0
        self._since_check = 0
        #: every AuditCheck run so far (bounded; oldest dropped).
        self.history: list[AuditCheck] = []
        self.max_history = 256
        self.checks_run = 0
        self.violations = 0
        if self.kind == "rank":
            # Local import: repro.obs loads during repro.core's own
            # import, before repro.sampling exists (the reservoir is
            # itself a Sketch).
            from ..sampling.reservoir import ReservoirSampler

            self._reservoir = ReservoirSampler(k=sample_k, seed=seed)
        elif self.kind == "frequency":
            self.track_keys = track_keys
            self._tracked: dict[Any, int] = {}
            self._keys_frozen = False
        else:  # cardinality
            self.distinct_cap = distinct_cap
            self._shift = 0  # sampling rate = 2^-shift
            self._distinct: set[int] = set()

    # -- kind detection --------------------------------------------------------

    @staticmethod
    def _detect(sketch) -> str:
        """Classify a sketch by its query surface (rank → card → freq)."""
        if hasattr(sketch, "quantile") and hasattr(sketch, "rank"):
            return "rank"
        if hasattr(sketch, "relative_standard_error") and hasattr(sketch, "estimate"):
            return "cardinality"
        if hasattr(sketch, "error_bound") and hasattr(sketch, "estimate"):
            return "frequency"
        raise TypeError(
            f"cannot audit {type(sketch).__name__}: no quantile/rank, "
            "relative_standard_error, or error_bound query surface"
        )

    # -- ingestion -------------------------------------------------------------

    def update(self, item) -> None:
        """Feed one item to the sketch and the shadow."""
        self.sketch.update(item)
        self._shadow([item])
        self.n += 1
        self._since_check += 1
        self._maybe_check()

    def update_many(self, items) -> None:
        """Feed a batch to the sketch (vectorized path) and the shadow."""
        try:
            n = len(items)
        except TypeError:
            items = list(items)
            n = len(items)
        self.sketch.update_many(items)
        self._shadow(items)
        self.n += n
        self._since_check += n
        self._maybe_check()

    def _maybe_check(self) -> None:
        if self.check_every and self._since_check >= self.check_every:
            self.check()

    # -- shadows ---------------------------------------------------------------

    def _shadow(self, items) -> None:
        if self.kind == "rank":
            self._reservoir.update_many(items)
        elif self.kind == "frequency":
            self._shadow_frequency(items)
        else:
            self._shadow_cardinality(items)

    def _shadow_frequency(self, items) -> None:
        import numpy as np

        if isinstance(items, np.ndarray):
            uniques, counts = np.unique(items, return_counts=True)
            pairs = zip(uniques.tolist(), counts.tolist())
        else:
            from collections import Counter

            pairs = Counter(items).items()
        tracked = self._tracked
        if not self._keys_frozen:
            # Adopt audit keys from the first batch only: a key adopted
            # mid-stream would miss its earlier occurrences and the
            # "exact" count would under-report, manufacturing phantom
            # sketch error.
            for key, count in pairs:
                if len(tracked) < self.track_keys:
                    tracked[key] = tracked.get(key, 0) + int(count)
                else:
                    break
            self._keys_frozen = True
            return
        for key, count in pairs:
            if key in tracked:
                tracked[key] += int(count)

    def _shadow_cardinality(self, items) -> None:
        import numpy as np

        from ..core.batch import canonical_keys
        from ..hashing.mixers import splitmix64_array

        keys = canonical_keys(items)
        if len(keys) == 0:
            return
        hashed = splitmix64_array(keys, seed=(self.seed or 0x9E3779B97F4A7C15))
        threshold = np.uint64(0xFFFFFFFFFFFFFFFF >> self._shift)
        sampled = hashed[hashed <= threshold]
        self._distinct.update(sampled.tolist())
        while len(self._distinct) > self.distinct_cap:
            self._shift += 1
            cutoff = 0xFFFFFFFFFFFFFFFF >> self._shift
            self._distinct = {h for h in self._distinct if h <= cutoff}

    # -- checks ----------------------------------------------------------------

    def check(self) -> AuditCheck:
        """Compare sketch vs shadow now; record metrics and the verdict."""
        self._since_check = 0
        name = f"audit.check.{self.kind}"
        with op_span(name, sketch=type(self.sketch).__name__) as span:
            if self.kind == "rank":
                observed, bound, details = self._check_rank()
            elif self.kind == "frequency":
                observed, bound, details = self._check_frequency()
            else:
                observed, bound, details = self._check_cardinality()
        details["check_seconds"] = span.duration
        result = AuditCheck(
            kind=self.kind,
            n=self.n,
            observed_error=observed,
            bound=bound,
            violated=observed > bound,
            details=details,
        )
        self.checks_run += 1
        if result.violated:
            self.violations += 1
        self.history.append(result)
        if len(self.history) > self.max_history:
            del self.history[: -self.max_history]
        if _OBS.enabled:
            self._emit(result)
        return result

    def _check_cardinality(self) -> tuple[float, float, dict]:
        estimate = float(self.sketch.estimate())
        kept = len(self._distinct)
        exact = kept * float(1 << self._shift)
        if exact <= 0:
            return 0.0, 1.0, {"estimate": estimate, "exact": 0.0}
        observed = abs(estimate - exact) / exact
        sketch_rse = float(getattr(self.sketch, "relative_standard_error", 0.02))
        shadow_rse = 1.0 / math.sqrt(max(kept, 1))
        bound = self.z * math.hypot(sketch_rse, shadow_rse)
        return observed, bound, {
            "estimate": estimate,
            "exact": exact,
            "sampled_distinct": kept,
            "sample_shift": self._shift,
        }

    def _check_frequency(self) -> tuple[float, float, dict]:
        if not self._tracked or self.n == 0:
            return 0.0, 1.0, {"tracked_keys": 0}
        worst = 0.0
        worst_key = None
        for key, exact in self._tracked.items():
            err = abs(float(self.sketch.estimate(key)) - exact)
            if err > worst:
                worst = err
                worst_key = key
        observed = worst / self.n
        m = len(self._tracked)
        # Bonferroni: the per-key confidence that makes "every tracked
        # key inside the bound" hold at self.confidence overall.
        per_key = 1.0 - (1.0 - self.confidence) / m
        try:
            bound_abs = float(self.sketch.error_bound(confidence=per_key))
        except TypeError:
            # Families whose error_bound() takes no confidence (e.g.
            # Count Sketch's variance bound): give it z-sigma slack.
            bound_abs = float(self.sketch.error_bound()) * self.z
        return observed, bound_abs / self.n, {
            "tracked_keys": m,
            "worst_key": repr(worst_key),
            "worst_abs_error": worst,
        }

    def _check_rank(self) -> tuple[float, float, dict]:
        from ..quantiles.kll import rank_epsilon

        sample = sorted(float(v) for v in self._reservoir.sample())
        k = len(sample)
        if k == 0 or getattr(self.sketch, "n", 0) == 0:
            return 0.0, 1.0, {"sample_size": 0}
        worst = 0.0
        worst_q = None
        for q in RANK_GRID:
            x = float(self.sketch.quantile(q))
            empirical = bisect_right(sample, x) / k
            err = abs(empirical - q)
            if err > worst:
                worst = err
                worst_q = q
        sketch_eps = rank_epsilon(int(getattr(self.sketch, "k", 200)))
        shadow_eps = self.z * 0.5 / math.sqrt(k)
        bound = sketch_eps + shadow_eps
        return worst, bound, {
            "sample_size": k,
            "worst_q": worst_q,
            "sketch_epsilon": sketch_eps,
        }

    # -- reporting -------------------------------------------------------------

    def _emit(self, result: AuditCheck) -> None:
        registry = self._obs_registry
        if registry is None:
            registry = get_registry()
        labels = {"sketch": type(self.sketch).__name__, "kind": self.kind}
        registry.gauge(
            "repro_audit_observed_error",
            "Observed sketch error vs the exact shadow at the last check.",
            **labels,
        ).set(result.observed_error)
        registry.gauge(
            "repro_audit_error_bound",
            "Theoretical (plus shadow-noise) bound the sketch is held to.",
            **labels,
        ).set(result.bound)
        registry.counter(
            "repro_audit_checks_total", "Audit comparisons run.", **labels
        ).inc()
        if result.violated:
            registry.counter(
                "repro_audit_bound_violations_total",
                "Audit checks whose observed error exceeded the bound.",
                **labels,
            ).inc()

    @property
    def last_check(self) -> AuditCheck | None:
        """The most recent :class:`AuditCheck` (None before any check)."""
        return self.history[-1] if self.history else None

    def healthy(self) -> bool:
        """Operational verdict: did the latest check stay inside the bound?

        True before any check has run (no evidence of a violation).
        """
        last = self.last_check
        return last is None or not last.violated

    def verdict(self) -> dict[str, Any]:
        """Plain-data health summary (the ``/healthz`` payload entry)."""
        last = self.last_check
        return {
            "sketch": type(self.sketch).__name__,
            "kind": self.kind,
            "n": self.n,
            "checks": self.checks_run,
            "violations": self.violations,
            "healthy": self.healthy(),
            "observed_error": last.observed_error if last else None,
            "bound": last.bound if last else None,
        }

    def __repr__(self) -> str:
        return (
            f"AccuracyAuditor({type(self.sketch).__name__}, kind={self.kind}, "
            f"n={self.n}, checks={self.checks_run}, "
            f"healthy={self.healthy()})"
        )
