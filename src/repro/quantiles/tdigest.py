"""t-digest (Dunning & Ertl) — merging-buffer variant.

The paper's hook (§3, big-data era): *"New algorithms for the core
problems of heavy hitters, quantiles, and count distinct were
developed (e.g., the KLL algorithm, the t-digest summary) and made
available via libraries"*.

The t-digest clusters values into centroids whose maximum weight is
governed by the scale function ``k₁(q) = (δ/2π)·asin(2q−1)``: clusters
near the median may be large, clusters at the tails must stay tiny.
The result is *relative* accuracy at extreme quantiles (q → 0, 1),
which is why monitoring systems adopted it for latency percentiles.

This is the "merging" variant: updates buffer, and compaction
merge-sorts buffer + centroids, re-clustering greedily under the scale
constraint.  Merging two digests concatenates centroid lists and
compacts — mergeable in the E7 sense (accuracy degrades gracefully,
not catastrophically).
"""

from __future__ import annotations

import math

from ..core.batch import float_batch
from .base import QuantileSketch

__all__ = ["TDigest"]


class TDigest(QuantileSketch):
    """Merging t-digest with compression parameter ``delta``."""

    batch_form = staticmethod(float_batch)

    def __init__(self, delta: float = 100.0, buffer_size: int = 512) -> None:
        if delta < 10:
            raise ValueError(f"delta must be >= 10, got {delta}")
        if buffer_size < 16:
            raise ValueError(f"buffer_size must be >= 16, got {buffer_size}")
        self.delta = float(delta)
        self.buffer_size = buffer_size
        self._centroids: list[tuple[float, float]] = []  # (mean, weight) sorted
        self._buffer: list[tuple[float, float]] = []
        # ``_compacted()`` for queries until the next update or merge: a
        # query that compacted in place would change later centroids.
        self._view: list[tuple[float, float]] | None = None
        self.n = 0
        self._min = math.inf
        self._max = -math.inf

    # -- scale function --------------------------------------------------------

    def _k(self, q: float) -> float:
        """Scale function k₁(q) = (δ/2π)·asin(2q−1)."""
        q = min(1.0, max(0.0, q))
        return (self.delta / (2.0 * math.pi)) * math.asin(2.0 * q - 1.0)

    # -- updates ------------------------------------------------------------------

    def update(self, value: float, weight: float = 1.0) -> None:
        """Insert ``value`` with positive ``weight``."""
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        value = float(value)
        self._buffer.append((value, weight))
        self._view = None
        self.n += weight
        self._min = min(self._min, value)
        self._max = max(self._max, value)
        if len(self._buffer) >= self.buffer_size:
            self._compact()

    def _compact(self) -> None:
        """Merge buffer into centroids under the scale-function constraint."""
        self._centroids = self._compacted()
        self._buffer = []
        self._view = None

    def _compacted(self) -> list[tuple[float, float]]:
        """The centroids :meth:`_compact` would leave, without assigning them."""
        pending = sorted(self._centroids + self._buffer, key=lambda cw: cw[0])
        if not pending:
            return []
        total = sum(w for _, w in pending)
        out: list[tuple[float, float]] = []
        cur_mean, cur_weight = pending[0]
        acc = 0.0  # weight strictly before the current cluster
        for mean, weight in pending[1:]:
            q0 = acc / total
            q1 = (acc + cur_weight + weight) / total
            if self._k(q1) - self._k(q0) <= 1.0:
                # Absorb into the current cluster.
                merged = cur_weight + weight
                cur_mean += (mean - cur_mean) * weight / merged
                cur_weight = merged
            else:
                out.append((cur_mean, cur_weight))
                acc += cur_weight
                cur_mean, cur_weight = mean, weight
        out.append((cur_mean, cur_weight))
        return out

    def _query_view(self) -> list[tuple[float, float]]:
        """:meth:`_compacted`, computed once between updates, never assigned."""
        if self._view is None:
            self._view = self._compacted()
        return self._view

    # -- queries ----------------------------------------------------------------------

    def quantile(self, q: float) -> float:
        """Interpolated value at normalized rank q."""
        self._check_q(q)
        self._require_data()
        centroids = self._query_view()
        if len(centroids) == 1:
            return centroids[0][0]
        target = q * self.n
        acc = 0.0
        for i, (mean, weight) in enumerate(centroids):
            if acc + weight / 2.0 >= target:
                if i == 0:
                    lo_mean, lo_rank = self._min, 0.0
                else:
                    prev_mean, prev_weight = centroids[i - 1]
                    lo_mean = prev_mean
                    lo_rank = acc - prev_weight / 2.0
                hi_mean, hi_rank = mean, acc + weight / 2.0
                if hi_rank == lo_rank:
                    return mean
                frac = (target - lo_rank) / (hi_rank - lo_rank)
                return lo_mean + frac * (hi_mean - lo_mean)
            acc += weight
        return self._max

    def rank(self, value: float) -> float:
        """Estimated number of items ≤ value (interpolated)."""
        self._require_data()
        if value < self._min:
            return 0.0
        if value >= self._max:
            return float(self.n)
        acc = 0.0
        prev_mean, prev_weight = self._min, 0.0
        prev_mid_rank = 0.0
        for mean, weight in self._query_view():
            mid_rank = acc + weight / 2.0
            if value < mean:
                if mean == prev_mean:
                    return mid_rank
                frac = (value - prev_mean) / (mean - prev_mean)
                return prev_mid_rank + frac * (mid_rank - prev_mid_rank)
            acc += weight
            prev_mean, prev_weight = mean, weight
            prev_mid_rank = mid_rank
        return float(self.n)

    @property
    def size(self) -> int:
        """Number of centroids once the buffer is compacted (not in place)."""
        return len(self._query_view())

    @property
    def min(self) -> float:
        """Exact minimum seen."""
        return self._min

    @property
    def max(self) -> float:
        """Exact maximum seen."""
        return self._max

    def merge(self, other: "TDigest") -> None:
        """Merge by pooling centroids and compacting."""
        self._check_mergeable(other, "delta")
        self._buffer.extend(other._centroids)
        self._buffer.extend(other._buffer)
        self.n += other.n
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        self._compact()

    def state_dict(self) -> dict:
        # Serializing or pricing a digest must not change it: the blob
        # holds the compacted centroids, the digest keeps its buffer.
        return {
            "delta": self.delta,
            "buffer_size": self.buffer_size,
            "n": self.n,
            "min": self._min if self.n else None,
            "max": self._max if self.n else None,
            "centroids": [list(c) for c in self._query_view()],
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "TDigest":
        sk = cls(delta=state["delta"], buffer_size=state["buffer_size"])
        sk.n = state["n"]
        sk._min = state["min"] if state["min"] is not None else math.inf
        sk._max = state["max"] if state["max"] is not None else -math.inf
        sk._centroids = [tuple(c) for c in state["centroids"]]
        return sk
