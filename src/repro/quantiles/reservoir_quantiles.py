"""Quantiles from a uniform reservoir sample — the naive baseline.

A reservoir of ``k`` samples answers rank queries with standard error
``n/√k`` (additive rank error ~ 1/√k of n), far worse per byte than
GK/KLL — which is exactly the gap experiment E6 plots.  Included
because sampling is the paper's "pre-history" sketch (§2) and because
it is the honest baseline every quantile-sketch evaluation starts from.
"""

from __future__ import annotations

import bisect

from ..core.batch import float_batch
from ..sampling.reservoir import ReservoirSampler
from .base import QuantileSketch

__all__ = ["ReservoirQuantiles"]


class ReservoirQuantiles(QuantileSketch):
    """Quantile queries over a uniform reservoir sample of size ``k``."""

    batch_form = staticmethod(float_batch)

    def __init__(self, k: int = 1024, seed: int = 0) -> None:
        if k < 2:
            raise ValueError(f"sample size k must be >= 2, got {k}")
        self.k = k
        self.seed = seed
        self._reservoir = ReservoirSampler(k=k, seed=seed)
        self.n = 0

    def update(self, value: float) -> None:
        """Offer one value to the reservoir."""
        self._reservoir.update(float(value))
        self.n += 1

    def rank(self, value: float) -> float:
        """Estimated rank: sample rank scaled to the stream size."""
        self._require_data()
        sample = sorted(self._reservoir.sample())
        if not sample:
            return 0.0
        pos = bisect.bisect_right(sample, value)
        return pos / len(sample) * self.n

    def quantile(self, q: float) -> float:
        """Sample order statistic at fraction ``q``."""
        self._check_q(q)
        self._require_data()
        sample = sorted(self._reservoir.sample())
        idx = min(len(sample) - 1, int(q * len(sample)))
        return sample[idx]

    def merge(self, other: "ReservoirQuantiles") -> None:
        """Merge the underlying reservoirs (distribution-preserving)."""
        self._check_mergeable(other, "k")
        self._reservoir.merge(other._reservoir)
        self.n += other.n

    def state_dict(self) -> dict:
        return {
            "k": self.k,
            "seed": self.seed,
            "n": self.n,
            "reservoir": self._reservoir.state_dict(),
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "ReservoirQuantiles":
        sk = cls(k=state["k"], seed=state["seed"])
        sk.n = state["n"]
        sk._reservoir = ReservoirSampler.from_state_dict(state["reservoir"])
        return sk
