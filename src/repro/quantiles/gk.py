"""Greenwald–Khanna quantile summary (SIGMOD 2001).

The paper's hook (§2): *"Greenwald and Khanna presented and analyzed a
streaming algorithm for quantiles that obtained logarithmic space."*

The summary is a sorted list of tuples ``(v, g, Δ)``:

- ``v`` — a value seen in the stream;
- ``g`` — gap: min-rank(v) = Σ g up to and including this tuple;
- ``Δ`` — max-rank(v) − min-rank(v).

The invariant ``g + Δ ≤ 2εn`` guarantees every rank query is answered
within ``εn``.  COMPRESS merges adjacent tuples whose combined span
stays within budget.

GK is *not* cleanly mergeable with preserved ε (the paper's "From
streaming to mergeable" theme: this is exactly the gap KLL closed).
``merge`` here concatenates summaries and recompresses, which doubles
the worst-case error bound — documented and tested as such.
"""

from __future__ import annotations

import bisect
import math

from ..core.batch import float_batch
from .base import QuantileSketch

__all__ = ["GKSketch"]


class GKSketch(QuantileSketch):
    """Greenwald–Khanna ε-approximate quantile summary."""

    batch_form = staticmethod(float_batch)

    def __init__(self, epsilon: float = 0.01) -> None:
        if not 0.0 < epsilon < 0.5:
            raise ValueError(f"epsilon must be in (0, 0.5), got {epsilon}")
        self.epsilon = epsilon
        # tuples (v, g, delta), sorted by v
        self._tuples: list[tuple[float, int, int]] = []
        self.n = 0
        self._compress_every = max(1, int(1.0 / (2.0 * epsilon)))

    def update(self, value: float) -> None:
        """Insert one value."""
        value = float(value)
        self.n += 1
        tuples = self._tuples
        idx = bisect.bisect_left(tuples, (value, -1, -1))
        if idx == 0 or idx == len(tuples):
            # New min or max: must be exact (Δ = 0).
            tuples.insert(idx, (value, 1, 0))
        else:
            # Δ for an interior insert: allowed slack at current n.
            delta = max(0, int(math.floor(2.0 * self.epsilon * self.n)) - 1)
            tuples.insert(idx, (value, 1, delta))
        if self.n % self._compress_every == 0:
            self._compress()

    def _compress(self) -> None:
        """Merge adjacent tuples while g_i + g_{i+1} + Δ_{i+1} ≤ 2εn."""
        if len(self._tuples) < 3:
            return
        budget = 2.0 * self.epsilon * self.n
        out = [self._tuples[0]]
        for v, g, delta in self._tuples[1:]:
            pv, pg, pdelta = out[-1]
            # Never merge away the first/last tuple's exactness; interior
            # merge folds the previous tuple into the current one.
            if len(out) > 1 and pg + g + delta <= budget:
                out[-1] = (v, pg + g, delta)
            else:
                out.append((v, g, delta))
        self._tuples = out

    def rank(self, value: float) -> float:
        """Estimated rank: midpoint of the bracketing min/max ranks."""
        self._require_data()
        rmin = 0
        for v, g, delta in self._tuples:
            if v > value:
                return rmin
            rmin += g
        return rmin

    def quantile(self, q: float) -> float:
        """Value whose max-rank is within εn of the target rank."""
        self._check_q(q)
        self._require_data()
        target = q * self.n
        slack = self.epsilon * self.n
        rmin = 0
        prev_v = self._tuples[0][0]
        for v, g, delta in self._tuples:
            rmin += g
            rmax = rmin + delta
            if rmax > target + slack:
                return prev_v
            prev_v = v
        return self._tuples[-1][0]

    @property
    def size(self) -> int:
        """Number of stored tuples."""
        return len(self._tuples)

    def error_bound(self) -> float:
        """Guaranteed rank error εn."""
        return self.epsilon * self.n

    def merge(self, other: "GKSketch") -> None:
        """Concatenate-and-compress merge (error grows to ~2ε; see docstring)."""
        self._check_mergeable(other, "epsilon")
        combined = sorted(
            self._tuples + other._tuples, key=lambda t: t[0]
        )
        self._tuples = combined
        self.n += other.n
        self._compress()

    def state_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "n": self.n,
            "tuples": [list(t) for t in self._tuples],
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "GKSketch":
        sk = cls(epsilon=state["epsilon"])
        sk.n = state["n"]
        sk._tuples = [tuple(t) for t in state["tuples"]]
        return sk
