"""Count Sketch (Charikar, Chen & Farach-Colton 2002).

The paper's hook (§2): *"The Count sketch can be viewed as an
improvement of the AMS sketch, replacing averaging with hashing to
speed up the computation.  Originally proposed for estimating item
frequencies, it has been generalized as the basis of sparse
Johnson-Lindenstrauss transforms"* — and (§3) its origin with academic
visitors to Google working on search data.

A ``d × w`` matrix; row ``j`` adds ``s_j(x)·weight`` to cell
``h_j(x)``, with ``s_j`` a ±1 sign hash.  The point estimate is the
*median* over rows of ``s_j(x)·C[j, h_j(x)]``, giving two-sided error

    |f̂(x) − f(x)|  ≤  3·√(F₂/w)   w.h.p.   (F₂ = Σ f(y)²)

— an **L2** guarantee, stronger than Count-Min's L1 bound on skewed
data for items below the very top (experiment E4's crossover), at the
cost of two-sided error.  Fully turnstile: negative updates fine.
"""

from __future__ import annotations

import math

import numpy as np

from ..core import MergeableSketch
from ..core.batch import canonical_keys, canonical_weights
from ..hashing import HashFamily

__all__ = ["CountSketch"]


class CountSketch(MergeableSketch):
    """Count Sketch frequency estimator (turnstile, two-sided error)."""

    def __init__(self, width: int = 2048, depth: int = 5, seed: int = 0) -> None:
        if width < 2:
            raise ValueError(f"width must be >= 2, got {width}")
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        self.width = width
        self.depth = depth
        self.seed = seed
        self._bucket_hashes = HashFamily(depth, seed)
        self._sign_hashes = HashFamily(depth, seed ^ 0x5CA1AB1E)
        self._table = np.zeros((depth, width), dtype=np.int64)
        self.n = 0

    @classmethod
    def for_error(cls, epsilon: float, delta: float = 0.01, **kwargs) -> "CountSketch":
        """Size for error ≤ ε√F₂ with probability ≥ 1 − δ."""
        if not 0.0 < epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
        width = math.ceil(3.0 / epsilon**2)
        depth = max(1, math.ceil(math.log(1.0 / delta)))
        return cls(width=width, depth=depth, **kwargs)

    def update(self, item: object, weight: int = 1) -> None:
        """Add ``weight`` (may be negative) to ``item``'s frequency."""
        for row in range(self.depth):
            bucket = self._bucket_hashes[row].bucket(item, self.width)
            sign = self._sign_hashes[row].sign(item)
            self._table[row, bucket] += sign * weight
        self.n += weight

    def update_many(self, items, weight: int = 1) -> None:
        """Bulk update; ``weight`` is a scalar or a per-item array.

        Each row scatters ``sign × weight`` over its bucket array with
        ``np.add.at`` — state identical to per-item updates.
        """
        if self._bucket_hashes.family == "murmur3":
            if np.ndim(weight) == 0:
                for item in items:
                    self.update(item, weight)
            else:
                for item, w in zip(items, weight):
                    self.update(item, w)
            return
        keys = canonical_keys(items)
        count = len(keys)
        if count == 0:
            return
        weights = canonical_weights(weight, count)
        for row in range(self.depth):
            buckets = self._bucket_hashes[row].bucket_keys(keys, self.width)
            signs = self._sign_hashes[row].sign_keys(keys)
            np.add.at(self._table[row], buckets, signs * weights)
        self.n += int(weights.sum())

    def estimate(self, item: object) -> int:
        """Median-of-rows point estimate (two-sided error)."""
        values = [
            self._sign_hashes[row].sign(item)
            * self._table[row, self._bucket_hashes[row].bucket(item, self.width)]
            for row in range(self.depth)
        ]
        return int(np.median(values))

    def f2_estimate(self) -> float:
        """Estimate the second frequency moment F₂ = Σ f(x)².

        Each row's squared L2 norm is an unbiased F₂ estimator (the
        AMS connection); take the median across rows.
        """
        row_norms = (self._table.astype(np.float64) ** 2).sum(axis=1)
        return float(np.median(row_norms))

    def inner_product_estimate(self, other: "CountSketch") -> float:
        """Estimate ⟨f, g⟩ via the median of row dot products."""
        self._check_mergeable(other, "width", "depth", "seed")
        dots = (self._table.astype(np.float64) * other._table).sum(axis=1)
        return float(np.median(dots))

    def error_bound(self) -> float:
        """Typical error scale √(F₂/w) (one standard deviation per row)."""
        return math.sqrt(max(0.0, self.f2_estimate()) / self.width)

    def merge(self, other: "CountSketch") -> None:
        """Linear sketch: merge by adding tables."""
        self._check_mergeable(other, "width", "depth", "seed")
        self._table += other._table
        self.n += other.n

    @classmethod
    def _merge_many_impl(cls, parts: list) -> "CountSketch":
        """k-way merge: one summed counter stack (exact, linear).

        Accumulated in place instead of materializing the k-deep 3-D
        stack — the merge is memory-bound and the stack copy would
        double the traffic.
        """
        first = parts[0]
        for other in parts[1:]:
            first._check_mergeable(other, "width", "depth", "seed")
        merged = cls(width=first.width, depth=first.depth, seed=first.seed)
        table = first._table.copy()
        for sk in parts[1:]:
            table += sk._table
        merged._table = table
        merged.n = sum(sk.n for sk in parts)
        return merged

    def memory_footprint(self) -> int:
        """O(1): the depth x width counter table plus serde framing."""
        return 192 + self._table.nbytes

    def state_dict(self) -> dict:
        return {
            "width": self.width,
            "depth": self.depth,
            "seed": self.seed,
            "n": self.n,
            "table": self._table,
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "CountSketch":
        sk = cls(width=state["width"], depth=state["depth"], seed=state["seed"])
        sk.n = state["n"]
        sk._table = state["table"].astype(np.int64)
        return sk
