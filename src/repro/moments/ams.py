"""AMS "tug-of-war" sketch (Alon, Matias & Szegedy 1996).

The paper's hook (§2): *"One key result was their 'tug-of-war' or AMS
sketch, based on maintaining the inner product of the input with
Rademacher random variables (which can be viewed as a small space
version of the Johnson-Lindenstrauss lemma)"* — the result that
*"launched the interest"* in streaming from the algorithmic
perspective.

Each atomic estimator keeps ``Z = Σ_x f(x)·s(x)`` for a ±1 hash ``s``;
``Z²`` is an unbiased estimator of ``F₂ = Σ f(x)²`` with variance
≤ 2F₂² under 4-wise independence.  Averaging groups of estimators and
taking the median of group means (median-of-means) yields an (ε, δ)
guarantee with ``O(1/ε² · log 1/δ)`` counters.

Sign hashes come in two flavours: the default ``family="mix"`` derives
all groups×buckets signs per item from one vectorized SplitMix64 pass
(fast; behaves as fully random), while ``family="kwise4"`` uses the
exactly 4-wise-independent polynomial family the analysis assumes
(slow; kept for the A3 hash ablation and for purists).

The same sketch estimates inner products ⟨f, g⟩ between two streams —
the join-size estimation application that endeared AMS to databases.
"""

from __future__ import annotations

import numpy as np

from ..core import Estimate, MergeableSketch
from ..core.batch import KeyedBatch, canonical_keys, canonical_weights
from ..hashing import FourWiseHash, item_to_u64, splitmix64_array

__all__ = ["AMSSketch"]


class AMSSketch(MergeableSketch):
    """Tug-of-war F₂ estimator with median-of-means aggregation.

    Parameters
    ----------
    buckets:
        Estimators per group (averaging; controls variance: ε ≈ √(2/buckets)).
    groups:
        Number of groups (median; controls confidence: δ ≈ e^−groups/6).
    seed:
        Hash seed; equal seeds ⇒ mergeable and inner-product-comparable.
    """

    batch_form = KeyedBatch

    def __init__(
        self,
        buckets: int = 64,
        groups: int = 5,
        seed: int = 0,
        family: str = "mix",
    ) -> None:
        if buckets < 1:
            raise ValueError(f"buckets must be >= 1, got {buckets}")
        if groups < 1:
            raise ValueError(f"groups must be >= 1, got {groups}")
        if family not in ("mix", "kwise4"):
            raise ValueError(f"family must be 'mix' or 'kwise4', got {family!r}")
        self.buckets = buckets
        self.groups = groups
        self.seed = seed
        self.family = family
        if family == "kwise4":
            self._signs = [
                [FourWiseHash(seed ^ (g << 20) ^ b) for b in range(buckets)]
                for g in range(groups)
            ]
            self._mixed_seeds = None
        else:
            self._signs = None
            # One pre-mixed 64-bit seed per estimator; per-item signs are
            # splitmix64(mixed_seed ^ key) & 1, all in one numpy pass.
            estimator_ids = np.arange(groups * buckets, dtype=np.uint64)
            self._mixed_seeds = splitmix64_array(
                estimator_ids, seed=seed ^ 0x7AF5
            )
        self._z = np.zeros((groups, buckets), dtype=np.int64)
        self.n = 0

    def update(self, item: object, weight: int = 1) -> None:
        """Apply a (possibly negative) frequency update."""
        key = item_to_u64(item)
        if self._mixed_seeds is not None:
            hashes = splitmix64_array(self._mixed_seeds ^ np.uint64(key))
            signs = (
                (hashes & np.uint64(1)).astype(np.int64) * 2 - 1
            ).reshape(self.groups, self.buckets)
            self._z += signs * weight
        else:
            for g in range(self.groups):
                row = self._signs[g]
                for b in range(self.buckets):
                    self._z[g, b] += row[b].sign(key) * weight
        self.n += weight

    def update_many(self, items, weight: int = 1) -> None:
        """Bulk update; ``weight`` is a scalar or a per-item array.

        For the ``"mix"`` family the whole estimators × items sign
        matrix is one vectorized SplitMix64 pass per chunk, folded into
        the counters as a sign-matrix · weight-vector product — exact
        integer arithmetic, so state matches per-item updates.
        """
        keys = canonical_keys(items)
        count = len(keys)
        if count == 0:
            return
        weights = canonical_weights(weight, count)
        if self._mixed_seeds is None:  # kwise4: per-key scalar loop
            for key, w in zip(keys.tolist(), weights.tolist()):
                for g in range(self.groups):
                    row = self._signs[g]
                    for b in range(self.buckets):
                        self._z[g, b] += row[b].sign(key) * w
            self.n += int(weights.sum())
            return
        # Chunk so the (estimators × items) temporaries stay cache-sized
        # (~64k elements): the hash pass is memory-bound, and large
        # chunks thrash through multi-MB intermediates.
        n_estimators = self.groups * self.buckets
        chunk = max(1, (1 << 16) // n_estimators)
        seeds = self._mixed_seeds[:, None]
        for start in range(0, count, chunk):
            keys_c = keys[start : start + chunk]
            hashes = splitmix64_array(seeds ^ keys_c[None, :])
            signs = (hashes & np.uint64(1)).astype(np.int64) * 2 - 1
            self._z += (signs @ weights[start : start + chunk]).reshape(
                self.groups, self.buckets
            )
        self.n += int(weights.sum())

    def f2_estimate(self) -> float:
        """Median-of-means estimate of F₂."""
        squares = self._z.astype(np.float64) ** 2
        return float(np.median(squares.mean(axis=1)))

    def f2_interval(self, confidence: float = 0.95) -> Estimate:
        """F₂ estimate with a Chebyshev-style interval from the variance bound."""
        value = self.f2_estimate()
        rel = (2.0 / self.buckets) ** 0.5
        k = 1.0 / (1.0 - confidence) ** 0.5
        spread = value * rel * min(k, 3.0)
        return Estimate(value, max(0.0, value - spread), value + spread, confidence)

    def l2_estimate(self) -> float:
        """Estimated Euclidean norm of the frequency vector."""
        return self.f2_estimate() ** 0.5

    def inner_product_estimate(self, other: "AMSSketch") -> float:
        """Median-of-means estimate of ⟨f, g⟩ (join size for indicator streams)."""
        self._check_mergeable(other, "buckets", "groups", "seed", "family")
        products = self._z.astype(np.float64) * other._z
        return float(np.median(products.mean(axis=1)))

    @property
    def relative_error(self) -> float:
        """Typical relative error √(2/buckets)."""
        return (2.0 / self.buckets) ** 0.5

    def merge(self, other: "AMSSketch") -> None:
        """Linear sketch: merge by adding counters."""
        self._check_mergeable(other, "buckets", "groups", "seed", "family")
        self._z += other._z
        self.n += other.n

    @classmethod
    def _merge_many_impl(cls, parts: list) -> "AMSSketch":
        """k-way merge: one summed counter stack, accumulated in place."""
        first = parts[0]
        for other in parts[1:]:
            first._check_mergeable(other, "buckets", "groups", "seed", "family")
        merged = cls(
            buckets=first.buckets,
            groups=first.groups,
            seed=first.seed,
            family=first.family,
        )
        z = first._z.copy()
        for sk in parts[1:]:
            z += sk._z
        merged._z = z
        merged.n = sum(sk.n for sk in parts)
        return merged

    def state_dict(self) -> dict:
        return {
            "buckets": self.buckets,
            "groups": self.groups,
            "seed": self.seed,
            "family": self.family,
            "n": self.n,
            "z": self._z,
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "AMSSketch":
        sk = cls(
            buckets=state["buckets"],
            groups=state["groups"],
            seed=state["seed"],
            family=state.get("family", "mix"),
        )
        sk.n = state["n"]
        sk._z = state["z"].astype(np.int64)
        return sk
