"""K-Minimum-Values / theta sketch with full set algebra.

KMV (Bar-Yossef et al. 2002; productionized as the DataSketches "theta
sketch", the flagship of the Yahoo project the paper credits with
easing adoption) keeps the ``k`` smallest hash values of the input,
mapped to (0, 1].  If the k-th smallest is ``θ``, the cardinality
estimate is ``(k − 1)/θ`` (unbiased).

Unlike HLL, KMV supports a clean *set algebra*: union (merge the value
sets, re-trim to k), intersection and difference (restrict both sides
to values below the common θ and count sample overlap).  That is what
powers the ad-tech "slice and dice" analyses of experiment E10.

Relative standard error ≈ 1/√(k−2).
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from ..core import Estimate, MergeableSketch, z_score
from ..core.batch import KeyedBatch, canonical_keys
from ..hashing import HashFunction

__all__ = ["KMVSketch"]

_TWO64 = float(1 << 64)


class KMVSketch(MergeableSketch):
    """Bottom-k sketch of unit-interval hash values.

    Internally a max-heap of the k smallest values so far, plus a set
    for O(1) duplicate detection.
    """

    batch_form = KeyedBatch

    def __init__(self, k: int = 256, seed: int = 0) -> None:
        if k < 8:
            raise ValueError(f"k must be >= 8, got {k}")
        self.k = k
        self.seed = seed
        self._hash = HashFunction(seed)
        self._heap: list[float] = []  # max-heap via negation
        self._members: set[float] = set()

    # -- updates -----------------------------------------------------------

    def update(self, item: object) -> None:
        """Observe ``item``."""
        value = (self._hash.hash64(item) + 1) / _TWO64  # (0, 1]
        if value in self._members:
            return
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, -value)
            self._members.add(value)
        elif value < -self._heap[0]:
            evicted = -heapq.heappushpop(self._heap, -value)
            self._members.discard(evicted)
            self._members.add(value)

    def update_many(self, items) -> None:
        """Bulk update: hash the batch, keep the k smallest distinct values.

        The retained set is order-independent (always the k smallest
        distinct hash values observed), so one ``np.unique`` pass over
        old ∪ new reproduces the sequential state exactly.
        """
        if not self._hash.supports_key_hashing:
            for item in items:
                self.update(item)
            return
        keys = canonical_keys(items)
        if len(keys) == 0:
            return
        hashes = self._hash.hash_keys(keys)
        # Match the scalar (h + 1) / 2^64 mapping bit for bit: the +1 is
        # done in exact uint64 arithmetic (2^64 - 1 wraps to 0 → 1.0),
        # then a single rounding to float64 and an exact power-of-two
        # scale — the same one correctly-rounded result as Python ints.
        with np.errstate(over="ignore"):
            nxt = hashes + np.uint64(1)
        values = nxt.astype(np.float64) / _TWO64
        values[nxt == np.uint64(0)] = 1.0
        if self._members:
            values = np.concatenate(
                [values, np.fromiter(self._members, np.float64, len(self._members))]
            )
        kept = np.unique(values)[: self.k].tolist()
        self._members = set(kept)
        self._heap = [-v for v in kept]
        heapq.heapify(self._heap)

    # -- queries -------------------------------------------------------------

    @property
    def theta(self) -> float:
        """Current sampling threshold: the k-th smallest value, or 1."""
        if len(self._heap) < self.k:
            return 1.0
        return -self._heap[0]

    def sample(self) -> set[float]:
        """The retained hash values below θ (a uniform distinct sample)."""
        return set(self._members)

    def estimate(self) -> float:
        """Unbiased distinct-count estimate (k−1)/θ, or exact if undersized."""
        if len(self._heap) < self.k:
            return float(len(self._heap))
        return (self.k - 1) / self.theta

    def estimate_interval(self, confidence: float = 0.95) -> Estimate:
        """Estimate with a ±z/√(k−2) relative interval."""
        value = self.estimate()
        if len(self._heap) < self.k:
            return Estimate.exact(value)
        spread = value * z_score(confidence) * self.relative_standard_error
        return Estimate(value, max(0.0, value - spread), value + spread, confidence)

    @property
    def relative_standard_error(self) -> float:
        """Theoretical RSE ≈ 1/√(k−2)."""
        return 1.0 / math.sqrt(max(1, self.k - 2))

    def __len__(self) -> int:
        return len(self._members)

    # -- set algebra ----------------------------------------------------------

    def merge(self, other: "KMVSketch") -> None:
        """Union in place: keep the k smallest values of both inputs."""
        self._check_mergeable(other, "k", "seed")
        for value in other._members:
            if value in self._members:
                continue
            if len(self._heap) < self.k:
                heapq.heappush(self._heap, -value)
                self._members.add(value)
            elif value < -self._heap[0]:
                evicted = -heapq.heappushpop(self._heap, -value)
                self._members.discard(evicted)
                self._members.add(value)

    @classmethod
    def _merge_many_impl(cls, parts: list) -> "KMVSketch":
        """k-way union: one sorted distinct-union pass, truncated to k.

        The retained set is always "the k smallest distinct values seen
        by any part", so a distinct-union pass over the concatenated
        member arrays reproduces the pairwise fold exactly.  A
        ``np.partition`` prefix avoids fully sorting the k·parts pool:
        the 2k smallest elements are deduplicated first, and only if
        duplicates leave fewer than k distinct values does the pass
        fall back to a full ``np.unique``.
        """
        first = parts[0]
        k, seed = first.k, first.seed
        for other in parts[1:]:
            if type(other) is not cls or other.k != k or other.seed != seed:
                first._check_mergeable(other, "k", "seed")
        merged = cls(k=k, seed=seed)
        pools = [
            np.fromiter(sk._members, np.float64, len(sk._members))
            for sk in parts
            if sk._members
        ]
        if pools:
            pool = np.concatenate(pools)
            cut = min(pool.size - 1, 2 * k)
            smallest = np.unique(np.partition(pool, cut)[: cut + 1])
            if smallest.size < k and cut + 1 < pool.size:
                smallest = np.unique(pool)
            kept = smallest[:k].tolist()
            merged._members = set(kept)
            merged._heap = [-v for v in kept]
            heapq.heapify(merged._heap)
        return merged

    def union(self, other: "KMVSketch") -> "KMVSketch":
        """Non-destructive union sketch."""
        return self | other

    def intersection_estimate(self, other: "KMVSketch") -> float:
        """Estimate |A ∩ B| via the common-θ sample overlap."""
        self._check_mergeable(other, "k", "seed")
        theta = min(self.theta, other.theta)
        mine = {v for v in self._members if v < theta or theta == 1.0}
        theirs = {v for v in other._members if v < theta or theta == 1.0}
        common = len(mine & theirs)
        if theta == 1.0:
            return float(common)
        return common / theta

    def difference_estimate(self, other: "KMVSketch") -> float:
        """Estimate |A \\ B|."""
        self._check_mergeable(other, "k", "seed")
        theta = min(self.theta, other.theta)
        mine = {v for v in self._members if v < theta or theta == 1.0}
        theirs = {v for v in other._members if v < theta or theta == 1.0}
        only = len(mine - theirs)
        if theta == 1.0:
            return float(only)
        return only / theta

    def jaccard_estimate(self, other: "KMVSketch") -> float:
        """Estimate the Jaccard similarity |A∩B| / |A∪B|."""
        self._check_mergeable(other, "k", "seed")
        theta = min(self.theta, other.theta)
        mine = {v for v in self._members if v < theta or theta == 1.0}
        theirs = {v for v in other._members if v < theta or theta == 1.0}
        union = len(mine | theirs)
        if union == 0:
            return 0.0
        return len(mine & theirs) / union

    # -- serde -------------------------------------------------------------------

    def memory_footprint(self) -> int:
        """O(1): the retained hash values, 9 B each on the wire."""
        return 96 + 9 * len(self._members)

    def state_dict(self) -> dict:
        return {
            "k": self.k,
            "seed": self.seed,
            "values": sorted(self._members),
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "KMVSketch":
        sk = cls(k=state["k"], seed=state["seed"])
        for value in state["values"]:
            heapq.heappush(sk._heap, -value)
            sk._members.add(value)
        return sk
