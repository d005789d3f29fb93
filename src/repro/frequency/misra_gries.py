"""Misra–Gries frequent-items summary (1982).

The paper's hook (§2): the generalization of Boyer–Moore *"to find all
frequently occurring items"*, and (via "Mergeable Summaries", PODS'12)
the first deterministic frequency summary shown to be fully mergeable.

With ``k`` counters, every item's estimate satisfies

    f(x) − N/(k+1)  ≤  f̂(x)  ≤  f(x)

so all items with frequency above ``N/(k+1)`` are guaranteed present.
The merge (Agarwal et al. 2013) adds counter sets and subtracts the
(k+1)-th largest combined count, preserving the error bound — the
property experiment E7 checks exactly.
"""

from __future__ import annotations

from ..core import MergeableSketch
from ..core.batch import hashable_batch

__all__ = ["MisraGries"]


class MisraGries(MergeableSketch):
    """Deterministic top-k frequency summary with ``k`` counters."""

    batch_form = staticmethod(hashable_batch)

    def __init__(self, k: int = 64) -> None:
        if k < 1:
            raise ValueError(f"counter budget k must be >= 1, got {k}")
        self.k = k
        self._counters: dict[object, int] = {}
        self.n = 0  # total processed weight

    def update(self, item: object, weight: int = 1) -> None:
        """Process ``item`` with integer multiplicity ``weight``."""
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        self.n += weight
        counters = self._counters
        if item in counters:
            counters[item] += weight
            return
        if len(counters) < self.k:
            counters[item] = weight
            return
        # Decrement-all step, batched: remove the largest decrement that
        # still zeroes out at least the incoming weight.
        dec = min(weight, min(counters.values()))
        if dec > 0:
            for key in list(counters):
                counters[key] -= dec
                if counters[key] == 0:
                    del counters[key]
        remaining = weight - dec
        if remaining > 0 and len(counters) < self.k:
            counters[item] = remaining

    def estimate(self, item: object) -> int:
        """Lower-bound frequency estimate (0 if not tracked)."""
        return self._counters.get(item, 0)

    def error_bound(self) -> float:
        """Maximum underestimate: N/(k+1)."""
        return self.n / (self.k + 1)

    def heavy_hitters(self, phi: float) -> dict[object, int]:
        """Items whose estimate exceeds ``(phi − 1/(k+1)) · N``.

        Guaranteed to include every item with true frequency > φN.
        """
        if not 0.0 < phi < 1.0:
            raise ValueError(f"phi must be in (0, 1), got {phi}")
        threshold = phi * self.n - self.error_bound()
        return {
            item: count
            for item, count in self._counters.items()
            if count > threshold
        }

    def items(self) -> dict[object, int]:
        """All currently tracked (item, lower-bound count) pairs."""
        return dict(self._counters)

    def __len__(self) -> int:
        return len(self._counters)

    def merge(self, other: "MisraGries") -> None:
        """Mergeable-summaries merge: add counters, trim to k by offset."""
        self._check_mergeable(other, "k")
        combined = dict(self._counters)
        for item, count in other._counters.items():
            combined[item] = combined.get(item, 0) + count
        if len(combined) > self.k:
            # Subtract the (k+1)-th largest count from everything.
            counts = sorted(combined.values(), reverse=True)
            offset = counts[self.k]
            combined = {
                item: count - offset
                for item, count in combined.items()
                if count > offset
            }
        self._counters = combined
        self.n += other.n

    @classmethod
    def _merge_many_impl(cls, parts: list) -> "MisraGries":
        """k-way merge: one combined counter pass, one offset trim.

        Sums all parts' counters, then (if over budget) subtracts the
        (k+1)-th largest combined count once.  The k-way trim removes at
        least (k+1)·offset of counter mass, so the Misra–Gries bound
        f(x) − N/(k+1) ≤ f̂(x) ≤ f(x) still holds for the combined
        stream weight N — and with a single offset subtraction instead
        of ``k − 1`` compounding ones, estimates are at least as tight
        as the pairwise fold's.  Identical to the fold while the union
        of tracked items fits in k counters.
        """
        first = parts[0]
        for other in parts[1:]:
            first._check_mergeable(other, "k")
        combined: dict[object, int] = dict(first._counters)
        for sk in parts[1:]:
            for item, count in sk._counters.items():
                combined[item] = combined.get(item, 0) + count
        if len(combined) > first.k:
            counts = sorted(combined.values(), reverse=True)
            offset = counts[first.k]
            combined = {
                item: count - offset
                for item, count in combined.items()
                if count > offset
            }
        merged = cls(k=first.k)
        merged._counters = combined
        merged.n = sum(sk.n for sk in parts)
        return merged

    def state_dict(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "entries": [(item, count) for item, count in self._counters.items()],
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "MisraGries":
        sk = cls(k=state["k"])
        sk.n = state["n"]
        sk._counters = {item: count for item, count in state["entries"]}
        return sk
