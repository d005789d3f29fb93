"""Exact frequency baseline.

Every experiment that evaluates a frequency sketch needs ground truth;
:class:`ExactFrequency` is the dict-based exact counter with the same
query API as the sketches, used as the "data warehouse" comparator the
paper describes overtaking sketches in ad analytics (§3).
"""

from __future__ import annotations

from collections import Counter

from ..core import MergeableSketch
from ..core.batch import hashable_batch

__all__ = ["ExactFrequency"]


class ExactFrequency(MergeableSketch):
    """Exact counts — the unbounded-memory baseline."""

    batch_form = staticmethod(hashable_batch)

    def __init__(self) -> None:
        self._counts: Counter = Counter()
        self.n = 0

    def update(self, item: object, weight: int = 1) -> None:
        """Add ``weight`` to ``item``."""
        self._counts[item] += weight
        self.n += weight

    def estimate(self, item: object) -> int:
        """Exact count of ``item``."""
        return self._counts.get(item, 0)

    def heavy_hitters(self, phi: float) -> dict[object, int]:
        """All items with count > φN — exactly."""
        if not 0.0 < phi < 1.0:
            raise ValueError(f"phi must be in (0, 1), got {phi}")
        threshold = phi * self.n
        return {
            item: count for item, count in self._counts.items() if count > threshold
        }

    def top(self, limit: int) -> list[tuple[object, int]]:
        """The ``limit`` most common (item, count) pairs."""
        return self._counts.most_common(limit)

    def f2(self) -> int:
        """Exact second frequency moment Σ f(x)²."""
        return sum(c * c for c in self._counts.values())

    def distinct(self) -> int:
        """Exact number of distinct items (F0)."""
        return sum(1 for c in self._counts.values() if c != 0)

    def items(self) -> dict[object, int]:
        """All (item, count) pairs."""
        return dict(self._counts)

    def __len__(self) -> int:
        return len(self._counts)

    def merge(self, other: "ExactFrequency") -> None:
        self._check_mergeable(other)
        self._counts.update(other._counts)
        self.n += other.n

    def state_dict(self) -> dict:
        return {"n": self.n, "entries": list(self._counts.items())}

    @classmethod
    def from_state_dict(cls, state: dict) -> "ExactFrequency":
        sk = cls()
        sk.n = state["n"]
        sk._counts = Counter(dict(state["entries"]))
        return sk
