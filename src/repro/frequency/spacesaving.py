"""SpaceSaving (Metwally, Agrawal & El Abbadi 2005).

The paper's hook (§2): *"The SpaceSaving algorithm was introduced to
give a fast, deterministic solution to frequency estimation; it was
later connected with the similar Misra-Gries algorithm."*

SpaceSaving keeps ``k`` (item, count, error) entries.  A new item
evicts the entry with the *minimum* count and inherits that count as
its overestimation error.  Guarantees, with N the stream weight:

    f(x)  ≤  f̂(x)  ≤  f(x) + N/k         (overestimates)
    every item with f(x) > N/k is tracked  (no false negatives for HH)

The "later connected" equivalence: a SpaceSaving summary with k
counters holds exactly the same information as a Misra–Gries summary
with k−1 counters via f̂_MG = f̂_SS − min_count; :meth:`to_misra_gries`
makes that executable (tested in E5's suite).
"""

from __future__ import annotations

import heapq

import numpy as np

from ..core import MergeableSketch
from ..core.batch import hashable_batch

__all__ = ["SpaceSaving"]

#: sentinel distinct from any sketchable item (run-length collapse).
_NO_ITEM = object()


class SpaceSaving(MergeableSketch):
    """Deterministic top-k tracker with overestimate guarantees.

    Implementation: dict of live entries + a lazily-rebuilt min-heap for
    eviction, giving amortized O(log k) updates.
    """

    batch_form = staticmethod(hashable_batch)

    def __init__(self, k: int = 64) -> None:
        if k < 1:
            raise ValueError(f"counter budget k must be >= 1, got {k}")
        self.k = k
        self._counts: dict[object, int] = {}
        self._errors: dict[object, int] = {}
        self._heap: list[tuple[int, int, object]] = []  # (count, tiebreak, item)
        self._heap_epoch = 0
        self.n = 0

    def update(self, item: object, weight: int = 1) -> None:
        """Process ``item`` with integer multiplicity ``weight``."""
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        self.n += weight
        if item in self._counts:
            self._counts[item] += weight
            self._push(item)
            return
        if len(self._counts) < self.k:
            self._counts[item] = weight
            self._errors[item] = 0
            self._push(item)
            return
        # Evict the current minimum.
        victim, victim_count = self._pop_min()
        del self._counts[victim]
        del self._errors[victim]
        self._counts[item] = victim_count + weight
        self._errors[item] = victim_count
        self._push(item)

    def update_many(self, items, weight: int = 1) -> None:
        """Chunked bulk update, state-identical to per-item updates.

        Evictions depend on arrival order, so the walk stays
        sequential; the batch win comes from converting numpy chunks to
        Python scalars in C and collapsing runs of equal consecutive
        items into one weighted update (a run of length r with weight w
        is exactly equivalent to r updates of weight w: the first
        occurrence settles tracking/eviction and the rest only add).
        """
        if isinstance(items, np.ndarray):
            chunks = (
                items[start : start + 8192].tolist()
                for start in range(0, len(items), 8192)
            )
        else:
            chunks = (items,)
        update = self.update
        prev = _NO_ITEM
        run = 0
        for chunk in chunks:
            for item in chunk:
                if run and item == prev:
                    run += 1
                    continue
                if run:
                    update(prev, weight * run)
                prev = item
                run = 1
        if run:
            update(prev, weight * run)

    def _push(self, item: object) -> None:
        self._heap_epoch += 1
        heapq.heappush(self._heap, (self._counts[item], self._heap_epoch, item))

    def _pop_min(self) -> tuple[object, int]:
        """Pop the live minimum, skipping stale heap entries."""
        while self._heap:
            count, _, item = heapq.heappop(self._heap)
            if self._counts.get(item) == count:
                return item, count
        raise RuntimeError("SpaceSaving heap lost track of live entries")

    # -- queries ----------------------------------------------------------------

    def estimate(self, item: object) -> int:
        """Upper-bound estimate: min-count for untracked items."""
        if item in self._counts:
            return self._counts[item]
        return self.min_count()

    def guaranteed_count(self, item: object) -> int:
        """Lower bound: count minus recorded error (0 if untracked)."""
        if item in self._counts:
            return self._counts[item] - self._errors[item]
        return 0

    def min_count(self) -> int:
        """Smallest tracked count (the overestimate for unseen items)."""
        if not self._counts:
            return 0
        if len(self._counts) < self.k:
            return 0
        return min(self._counts.values())

    def error_bound(self) -> float:
        """Maximum overestimate: N/k."""
        return self.n / self.k

    def heavy_hitters(self, phi: float) -> dict[object, int]:
        """All tracked items with estimate > φN (no false negatives)."""
        if not 0.0 < phi < 1.0:
            raise ValueError(f"phi must be in (0, 1), got {phi}")
        threshold = phi * self.n
        return {
            item: count for item, count in self._counts.items() if count > threshold
        }

    def top(self, limit: int) -> list[tuple[object, int]]:
        """The ``limit`` largest (item, estimate) pairs, descending."""
        ranked = sorted(self._counts.items(), key=lambda kv: -kv[1])
        return ranked[:limit]

    def items(self) -> dict[object, int]:
        """All tracked (item, estimate) pairs."""
        return dict(self._counts)

    def __len__(self) -> int:
        return len(self._counts)

    # -- MG equivalence -------------------------------------------------------------

    def to_misra_gries(self):
        """The equivalent Misra–Gries view (k−1 counters).

        f̂_MG(x) = f̂_SS(x) − min_count, dropping items that hit zero.
        """
        from .misra_gries import MisraGries

        mg = MisraGries(k=max(1, self.k - 1))
        mg.n = self.n
        floor = self.min_count()
        mg._counters = {
            item: count - floor
            for item, count in self._counts.items()
            if count > floor
        }
        return mg

    # -- merge / serde -----------------------------------------------------------------

    def merge(self, other: "SpaceSaving") -> None:
        """Merge by combining entries and re-trimming to the k largest.

        Untracked items inherit the partner's min-count (their upper
        bound there), preserving the overestimate invariant
        f(x) ≤ f̂(x) ≤ f(x) + N/k on the combined stream.
        """
        self._check_mergeable(other, "k")
        my_floor = self.min_count()
        their_floor = other.min_count()
        combined: dict[object, int] = {}
        errors: dict[object, int] = {}
        keys = set(self._counts) | set(other._counts)
        for item in keys:
            mine = self._counts.get(item)
            theirs = other._counts.get(item)
            est = (mine if mine is not None else my_floor) + (
                theirs if theirs is not None else their_floor
            )
            err = (
                self._errors.get(item, my_floor)
                + other._errors.get(item, their_floor)
            )
            combined[item] = est
            errors[item] = err
        if len(combined) > self.k:
            kept = sorted(combined.items(), key=lambda kv: -kv[1])[: self.k]
            combined = dict(kept)
            errors = {item: errors[item] for item in combined}
        self._counts = combined
        self._errors = errors
        self._heap = []
        self._heap_epoch = 0
        for item in combined:
            self._push(item)
        self.n += other.n

    @classmethod
    def _merge_many_impl(cls, parts: list) -> "SpaceSaving":
        """k-way merge: one combined counter pass, one trim.

        Each item's estimate sums its per-part count (or that part's
        min-count floor when untracked), exactly as the pairwise merge
        does — but combining all parts at once trims to the k largest a
        single time instead of ``k − 1`` times, so the result is
        identical to the fold while every part is under capacity and
        never overestimates more than it once any part is full.  The
        invariant f(x) ≤ f̂(x) ≤ f(x) + N/k holds for the combined
        stream weight N.
        """
        first = parts[0]
        for other in parts[1:]:
            first._check_mergeable(other, "k")
        floors = [sk.min_count() for sk in parts]
        total_floor = sum(floors)
        combined: dict[object, int] = {}
        errors: dict[object, int] = {}
        if total_floor == 0:
            # Every part under capacity: estimates are plain sums over
            # the union (same set-driven order as the pairwise fold).
            keys: set[object] = set()
            for sk in parts:
                keys.update(sk._counts)
            for item in keys:
                est = 0
                err = 0
                for sk in parts:
                    est += sk._counts.get(item, 0)
                    err += sk._errors.get(item, 0)
                combined[item] = est
                errors[item] = err
        else:
            # At capacity the union can be far larger than k entries, so
            # iterate each part's entries once (O(total entries)) rather
            # than probing every part for every union key (O(union·k)):
            # est(x) = Σ_present (count − floor) + Σ floors.
            for sk, floor in zip(parts, floors):
                part_errors = sk._errors
                for item, count in sk._counts.items():
                    combined[item] = combined.get(item, total_floor) + count - floor
                    errors[item] = (
                        errors.get(item, total_floor) + part_errors[item] - floor
                    )
        if len(combined) > first.k:
            kept = sorted(combined.items(), key=lambda kv: -kv[1])[: first.k]
            combined = dict(kept)
            errors = {item: errors[item] for item in combined}
        merged = cls(k=first.k)
        merged.n = sum(sk.n for sk in parts)
        merged._counts = combined
        merged._errors = errors
        for item in combined:
            merged._push(item)
        return merged

    def memory_footprint(self) -> int:
        """O(k): wire cost of the monitored (item, count, error) entries."""
        from ..core.serde import encoded_nbytes

        entries = sum(
            9
            + encoded_nbytes(item)
            + encoded_nbytes(count)
            + encoded_nbytes(self._errors[item])
            for item, count in self._counts.items()
        )
        return 96 + entries

    def state_dict(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "entries": [
                (item, count, self._errors[item])
                for item, count in self._counts.items()
            ],
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "SpaceSaving":
        sk = cls(k=state["k"])
        sk.n = state["n"]
        for item, count, error in state["entries"]:
            sk._counts[item] = count
            sk._errors[item] = error
            sk._push(item)
        return sk
