"""Relative-error streaming quantiles (simplified ReqSketch).

The paper's hook (§2, PODS awards): *"Relative Error streaming
quantiles (PODS 2021, best paper award) gives a near-optimal sketch for
… quantiles with a relative error guarantee"* (Cormode, Karnin,
Liberty, Thaler, Veselý).

Additive-error sketches (KLL, GK) answer every rank to ±εn — useless
for the p99.99 of a billion events, where the interesting ranks are
within εn of the end.  The ReqSketch makes the rank error *relative*:
±ε·rank(x) for the high ranks (``hra`` mode), so extreme quantiles get
proportionally tighter answers.

This is the simplified "protected compaction" variant of the real
ReqSketch: KLL-style compactors where each compaction only halves the
*low* half of the buffer and always protects the top items, so large
values are carried exactly while small ones are aggressively
compacted.  The full paper machinery (growing section sizes, derived
bounds) is replaced by a fixed protection fraction — the relative
error behaviour at the tail is preserved (benchmarked against KLL in
E6's suite and tested below), the exact constants are not.
"""

from __future__ import annotations

import random

from ..core.serde import pack_rng_state, unpack_rng_state
from .base import QuantileSketch
from .kll import bulk_insert, footprint_of, levels_from_state, levels_to_state

__all__ = ["ReqSketch"]


class ReqSketch(QuantileSketch):
    """Simplified relative-error quantile sketch (high-rank accuracy).

    Parameters
    ----------
    k:
        Compactor capacity (even).  Larger k = tighter error.
    seed:
        Randomizes compaction parity.
    """

    def __init__(self, k: int = 64, seed: int = 0) -> None:
        if k < 8 or k % 2:
            raise ValueError(f"k must be even and >= 8, got {k}")
        self.k = k
        self.seed = seed
        self._rng = random.Random(seed)
        self._compactors: list[list[float]] = [[]]
        self.n = 0

    def _capacity(self, level: int) -> int:
        return self.k

    def update(self, value: float) -> None:
        """Insert one value."""
        self._compactors[0].append(float(value))
        self.n += 1
        if len(self._compactors[0]) >= self._capacity(0):
            self._compress()

    def update_many(self, values) -> None:
        """Bulk insert; state-identical to per-value :meth:`update` calls."""
        self.n += bulk_insert(self, values)

    def _compress(self) -> None:
        level = 0
        while level < len(self._compactors):
            buf = self._compactors[level]
            if len(buf) >= self._capacity(level):
                self._compact(level)
            level += 1

    def _compact(self, level: int) -> None:
        buf = self._compactors[level]
        buf.sort()
        if level + 1 == len(self._compactors):
            self._compactors.append([])
        # Protect the top half: only the low half is halved upward.
        protect = len(buf) // 2
        low, high = buf[:-protect] if protect else buf, buf[-protect:] if protect else []
        offset = self._rng.randrange(2)
        promoted = low[offset::2]
        self._compactors[level] = list(high)
        self._compactors[level + 1].extend(promoted)

    def _weighted(self) -> list[tuple[float, int]]:
        items: list[tuple[float, int]] = []
        for level, buf in enumerate(self._compactors):
            weight = 1 << level
            items.extend((v, weight) for v in buf)
        items.sort(key=lambda vw: vw[0])
        return items

    def rank(self, value: float) -> float:
        """Estimated number of items ≤ value."""
        self._require_data()
        return float(sum(w for v, w in self._weighted() if v <= value))

    def quantile(self, q: float) -> float:
        """Value at normalized rank q (tightest at q → 1)."""
        self._check_q(q)
        self._require_data()
        items = self._weighted()
        total = sum(w for _, w in items)
        target = q * total
        acc = 0
        for v, w in items:
            acc += w
            if acc >= target:
                return v
        return items[-1][0]

    @property
    def size(self) -> int:
        """Total retained items."""
        return sum(len(buf) for buf in self._compactors)

    def merge(self, other: "ReqSketch") -> None:
        """Merge by pooling compactor levels, then recompacting."""
        self._check_mergeable(other, "k")
        while len(self._compactors) < len(other._compactors):
            self._compactors.append([])
        for level, buf in enumerate(other._compactors):
            self._compactors[level].extend(buf)
        self.n += other.n
        self._compress()

    @classmethod
    def _merge_many_impl(cls, parts: list) -> "ReqSketch":
        """k-way merge: concatenate every level once, compress once.

        Same contract as :meth:`KLLSketch._merge_many_impl` — equal to
        the pairwise fold in distribution, one compaction cascade
        instead of ``k − 1``.
        """
        first = parts[0]
        for other in parts[1:]:
            first._check_mergeable(other, "k")
        merged = cls(k=first.k, seed=first.seed)
        merged._rng.setstate(first._rng.getstate())
        merged._compactors = [list(buf) for buf in first._compactors]
        height = max(len(sk._compactors) for sk in parts)
        while len(merged._compactors) < height:
            merged._compactors.append([])
        for sk in parts[1:]:
            for level, buf in enumerate(sk._compactors):
                merged._compactors[level].extend(buf)
        merged.n = sum(sk.n for sk in parts)
        merged._compress()
        return merged

    def memory_footprint(self) -> int:
        """O(levels): retained values (8 B each on the wire) + RNG state."""
        return footprint_of(self)

    def state_dict(self) -> dict:
        return {
            "k": self.k,
            "seed": self.seed,
            "n": self.n,
            "compactors": levels_to_state(self._compactors),
            "rng_state": pack_rng_state(self._rng.getstate()),
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "ReqSketch":
        sk = cls(k=state["k"], seed=state["seed"])
        sk.n = state["n"]
        sk._compactors = levels_from_state(state["compactors"])
        sk._rng.setstate(unpack_rng_state(state["rng_state"]))
        return sk
