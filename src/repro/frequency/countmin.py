"""Count-Min sketch (Cormode & Muthukrishnan 2005).

The paper's hook (§2): *"The Count-Min sketch seeks to further
streamline sketching, by removing the Rademacher random variables, in
order to provide frequency estimation with L1 instead of L2
guarantees"* — and (§3) Twitter's use of Count-Min for embedded-tweet
view counts (experiment E11) and Apple's use of a randomized-response
Count-Min for private telemetry (experiment E13).

A ``d × w`` counter matrix; each row hashes the item to one cell.  The
point query returns the minimum over rows and guarantees (for
``w = ⌈e/ε⌉``, ``d = ⌈ln 1/δ⌉``):

    f(x)  ≤  f̂(x)  ≤  f(x) + ε·N     with probability ≥ 1 − δ

i.e. one-sided error proportional to the stream's **L1** mass — the
contrast with Count Sketch's L2-scaled error is experiment E4.

The *conservative update* variant (Estan & Varghese) only raises the
cells that are at the current minimum, provably never worsening and in
practice substantially reducing overestimates on skewed streams
(ablation A1).
"""

from __future__ import annotations

import math

import numpy as np

from ..core import DeserializationError, MergeableSketch
from ..core.batch import KeyedBatch, canonical_keys, canonical_weights
from ..hashing import HashFamily

__all__ = ["CountMinSketch"]


class CountMinSketch(MergeableSketch):
    """Count-Min sketch with optional conservative update.

    Parameters
    ----------
    width:
        Cells per row (``w``); error ≤ e·N/w with high probability.
    depth:
        Rows (``d``); failure probability e^−d.
    conservative:
        Use conservative update (point updates only raise the minimum
        cells).  Incompatible with negative weights.
    seed:
        Hash seed; merging requires equal (width, depth, seed).
    """

    batch_form = KeyedBatch

    def __init__(
        self,
        width: int = 2048,
        depth: int = 5,
        conservative: bool = False,
        seed: int = 0,
    ) -> None:
        if width < 2:
            raise ValueError(f"width must be >= 2, got {width}")
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        self.width = width
        self.depth = depth
        self.conservative = conservative
        self.seed = seed
        self._hashes = HashFamily(depth, seed)
        self._table = np.zeros((depth, width), dtype=np.int64)
        self.n = 0

    @classmethod
    def for_error(
        cls, epsilon: float, delta: float = 0.01, **kwargs
    ) -> "CountMinSketch":
        """Size the sketch for error ≤ εN with probability ≥ 1 − δ."""
        if not 0.0 < epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
        if not 0.0 < delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {delta}")
        width = math.ceil(math.e / epsilon)
        depth = math.ceil(math.log(1.0 / delta))
        return cls(width=width, depth=max(1, depth), **kwargs)

    def _buckets(self, item: object) -> list[int]:
        return [h.bucket(item, self.width) for h in self._hashes]

    def update(self, item: object, weight: int = 1) -> None:
        """Add ``weight`` to ``item``'s count (negative allowed unless conservative)."""
        if self.conservative:
            if weight < 0:
                raise ValueError("conservative update cannot process negative weights")
            buckets = self._buckets(item)
            current = min(
                self._table[row, bucket] for row, bucket in enumerate(buckets)
            )
            target = current + weight
            for row, bucket in enumerate(buckets):
                if self._table[row, bucket] < target:
                    self._table[row, bucket] = target
        else:
            for row, bucket in enumerate(self._buckets(item)):
                self._table[row, bucket] += weight
        self.n += weight

    def update_many(self, items, weight: int = 1) -> None:
        """Bulk update; ``weight`` is a scalar or a per-item array.

        Plain CM scatters each row's batch with ``np.add.at``; the
        conservative variant still walks items in order (its update is
        inherently sequential) but over precomputed row buckets, so all
        hashing is vectorized.  State matches per-item updates exactly.
        """
        if self._hashes.family == "murmur3":
            for item, w in self._iter_weighted(items, weight):
                self.update(item, w)
            return
        keys = canonical_keys(items)
        count = len(keys)
        if count == 0:
            return
        weights = canonical_weights(weight, count)
        buckets = np.empty((self.depth, count), dtype=np.int64)
        for row in range(self.depth):
            buckets[row] = self._hashes[row].bucket_keys(keys, self.width)
        if self.conservative:
            if weights.min() < 0:
                raise ValueError("conservative update cannot process negative weights")
            table = self._table
            depth = self.depth
            cols = buckets.T
            for i, w in enumerate(weights.tolist()):
                row_cols = cols[i]
                target = min(table[r, row_cols[r]] for r in range(depth)) + w
                for r in range(depth):
                    if table[r, row_cols[r]] < target:
                        table[r, row_cols[r]] = target
        else:
            for row in range(self.depth):
                np.add.at(self._table[row], buckets[row], weights)
        self.n += int(weights.sum())

    @staticmethod
    def _iter_weighted(items, weight):
        """(item, weight) pairs for the scalar fallback path."""
        if np.ndim(weight) == 0:
            return ((item, weight) for item in items)
        return zip(items, weight)

    def estimate(self, item: object) -> int:
        """Point query: min over rows (never underestimates for +ve streams)."""
        return int(
            min(self._table[row, bucket] for row, bucket in enumerate(self._buckets(item)))
        )

    def error_bound(self, confidence: float | None = None) -> float:
        """Additive error bound εN holding with the given confidence.

        With ``confidence=None`` this is the classical e·N/w (which
        holds with probability ``1 − e^−depth``).  For an explicit
        confidence 1 − δ, each row's excess exceeds c·N/w with
        probability at most 1/c (Markov), so the min over ``depth``
        independent rows fails with probability ``c^−depth``; solving
        ``c = δ^−1/depth`` gives the scaled bound c·N/w.
        """
        if confidence is None:
            return math.e * self.n / self.width
        if not 0.0 < confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {confidence}")
        c = (1.0 - confidence) ** (-1.0 / self.depth)
        return c * self.n / self.width

    def inner_product_estimate(self, other: "CountMinSketch") -> int:
        """Estimate ⟨f, g⟩ of two streams: min over rows of row dot products."""
        self._check_mergeable(other, "width", "depth", "seed")
        dots = (self._table * other._table).sum(axis=1)
        return int(dots.min())

    @property
    def total(self) -> int:
        """Total stream weight processed (L1 for non-negative streams)."""
        return self.n

    def merge(self, other: "CountMinSketch") -> None:
        """Add the counter matrices (valid for plain CM; conservative CM
        merges retain the upper-bound guarantee but may overestimate more)."""
        self._check_mergeable(other, "width", "depth", "seed")
        self._table += other._table
        self.n += other.n

    @classmethod
    def _merge_many_impl(cls, parts: list) -> "CountMinSketch":
        """k-way merge: one summed counter stack (exact, linear).

        The sum over the stacked depth×width tables is accumulated in
        place rather than materializing the k-deep 3-D stack — counter
        merging is memory-bound, and the stack copy would double the
        traffic.
        """
        first = parts[0]
        for other in parts[1:]:
            first._check_mergeable(other, "width", "depth", "seed")
        merged = cls(
            width=first.width,
            depth=first.depth,
            conservative=first.conservative,
            seed=first.seed,
        )
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
            "conservative": self.conservative,
            "seed": self.seed,
            "n": self.n,
            "table": self._table,
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "CountMinSketch":
        sk = cls(
            width=state["width"],
            depth=state["depth"],
            conservative=state["conservative"],
            seed=state["seed"],
        )
        table = state["table"]
        if table.shape != (sk.depth, sk.width):
            raise DeserializationError(
                f"corrupt {cls.__name__} state: {table.shape} table, "
                f"expected ({sk.depth}, {sk.width})"
            )
        sk.n = state["n"]
        sk._table = table.astype(np.int64)
        return sk
