"""Flajolet–Martin probabilistic counting (1983), PCSA variant.

The paper's hook (§2): *"the Flajolet and Martin distinct counter
(1983), which uses O(log n) bits, but tracks the number of distinct
items that have been observed."*

Each item is hashed; the low ``log2(m)`` bits pick one of ``m`` bitmaps
and the position of the lowest set bit in the remaining bits is marked
in that bitmap ("Probabilistic Counting with Stochastic Averaging").
The estimate is ``(m / φ) · 2^(mean R)`` where ``R`` is each bitmap's
lowest unset bit index and ``φ ≈ 0.77351`` is the FM magic constant.

Relative standard error ≈ 0.78 / sqrt(m).
"""

from __future__ import annotations

import numpy as np

from ..core import MergeableSketch
from ..hashing import HashFunction

__all__ = ["FlajoletMartin", "PHI_FM"]

PHI_FM = 0.77351
_BITMAP_BITS = 40  # supports cardinalities up to ~2^40 per bitmap


def _lowest_zero_bit(bitmap: int) -> int:
    """Index of the lowest 0-bit of ``bitmap``."""
    r = 0
    while bitmap & 1:
        bitmap >>= 1
        r += 1
    return r


class FlajoletMartin(MergeableSketch):
    """PCSA distinct counter with ``m`` bitmaps (``m`` a power of two)."""

    def __init__(self, m: int = 64, seed: int = 0) -> None:
        if m < 2 or m & (m - 1):
            raise ValueError(f"number of bitmaps m must be a power of two >= 2, got {m}")
        self.m = m
        self.seed = seed
        self._log2m = m.bit_length() - 1
        self._hash = HashFunction(seed)
        self._bitmaps = np.zeros(m, dtype=np.int64)

    def update(self, item: object) -> None:
        """Mark the trailing-zeros bit of ``item``'s hash in its bitmap."""
        h = self._hash.hash64(item)
        idx = h & (self.m - 1)
        rest = h >> self._log2m
        # Position of the lowest set bit of the remaining hash bits
        # (geometric with p = 1/2); all-zero remainder maps to the top.
        if rest == 0:
            rho = _BITMAP_BITS - 1
        else:
            rho = min((rest & -rest).bit_length() - 1, _BITMAP_BITS - 1)
        self._bitmaps[idx] |= np.int64(1 << rho)

    def estimate(self) -> float:
        """PCSA estimate ``(m/φ)·2^(ΣR/m)``.

        An untouched sketch reports 0 (the raw formula has a constant
        m/φ floor, a known PCSA small-range artefact).
        """
        if not self._bitmaps.any():
            return 0.0
        total_r = sum(_lowest_zero_bit(int(b)) for b in self._bitmaps)
        return (self.m / PHI_FM) * (2.0 ** (total_r / self.m))

    @property
    def relative_standard_error(self) -> float:
        """Theoretical RSE ≈ 0.78/√m."""
        return 0.78 / (self.m**0.5)

    def merge(self, other: "FlajoletMartin") -> None:
        """Union: OR the bitmaps."""
        self._check_mergeable(other, "m", "seed")
        self._bitmaps |= other._bitmaps

    @classmethod
    def _merge_many_impl(cls, parts: list) -> "FlajoletMartin":
        """k-way union: one ``np.bitwise_or.reduce`` over the bitmap stack.

        The bitmaps are tiny (``m`` words), so per-part Python overhead
        dominates; the compatibility check is inlined and only falls
        through to :meth:`_check_mergeable` on an actual mismatch.
        """
        first = parts[0]
        m, seed = first.m, first.seed
        for other in parts[1:]:
            if type(other) is not cls or other.m != m or other.seed != seed:
                first._check_mergeable(other, "m", "seed")
        merged = cls(m=m, seed=seed)
        merged._bitmaps = np.bitwise_or.reduce([sk._bitmaps for sk in parts])
        return merged

    def state_dict(self) -> dict:
        return {"m": self.m, "seed": self.seed, "bitmaps": self._bitmaps}

    @classmethod
    def from_state_dict(cls, state: dict) -> "FlajoletMartin":
        sk = cls(m=state["m"], seed=state["seed"])
        sk._bitmaps = state["bitmaps"].astype(np.int64)
        return sk
