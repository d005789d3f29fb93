"""LogLog cardinality estimation (Durand–Flajolet 2003).

The paper's hook (§2): *"The loglog algorithm reduced the dependence on
the cardinality from logarithmic to double-logarithmic."*

LogLog keeps ``m = 2^p`` registers; each register stores the maximum
``ρ`` (position of the first 1-bit) seen among items routed to it — a
number that is O(log log n) bits.  The estimate is the *geometric* mean
form ``α_m · m · 2^(ΣM/m)``.  Relative standard error ≈ 1.30/√m
(vs 1.04/√m for HyperLogLog's harmonic mean, experiment E2's
comparison).
"""

from __future__ import annotations

import math

import numpy as np

from ..core import MergeableSketch
from ..core.batch import canonical_keys, register_update
from ..hashing import HashFunction

__all__ = ["LogLog"]


def rho64(value: int, max_rho: int) -> int:
    """Position (1-based) of the first set bit of ``value``, capped.

    ``value`` is interpreted as a ``max_rho``-bit string; an all-zero
    string returns ``max_rho + 1`` as in the HLL analysis.
    """
    if value == 0:
        return max_rho + 1
    r = 1
    while not value & 1:
        value >>= 1
        r += 1
    return min(r, max_rho + 1)


class LogLog(MergeableSketch):
    """LogLog distinct counter with ``2^p`` registers."""

    #: Asymptotic α_m for the geometric-mean estimator.
    ALPHA_INF = 0.39701

    def __init__(self, p: int = 10, seed: int = 0) -> None:
        if not 4 <= p <= 18:
            raise ValueError(f"precision p must be in [4, 18], got {p}")
        self.p = p
        self.m = 1 << p
        self.seed = seed
        self._hash = HashFunction(seed)
        self._registers = np.zeros(self.m, dtype=np.uint8)
        self._max_rho = 64 - p

    def update(self, item: object) -> None:
        """Route ``item`` to a register and record max ρ."""
        h = self._hash.hash64(item)
        idx = h >> (64 - self.p)
        rest = h & ((1 << (64 - self.p)) - 1)
        r = rho64(rest, self._max_rho)
        if r > self._registers[idx]:
            self._registers[idx] = r

    def update_many(self, items) -> None:
        """Bulk update: canonicalize once, then the vectorized register kernel."""
        keys = canonical_keys(items)
        register_update([self], keys, (0, len(keys)))

    @classmethod
    def _update_grouped_impl(cls, sketches: list, items, bounds) -> None:
        """GROUP BY batch: one canonicalize, hash and register pass for all groups."""
        register_update(sketches, canonical_keys(items), bounds)

    def estimate(self) -> float:
        """Geometric-mean estimate ``α_m · m · 2^(mean register)``.

        An untouched sketch reports 0 (the raw formula has a constant
        α·m floor — LogLog's small-range bias, which HyperLogLog's
        linear-counting correction addresses; see experiment E2).
        """
        if not self._registers.any():
            return 0.0
        mean = float(self._registers.mean())
        return self._alpha() * self.m * (2.0**mean)

    def _alpha(self) -> float:
        # α_m = (Γ(-1/m) (1-2^{1/m}) / ln 2)^{-m} → 0.39701 as m → ∞;
        # the asymptote is accurate to <1% for m >= 64.
        if self.m >= 64:
            return self.ALPHA_INF
        return self.ALPHA_INF * (1.0 - 0.31 / self.m)

    @property
    def relative_standard_error(self) -> float:
        """Theoretical RSE ≈ 1.30/√m."""
        return 1.30 / math.sqrt(self.m)

    def merge(self, other: "LogLog") -> None:
        """Union: take the elementwise register maximum."""
        self._check_mergeable(other, "p", "seed")
        np.maximum(self._registers, other._registers, out=self._registers)

    @classmethod
    def _merge_many_impl(cls, parts: list) -> "LogLog":
        """k-way union: one register-maximum reduction, in place."""
        first = parts[0]
        for other in parts[1:]:
            first._check_mergeable(other, "p", "seed")
        merged = cls(p=first.p, seed=first.seed)
        registers = first._registers.copy()
        for sk in parts[1:]:
            np.maximum(registers, sk._registers, out=registers)
        merged._registers = registers
        return merged

    def state_dict(self) -> dict:
        return {"p": self.p, "seed": self.seed, "registers": self._registers}

    @classmethod
    def from_state_dict(cls, state: dict) -> "LogLog":
        sk = cls(p=state["p"], seed=state["seed"])
        sk._registers = state["registers"].astype(np.uint8)
        return sk
