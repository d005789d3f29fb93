"""HyperLogLog (Flajolet et al. 2007) and the HLL++ refinements.

The paper's hook (§2): *"the hyperloglog (HLL) further squeezed the
space cost for this problem, while remaining very simple to implement
(the same cannot be said about the algorithmic analysis)"* — and (§2,
practical era) the Google work that *"optimized the HLL algorithm for
tracking cardinalities of very high magnitude, while improving accuracy
at small cardinalities"* (Heule, Nunkesser & Hall 2013).

:class:`HyperLogLog` is the classical sketch: ``m = 2^p`` registers,
harmonic-mean ("raw") estimate ``α_m m² / Σ 2^{-M_j}``, with the
linear-counting small-range correction.  Hashing is 64-bit, so the
32-bit large-range correction of the original paper is unnecessary
(one of HLL++'s three improvements).

:class:`HyperLogLogPlusPlus` adds the other practical refinements from
Heule et al.: a *sparse* representation that stores (index, ρ) pairs in
a dict until the dense array would be cheaper — giving near-exact
estimates at small cardinalities — and the empirically-tuned thresholds
for when to trust linear counting over the raw estimate.  (We do not
ship Google's 200-point interpolated bias tables; the sparse mode
already covers the regime those tables correct.  This substitution is
recorded in DESIGN.md.)

Relative standard error of the dense sketch ≈ 1.04/√m — the constant
that experiment E2 verifies.
"""

from __future__ import annotations

import math

import numpy as np

from ..core import Estimate, MergeableSketch, z_score
from ..core.batch import canonical_keys, hll_registers, register_update
from ..hashing import HashFunction
from .loglog import rho64

__all__ = ["HyperLogLog", "HyperLogLogPlusPlus"]


def _alpha(m: int) -> float:
    """Bias-correction constant α_m from the HLL analysis."""
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1.0 + 1.079 / m)


# Empirical "use linear counting below this estimate" thresholds for
# p = 4..18, from Heule et al. (2013), Table: threshold(p).
_LC_THRESHOLD = {
    4: 10, 5: 20, 6: 40, 7: 80, 8: 220, 9: 400, 10: 900, 11: 1800,
    12: 3100, 13: 6500, 14: 11500, 15: 20000, 16: 50000, 17: 120000,
    18: 350000,
}


class HyperLogLog(MergeableSketch):
    """Classical dense HyperLogLog.

    Parameters
    ----------
    p:
        Precision: ``2^p`` registers; RSE ≈ 1.04/2^(p/2).
    seed:
        Hash seed; merging requires equal ``(p, seed)``.
    """

    def __init__(self, p: int = 12, seed: int = 0) -> None:
        if not 4 <= p <= 18:
            raise ValueError(f"precision p must be in [4, 18], got {p}")
        self.p = p
        self.m = 1 << p
        self.seed = seed
        self._hash = HashFunction(seed)
        self._registers = np.zeros(self.m, dtype=np.uint8)
        self._max_rho = 64 - p

    # -- updates ---------------------------------------------------------

    def update(self, item: object) -> None:
        """Observe ``item``."""
        self._ingest(self._hash.hash64(item))

    def _ingest(self, h: int) -> None:
        idx = h >> (64 - self.p)
        rest = h & ((1 << (64 - self.p)) - 1)
        r = rho64(rest, self._max_rho)
        if r > self._registers[idx]:
            self._registers[idx] = r

    def update_many(self, items) -> None:
        """Bulk update: canonicalize once, then the vectorized register kernel.

        State is identical to per-item :meth:`update` calls for any
        iterable of sketchable items, not just numpy integer arrays.
        """
        keys = canonical_keys(items)
        register_update([self], keys, (0, len(keys)))

    @classmethod
    def _update_grouped_impl(cls, sketches: list, items, bounds) -> None:
        """GROUP BY batch: one canonicalize, hash and register pass for all groups."""
        register_update(sketches, canonical_keys(items), bounds)

    # -- queries ----------------------------------------------------------

    def raw_estimate(self) -> float:
        """Harmonic-mean estimate before any range correction."""
        powers = np.power(2.0, -self._registers.astype(np.float64))
        return _alpha(self.m) * self.m * self.m / float(powers.sum())

    def estimate(self) -> float:
        """Cardinality estimate with small-range (linear counting) correction."""
        raw = self.raw_estimate()
        zeros = int(np.count_nonzero(self._registers == 0))
        if raw <= 2.5 * self.m and zeros > 0:
            return self.m * math.log(self.m / zeros)
        return raw

    def estimate_interval(self, confidence: float = 0.95) -> Estimate:
        """Estimate with the ±z·1.04/√m relative interval."""
        value = self.estimate()
        spread = value * z_score(confidence) * self.relative_standard_error
        return Estimate(value, max(0.0, value - spread), value + spread, confidence)

    @property
    def relative_standard_error(self) -> float:
        """Theoretical RSE ≈ 1.04/√m."""
        return 1.04 / math.sqrt(self.m)

    def count_zero_registers(self) -> int:
        """Number of still-zero registers (drives the small-range path)."""
        return int(np.count_nonzero(self._registers == 0))

    # -- merge / serde -----------------------------------------------------

    def merge(self, other: "HyperLogLog") -> None:
        """Union: elementwise register maximum."""
        self._check_mergeable(other, "p", "seed")
        np.maximum(self._registers, other._registers, out=self._registers)

    @classmethod
    def _merge_many_impl(cls, parts: list) -> "HyperLogLog":
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

    def memory_footprint(self) -> int:
        """O(1): the dense register file plus serde framing (≈128 B)."""
        return 128 + self._registers.nbytes

    def state_dict(self) -> dict:
        return {"p": self.p, "seed": self.seed, "registers": self._registers}

    @classmethod
    def from_state_dict(cls, state: dict) -> "HyperLogLog":
        sk = cls(p=state["p"], seed=state["seed"])
        sk._registers = state["registers"].astype(np.uint8)
        return sk


class HyperLogLogPlusPlus(HyperLogLog):
    """HLL++ : sparse small-cardinality mode + tuned correction threshold.

    While the number of distinct observed (index, ρ) pairs is small, the
    sketch stores them exactly in a dict at higher effective precision,
    so estimates for small n come from linear counting over a much
    larger implicit register file (we use ``p' = 25``).  Once the sparse
    map outgrows the dense array it converts.
    """

    #: sparse-mode effective precision (Google uses p' = 25).
    SPARSE_P = 25

    # Sparse mode is order-dependent: GROUP BY keeps per-group update_many.
    _update_grouped_impl = MergeableSketch._update_grouped_impl

    def __init__(self, p: int = 12, seed: int = 0) -> None:
        super().__init__(p=p, seed=seed)
        self._sparse: dict[int, int] | None = {}
        # Convert when dict entries outweigh the dense byte array.
        self._sparse_limit = max(16, self.m // 4)

    @property
    def is_sparse(self) -> bool:
        """True while the sketch is in sparse mode."""
        return self._sparse is not None

    def update(self, item: object) -> None:
        h = self._hash.hash64(item)
        if self._sparse is None:
            self._ingest(h)
            return
        self._ingest_sparse(h)

    def _ingest_sparse(self, h: int) -> None:
        """Sparse mode: bucket at precision p', store max ρ at p'."""
        idx = h >> (64 - self.SPARSE_P)
        rest = h & ((1 << (64 - self.SPARSE_P)) - 1)
        r = rho64(rest, 64 - self.SPARSE_P)
        if r > self._sparse.get(idx, 0):
            self._sparse[idx] = r
        if len(self._sparse) > self._sparse_limit:
            self._to_dense()

    def update_many(self, items) -> None:
        """Bulk update in either mode.

        Dense sketches delegate to the vectorized dense kernel; sparse
        sketches hash the whole batch vectorized, feed the sparse map
        per hash, and switch to the dense kernel mid-batch the moment
        the map converts.
        """
        if not self.is_sparse:
            super().update_many(items)
            return
        if not self._hash.supports_key_hashing:
            for item in items:
                self.update(item)
            return
        keys = canonical_keys(items)
        if len(keys) == 0:
            return
        hashes = self._hash.hash_keys(keys)
        for pos, h in enumerate(hashes.tolist()):
            self._ingest_sparse(h)
            if self._sparse is None:
                rest = hashes[pos + 1 :]
                if len(rest):
                    idx, rho = hll_registers(rest, self.p, self._max_rho)
                    np.maximum.at(self._registers, idx, rho)
                return

    def _to_dense(self) -> None:
        """Fold sparse (p'-precision) entries into the dense registers."""
        assert self._sparse is not None
        sparse_rest_bits = 64 - self.SPARSE_P
        for idx, r in self._sparse.items():
            dense_idx = idx >> (self.SPARSE_P - self.p)
            # The dense remainder is [mid | sparse_rest] where mid is the
            # low (p' - p) bits of the sparse index.  ρ counts from the
            # low end, so if the sparse remainder had a set bit (r within
            # range) it determines ρ at precision p too; otherwise ρ
            # continues into mid.
            mid = idx & ((1 << (self.SPARSE_P - self.p)) - 1)
            if r <= sparse_rest_bits:
                dense_r = r
            elif mid:
                dense_r = sparse_rest_bits + rho64(mid, self.SPARSE_P - self.p)
            else:
                dense_r = self._max_rho + 1
            dense_r = min(dense_r, self._max_rho + 1)
            if dense_r > self._registers[dense_idx]:
                self._registers[dense_idx] = dense_r
        self._sparse = None

    def estimate(self) -> float:
        if self._sparse is not None:
            # Linear counting over the implicit 2^p' register file.
            m_prime = 1 << self.SPARSE_P
            zeros = m_prime - len(self._sparse)
            return m_prime * math.log(m_prime / zeros)
        raw = self.raw_estimate()
        threshold = _LC_THRESHOLD.get(self.p, 2.5 * self.m)
        zeros = self.count_zero_registers()
        if zeros > 0:
            lc = self.m * math.log(self.m / zeros)
            # Use linear counting in Heule's empirical region *or* the
            # classical 2.5m small-range region: without the bias
            # interpolation tables (see DESIGN.md substitutions) the raw
            # estimator is still biased between the two thresholds, and
            # LC remains the better estimate there.
            if lc <= threshold or raw <= 2.5 * self.m:
                return lc
        return raw

    def merge(self, other: "HyperLogLogPlusPlus") -> None:
        self._check_mergeable(other, "p", "seed")
        if self._sparse is not None and other._sparse is not None:
            for idx, r in other._sparse.items():
                if r > self._sparse.get(idx, 0):
                    self._sparse[idx] = r
            if len(self._sparse) > self._sparse_limit:
                self._to_dense()
            return
        if self._sparse is not None:
            self._to_dense()
        if other._sparse is not None:
            # Fold other's sparse entries into our dense registers
            # without mutating other.
            clone = HyperLogLogPlusPlus(p=other.p, seed=other.seed)
            clone._sparse = dict(other._sparse)
            clone._to_dense()
            np.maximum(self._registers, clone._registers, out=self._registers)
        else:
            np.maximum(self._registers, other._registers, out=self._registers)

    @classmethod
    def _merge_many_impl(cls, parts: list) -> "HyperLogLogPlusPlus":
        """k-way union aware of the sparse/dense split.

        If every part is sparse and the union of their entry sets still
        fits the sparse budget, the result stays sparse (the same dict
        max-union, in the same insertion order, as the pairwise fold).
        Otherwise the result is dense: each sparse part densifies once
        and a single in-place maximum reduction collapses the register
        stack.  Both paths are bitwise identical to the fold — register
        maxima are order-independent, and densifying a max-union equals
        the max of the densifications (the sparse→dense ρ mapping is
        monotone per entry).
        """
        first = parts[0]
        for other in parts[1:]:
            first._check_mergeable(other, "p", "seed")
        merged = cls(p=first.p, seed=first.seed)
        if all(sk._sparse is not None for sk in parts):
            union: set[int] = set()
            for sk in parts:
                union.update(sk._sparse)
            if len(union) <= first._sparse_limit:
                sparse = dict(first._sparse)
                for sk in parts[1:]:
                    for idx, r in sk._sparse.items():
                        if r > sparse.get(idx, 0):
                            sparse[idx] = r
                merged._sparse = sparse
                return merged
        registers = np.zeros_like(first._registers)
        for sk in parts:
            if sk._sparse is None:
                np.maximum(registers, sk._registers, out=registers)
            else:
                clone = cls(p=sk.p, seed=sk.seed)
                clone._sparse = dict(sk._sparse)
                clone._to_dense()
                np.maximum(registers, clone._registers, out=registers)
        merged._sparse = None
        merged._registers = registers
        return merged

    def memory_footprint(self) -> int:
        """Dense register file plus the sparse map's wire cost (9 B/entry)."""
        dense = super().memory_footprint()
        if self._sparse is None:
            return dense
        return dense + 96 + 9 * len(self._sparse)

    def state_dict(self) -> dict:
        state = {"p": self.p, "seed": self.seed, "registers": self._registers}
        if self._sparse is not None:
            keys = np.fromiter(self._sparse.keys(), dtype=np.int64, count=len(self._sparse))
            vals = np.fromiter(self._sparse.values(), dtype=np.uint8, count=len(self._sparse))
            state["sparse_keys"] = keys
            state["sparse_vals"] = vals
        return state

    @classmethod
    def from_state_dict(cls, state: dict) -> "HyperLogLogPlusPlus":
        sk = cls(p=state["p"], seed=state["seed"])
        sk._registers = state["registers"].astype(np.uint8)
        if "sparse_keys" in state:
            sk._sparse = dict(
                zip(
                    (int(k) for k in state["sparse_keys"]),
                    (int(v) for v in state["sparse_vals"]),
                )
            )
        else:
            sk._sparse = None
        return sk
