"""Bloom filters (Bloom 1970) — the paper's first sketch.

The paper's hook (§2): *"Perhaps the first example of something we can
think of as a sketch is due to Bloom in 1970 … compactly represents a
set as a collection of bits, easy to update with new entries, and to
query for (approximate) set membership"* — and (§3) the original
spell-checking motivation.

Guarantees: **no false negatives**, false-positive rate
``(1 − e^{−kn/m})^k`` for ``k`` hash functions, ``m`` bits, ``n``
insertions — the curve experiment E3 measures.  The optimal
``k = (m/n) ln 2`` gives FPR ``≈ 0.6185^{m/n}``.

:class:`CountingBloomFilter` replaces bits with small counters to
support deletions (at 4–8× the space), the classical extension.
"""

from __future__ import annotations

import math

import numpy as np

from ..core import MergeableSketch
from ..core.batch import canonical_keys
from ..hashing import HashFamily

__all__ = ["BloomFilter", "CountingBloomFilter", "optimal_bloom_parameters"]


def optimal_bloom_parameters(n: int, fpr: float) -> tuple[int, int]:
    """Bits ``m`` and hash count ``k`` for ``n`` items at target ``fpr``.

    m = −n ln(fpr) / (ln 2)², k = (m/n) ln 2.
    """
    if n < 1:
        raise ValueError(f"expected item count must be >= 1, got {n}")
    if not 0.0 < fpr < 1.0:
        raise ValueError(f"target FPR must be in (0, 1), got {fpr}")
    m = math.ceil(-n * math.log(fpr) / (math.log(2) ** 2))
    k = max(1, round((m / n) * math.log(2)))
    return m, k


class BloomFilter(MergeableSketch):
    """Standard Bloom filter.

    Construct either directly (``m``, ``k``) or from a capacity plan
    with :meth:`for_capacity`.
    """

    def __init__(self, m: int = 8192, k: int = 4, seed: int = 0) -> None:
        if m < 8:
            raise ValueError(f"bit count m must be >= 8, got {m}")
        if k < 1:
            raise ValueError(f"hash count k must be >= 1, got {k}")
        self.m = m
        self.k = k
        self.seed = seed
        self._hashes = HashFamily(k, seed)
        self._bits = np.zeros(m, dtype=bool)
        self.n_inserted = 0

    @classmethod
    def for_capacity(cls, n: int, fpr: float = 0.01, seed: int = 0) -> "BloomFilter":
        """Build a filter sized for ``n`` items at target ``fpr``."""
        m, k = optimal_bloom_parameters(n, fpr)
        return cls(m=m, k=k, seed=seed)

    def update(self, item: object) -> None:
        """Insert ``item``."""
        for h in self._hashes:
            self._bits[h.bucket(item, self.m)] = True
        self.n_inserted += 1

    add = update

    def update_many(self, items) -> None:
        """Vectorized bulk insert, bitwise identical to per-item updates.

        Accepts any iterable of sketchable items; numpy integer arrays
        canonicalize without a Python loop.
        """
        if self._hashes.family == "murmur3":
            for item in items:
                self.update(item)
            return
        keys = canonical_keys(items)
        if len(keys) == 0:
            return
        for h in self._hashes:
            self._bits[h.bucket_keys(keys, self.m)] = True
        self.n_inserted += len(keys)

    def __contains__(self, item: object) -> bool:
        """Membership query: False is certain, True may be a false positive."""
        return all(self._bits[h.bucket(item, self.m)] for h in self._hashes)

    def contains(self, item: object) -> bool:
        """Alias for ``item in filter``."""
        return item in self

    def expected_fpr(self, n: int | None = None) -> float:
        """Theoretical FPR after ``n`` (default: actual) insertions."""
        n = self.n_inserted if n is None else n
        return (1.0 - math.exp(-self.k * n / self.m)) ** self.k

    @property
    def fill_fraction(self) -> float:
        """Fraction of bits set."""
        return float(np.count_nonzero(self._bits)) / self.m

    def approx_count(self) -> float:
        """Estimate of insertions from the fill fraction (swamidass-baldi)."""
        x = np.count_nonzero(self._bits)
        if x == self.m:
            return float("inf")
        return -(self.m / self.k) * math.log(1.0 - x / self.m)

    def merge(self, other: "BloomFilter") -> None:
        """Union: OR the bit arrays."""
        self._check_mergeable(other, "m", "k", "seed")
        self._bits |= other._bits
        self.n_inserted += other.n_inserted

    @classmethod
    def _merge_many_impl(cls, parts: list) -> "BloomFilter":
        """k-way union: one OR-reduction over the bit arrays, in place."""
        first = parts[0]
        for other in parts[1:]:
            first._check_mergeable(other, "m", "k", "seed")
        merged = cls(m=first.m, k=first.k, seed=first.seed)
        bits = first._bits.copy()
        for sk in parts[1:]:
            bits |= sk._bits
        merged._bits = bits
        merged.n_inserted = sum(sk.n_inserted for sk in parts)
        return merged

    def intersect(self, other: "BloomFilter") -> "BloomFilter":
        """Approximate intersection filter (AND of bit arrays).

        Note the result's FPR is worse than a filter built from the true
        intersection — the standard caveat.
        """
        self._check_mergeable(other, "m", "k", "seed")
        result = BloomFilter(m=self.m, k=self.k, seed=self.seed)
        result._bits = self._bits & other._bits
        result.n_inserted = min(self.n_inserted, other.n_inserted)
        return result

    def memory_footprint(self) -> int:
        """O(1): the packed bitset payload (m/8) plus serde framing.

        The live filter trades 8x space for vectorized scatter speed (a
        ``bool`` array, one byte per bit); the footprint reports the
        packed-bitset state that ``to_bytes`` ships and that a
        bit-packed production deployment would hold.
        """
        return 128 + (self.m + 7) // 8

    def state_dict(self) -> dict:
        return {
            "m": self.m,
            "k": self.k,
            "seed": self.seed,
            "n_inserted": self.n_inserted,
            "bits": np.packbits(self._bits),
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "BloomFilter":
        sk = cls(m=state["m"], k=state["k"], seed=state["seed"])
        sk.n_inserted = state["n_inserted"]
        sk._bits = np.unpackbits(state["bits"])[: state["m"]].astype(bool)
        return sk


class CountingBloomFilter(MergeableSketch):
    """Bloom filter with counters instead of bits, supporting deletion.

    Counters saturate at the dtype maximum rather than wrapping, so a
    saturated cell can no longer be decremented reliably — the classic
    counting-Bloom caveat; 16-bit cells make saturation negligible.
    """

    def __init__(self, m: int = 8192, k: int = 4, seed: int = 0) -> None:
        if m < 8:
            raise ValueError(f"counter count m must be >= 8, got {m}")
        if k < 1:
            raise ValueError(f"hash count k must be >= 1, got {k}")
        self.m = m
        self.k = k
        self.seed = seed
        self._hashes = HashFamily(k, seed)
        self._counts = np.zeros(m, dtype=np.uint16)
        self.n_inserted = 0

    def update(self, item: object) -> None:
        """Insert ``item``."""
        for h in self._hashes:
            idx = h.bucket(item, self.m)
            if self._counts[idx] < np.iinfo(np.uint16).max:
                self._counts[idx] += 1
        self.n_inserted += 1

    add = update

    def update_many(self, items) -> None:
        """Bulk insert via per-hash bincount with saturating add.

        Saturation at the uint16 maximum is absorbing, so clamping the
        batched sum reproduces the per-item saturating increments
        exactly.
        """
        if self._hashes.family == "murmur3":
            for item in items:
                self.update(item)
            return
        keys = canonical_keys(items)
        if len(keys) == 0:
            return
        maxv = np.iinfo(np.uint16).max
        for h in self._hashes:
            inc = np.bincount(h.bucket_keys(keys, self.m), minlength=self.m)
            total = self._counts.astype(np.int64) + inc
            self._counts = np.minimum(total, maxv).astype(np.uint16)
        self.n_inserted += len(keys)

    def remove(self, item: object) -> None:
        """Delete one occurrence of ``item``.

        Deleting an item that was never inserted corrupts the filter
        (standard counting-Bloom semantics); we guard the obvious case
        by raising if any counter is already zero.
        """
        idxs = [h.bucket(item, self.m) for h in self._hashes]
        if any(self._counts[i] == 0 for i in idxs):
            raise KeyError(f"cannot remove {item!r}: not present")
        for i in idxs:
            self._counts[i] -= 1
        self.n_inserted -= 1

    def __contains__(self, item: object) -> bool:
        return all(self._counts[h.bucket(item, self.m)] > 0 for h in self._hashes)

    def contains(self, item: object) -> bool:
        """Alias for ``item in filter``."""
        return item in self

    def merge(self, other: "CountingBloomFilter") -> None:
        """Multiset union: add the counter arrays (saturating)."""
        self._check_mergeable(other, "m", "k", "seed")
        total = self._counts.astype(np.uint32) + other._counts.astype(np.uint32)
        self._counts = np.minimum(total, np.iinfo(np.uint16).max).astype(np.uint16)
        self.n_inserted += other.n_inserted

    @classmethod
    def _merge_many_impl(cls, parts: list) -> "CountingBloomFilter":
        """k-way union: one widened counter-stack sum, clamped once.

        Saturation at the uint16 maximum is absorbing under non-negative
        addition, so summing in int64 and clamping once is bitwise
        identical to the pairwise saturating fold.
        """
        first = parts[0]
        for other in parts[1:]:
            first._check_mergeable(other, "m", "k", "seed")
        merged = cls(m=first.m, k=first.k, seed=first.seed)
        total = first._counts.astype(np.int64)
        for sk in parts[1:]:
            total += sk._counts
        merged._counts = np.minimum(total, np.iinfo(np.uint16).max).astype(np.uint16)
        merged.n_inserted = sum(sk.n_inserted for sk in parts)
        return merged

    def memory_footprint(self) -> int:
        """O(1): the uint16 counter array plus serde framing."""
        return 128 + self._counts.nbytes

    def state_dict(self) -> dict:
        return {
            "m": self.m,
            "k": self.k,
            "seed": self.seed,
            "n_inserted": self.n_inserted,
            "counts": self._counts,
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "CountingBloomFilter":
        sk = cls(m=state["m"], k=state["k"], seed=state["seed"])
        sk.n_inserted = state["n_inserted"]
        sk._counts = state["counts"].astype(np.uint16)
        return sk
