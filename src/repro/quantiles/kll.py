"""KLL quantile sketch (Karnin, Lang & Liberty, FOCS 2016).

The paper's hook (§2): *"A sequence of papers further tightened
results on quantiles, leading to the Karnin-Lang-Liberty (KLL) optimal
quantile sketch, combining sampling with sketching ideas."*

A stack of *compactors*.  Level ℓ holds items each representing
``2^ℓ`` stream items.  When a compactor fills, it sorts its buffer and
promotes every other item (random even/odd offset) to level ℓ+1 — an
unbiased halving.  Capacities decay geometrically (``k·c^depth``,
c = 2/3), so total space is O(k) while rank error stays O(n/k)-ish
(the full analysis gives ε ≈ O(1/k) with high probability).

Fully mergeable with no error inflation (the property E7 exercises):
merging concatenates compactor levels and re-compacts.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from itertools import chain

import numpy as np

from ..core.exceptions import DeserializationError
from ..core.serde import encoded_nbytes, pack_rng_state, unpack_rng_state
from .base import QuantileSketch

__all__ = ["KLLSketch"]

#: wire bytes of one compactor level besides its 8 B values: the
#: ndarray tag, dtype string, shape and byte count.
LEVEL_WIRE_OVERHEAD = encoded_nbytes(np.empty(0, dtype=np.float64))


def levels_to_state(compactors: list) -> list:
    """Compactor levels as float64 ndarrays (one tagged buffer per level)."""
    return [np.array(buf, dtype=np.float64) for buf in compactors]


def levels_from_state(levels) -> list:
    """Compactor levels back from arrays, or from the older float lists."""
    out = []
    for buf in levels:
        if isinstance(buf, np.ndarray):
            if buf.ndim != 1 or buf.dtype.kind != "f":
                raise DeserializationError(
                    f"corrupt compactor level: dtype {buf.dtype}, ndim {buf.ndim}"
                )
            out.append(buf.astype(np.float64, copy=False).tolist())
        else:
            out.append(list(buf))
    return out


def footprint_of(sketch) -> int:
    """Wire size of a compactor-stack sketch: levels + RNG state."""
    stored = sum(LEVEL_WIRE_OVERHEAD + 8 * len(buf) for buf in sketch._compactors)
    return 128 + stored + encoded_nbytes(pack_rng_state(sketch._rng.getstate()))


def bulk_insert(sketch, values) -> int:
    """Buffered bulk insert shared by the compactor-stack sketches.

    Fills compactor 0 up to its capacity with list slices and
    compresses at exactly the same fill points as per-item updates, so
    the state (including RNG consumption) is identical to sequential
    ``update`` calls.  Returns the number of values inserted; the
    caller maintains ``n``.
    """
    if isinstance(values, np.ndarray):
        seq = values.astype(np.float64, copy=False).tolist()
    else:
        seq = [float(v) for v in values]
    total = len(seq)
    pos = 0
    sketch._view = None
    while pos < total:
        buf = sketch._compactors[0]
        cap = sketch._capacity(0)
        take = cap - len(buf)
        if take <= 0:
            sketch._compress()
            continue
        buf.extend(seq[pos : pos + take])
        pos += take
        if len(buf) >= cap:
            sketch._compress()
    return total


def sorted_view(sketch) -> tuple[list, list, int]:
    """``(values, cum_weights, finite)`` of a compactor stack, cached as ``_view``.

    Values ascend (stable sort, NaN last); level ℓ weighs 2^ℓ; ``finite``
    counts the non-NaN values.  Every mutation resets ``_view`` to None.
    """
    view = sketch._view
    if view is None:
        sizes = [len(buf) for buf in sketch._compactors]
        values = np.fromiter(chain.from_iterable(sketch._compactors), np.float64, sum(sizes))
        weights = np.repeat(np.left_shift(1, np.arange(len(sizes))), sizes)
        order = np.argsort(values, kind="stable")
        values = values[order]
        finite = len(values) - int(np.count_nonzero(np.isnan(values)))
        view = sketch._view = (values.tolist(), np.cumsum(weights[order]).tolist(), finite)
    return view


def view_rank(view, value: float) -> float:
    """Total weight of the non-NaN values ≤ ``value`` (0 for a NaN ``value``)."""
    values, cum, finite = view
    i = bisect_right(values, value, 0, finite if value == value else 0)
    return float(cum[i - 1]) if i else 0.0


def view_quantile(view, target: float) -> float:
    """First value whose cumulative weight reaches ``target``, else the last."""
    values, cum, _ = view
    return values[min(bisect_left(cum, target), len(values) - 1)]

_CAPACITY_DECAY = 2.0 / 3.0


class KLLSketch(QuantileSketch):
    """KLL sketch with parameter ``k`` (top-compactor capacity).

    Reads bisect a sorted view (:func:`sorted_view`) cached until the next mutation.
    """

    def __init__(self, k: int = 200, seed: int = 0) -> None:
        if k < 8:
            raise ValueError(f"k must be >= 8, got {k}")
        self.k = k
        self.seed = seed
        self._rng = random.Random(seed)
        self._compactors: list[list[float]] = [[]]
        # Per-level capacities for the current height (see _capacities).
        self._caps: list[int] = []
        self._view = None
        self.n = 0

    # -- internals ------------------------------------------------------------

    def _capacities(self) -> list[int]:
        """Per-level capacities k·c^(H−level), min 2 (H = top level).

        They depend only on the height, so the list is cached and
        rebuilt only when the number of levels changes — by ``_grow``
        or by code that assigns ``_compactors`` outright (``merge_many``,
        ``from_state_dict``).
        """
        caps = self._caps
        if len(caps) != len(self._compactors):
            height = len(self._compactors) - 1
            caps = self._caps = [
                max(2, int(self.k * (_CAPACITY_DECAY ** (height - level))))
                for level in range(height + 1)
            ]
        return caps

    def _capacity(self, level: int) -> int:
        """Capacity of ``level`` at the current height."""
        return self._capacities()[level]

    def _grow(self) -> None:
        self._compactors.append([])

    def _compact_level(self, level: int) -> None:
        """Halve ``level`` by promoting a random parity of its sorted items."""
        buf = self._compactors[level]
        buf.sort()
        if level + 1 == len(self._compactors):
            self._grow()
        # Promote a random parity; the rest are discarded — their weight
        # is now represented by the promoted items (unbiased halving).
        offset = self._rng.randrange(2)
        promoted = buf[offset::2]
        self._compactors[level] = []
        self._compactors[level + 1].extend(promoted)

    def _compress(self) -> None:
        self._view = None
        compactors = self._compactors
        caps = self._capacities()
        level = 0
        while level < len(compactors):
            if len(compactors[level]) >= caps[level]:
                self._compact_level(level)
                caps = self._capacities()  # a new top level shifts every capacity
            level += 1

    # -- public API ------------------------------------------------------------

    def update(self, value: float) -> None:
        """Insert one value."""
        buf = self._compactors[0]
        buf.append(float(value))
        self.n += 1
        self._view = None
        if len(buf) >= self._capacities()[0]:
            self._compress()

    def update_many(self, values) -> None:
        """Bulk insert; state-identical to per-value :meth:`update` calls."""
        self.n += bulk_insert(self, values)

    def rank(self, value: float) -> float:
        """Estimated number of items ≤ value (weighted count; a stored NaN never counts)."""
        self._require_data()
        return view_rank(sorted_view(self), value)

    def quantile(self, q: float) -> float:
        """Value at normalized rank q: the first whose cumulative weight reaches q·n."""
        self._check_q(q)
        self._require_data()
        return view_quantile(sorted_view(self), q * self.n)

    def rank_error_bound(self) -> float:
        """Normalized rank error ε at 99% confidence (≈ 2.296 / k^0.93).

        The Apache DataSketches calibration of the KLL analysis's
        ε ≈ O(1/k): for the default ``k=200`` this gives ≈ 0.0166,
        matching the "well under 2%" contract in :mod:`repro.obs`.
        Merging never inflates the bound, so a ``merge_many`` fold of
        same-``k`` partials carries the same ε — which is what lets a
        drift detector compare two folded CDFs against a principled
        2ε divergence threshold (:class:`~repro.obs.alerts.DriftRule`).
        """
        return 2.296 / self.k**0.9299

    @property
    def size(self) -> int:
        """Total retained items across compactors."""
        return sum(len(buf) for buf in self._compactors)

    @property
    def num_levels(self) -> int:
        """Number of compactor levels."""
        return len(self._compactors)

    def merge(self, other: "KLLSketch") -> None:
        """Merge by concatenating levels, then recompacting."""
        self._check_mergeable(other, "k")
        while len(self._compactors) < len(other._compactors):
            self._grow()
        for level, buf in enumerate(other._compactors):
            self._compactors[level].extend(buf)
        self.n += other.n
        self._compress()

    # Parts folded between compression cascades in ``_merge_many_impl``.
    # Unbounded concatenation backfires for KLL: capacities decay
    # geometrically, so a k-deep concat makes every level's sort
    # quadratically larger than the ~2·capacity sorts the pairwise fold
    # pays, and at k ≳ 64 the giant sorts cost more than the k − 1
    # cascades they replace.  Batching keeps buffers bounded at
    # ~batch·capacity while still amortizing the cascade overhead.
    _MERGE_BATCH = 8

    @classmethod
    def _merge_many_impl(cls, parts: list) -> "KLLSketch":
        """k-way merge: concatenate levels in batches, compress per batch.

        One compaction cascade per ``_MERGE_BATCH`` parts instead of one
        per part.  The result is a valid KLL sketch over the combined
        stream, equal to the fold in distribution — compaction parities
        are random, so the exact retained items differ — and
        deterministic given the inputs' states.
        """
        first = parts[0]
        for other in parts[1:]:
            first._check_mergeable(other, "k")
        merged = cls(k=first.k, seed=first.seed)
        merged._rng.setstate(first._rng.getstate())
        merged._compactors = [list(buf) for buf in first._compactors]
        pending = 0
        for sk in parts[1:]:
            while len(merged._compactors) < len(sk._compactors):
                merged._grow()
            for level, buf in enumerate(sk._compactors):
                merged._compactors[level].extend(buf)
            pending += 1
            if pending >= cls._MERGE_BATCH:
                merged._compress()
                pending = 0
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
    def from_state_dict(cls, state: dict) -> "KLLSketch":
        sk = cls(k=state["k"], seed=state["seed"])
        sk.n = state["n"]
        sk._compactors = levels_from_state(state["compactors"])
        sk._rng.setstate(unpack_rng_state(state["rng_state"]))
        return sk
