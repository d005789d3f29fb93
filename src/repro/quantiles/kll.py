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

Fully mergeable with no error inflation (the property E7 exercises).
``merge`` concatenates another sketch's levels and re-compacts.
``merge_many`` folds k parts in one pass: it gathers each level across
every part into one float64 array (:func:`gather_levels`) and walks the
levels once, sorting a level that holds at least its capacity with
``np.sort`` and promoting a random parity.  Each level compacts at most
once however many parts the fold has, and a single compaction of a
sorted buffer of any size adds at most its weight to any rank error.

The only randomness is one fair coin per compaction, so a sketch's
generator is :class:`Coins`, a splitmix64 stream whose whole state is
one 64-bit int — what ``state_dict`` persists as ``"rng_state"``.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from itertools import chain

import numpy as np

from ..core.batch import float_batch
from ..core.exceptions import DeserializationError
from ..core.serde import Layout, unpack_rng_state
from .base import QuantileSketch

__all__ = ["KLLSketch"]

_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15


class Coins:
    """Fair coins from a splitmix64 stream; the whole state is one int in [0, 2⁶⁴)."""

    __slots__ = ("state",)

    def __init__(self, seed: int = 0) -> None:
        self.state = int(seed) & _MASK64

    def flip(self) -> int:
        """Advance by the golden gamma; 0 or 1, the top bit of the splitmix64 mix."""
        z = self.state = (self.state + _GOLDEN_GAMMA) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        # The mix's last step, z ^ (z >> 31), leaves the top bit as it is.
        return ((z ^ (z >> 27)) * 0x94D049BB133111EB) >> 63 & 1

    @classmethod
    def from_state(cls, value) -> "Coins":
        """Coins from a persisted ``rng_state``: the int, or a legacy MT state.

        Blobs written before the coin stream carry a Mersenne Twister
        state; it seeds the coin state deterministically with its next
        ``getrandbits(64)``.  Anything else raises ``DeserializationError``.
        """
        if type(value) is not int or not 0 <= value <= _MASK64:
            legacy = random.Random()
            try:
                legacy.setstate(unpack_rng_state(value))
            except (TypeError, ValueError, OverflowError) as exc:
                raise DeserializationError(f"corrupt rng state: {exc}") from exc
            value = legacy.getrandbits(64)
        return cls(value)


#: fixed wire layout of a compactor-stack state (KLL and REQ): four
#: ints in one struct, then each level's float64 values raw.
COMPACTOR_LAYOUT = Layout(
    k="I", seed="q", n="q", compactors=[np.float64], rng_state="Q"
)


def rank_epsilon(k: int) -> float:
    """Normalized rank error ε at 99% confidence: DataSketches' fit of ε = O(1/k)."""
    return 2.296 / k**0.9299


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
    """Wire size of a compactor-stack sketch: its fixed layout over the live levels.

    Exact (``len(sketch.to_bytes())``) whenever the state fits the layout.
    """
    lengths = [len(buf) for buf in sketch._compactors]
    return COMPACTOR_LAYOUT.blob_nbytes(type(sketch).__name__, lengths)


def bulk_insert(sketch, values) -> int:
    """Buffered bulk insert shared by the compactor-stack sketches.

    Fills compactor 0 up to its capacity with list slices and
    compresses at exactly the same fill points as per-item updates, so
    the state (including coin consumption) is identical to sequential
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


def gather_levels(cls, parts: list):
    """A fresh ``cls`` over mergeable ``parts``, its levels not yet compacted.

    It has the parts' summed ``n`` and the first part's coin state, and
    its ``_compactors`` hold each level of every part, in part order, as
    one float64 array.  The caller compacts them and turns them back
    into lists: the one gather of both compactor-stack ``merge_many``.
    """
    first = parts[0]
    for other in parts[1:]:
        first._check_mergeable(other, "k")
    merged = cls(k=first.k, seed=first.seed)
    merged._coins.state = first._coins.state
    merged.n = sum(sk.n for sk in parts)
    height = max(len(sk._compactors) for sk in parts)
    merged._compactors = []
    for level in range(height):
        bufs = [sk._compactors[level] for sk in parts if level < len(sk._compactors)]
        merged._compactors.append(
            np.fromiter(chain.from_iterable(bufs), np.float64, sum(map(len, bufs)))
        )
    return merged


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
_NO_ITEMS = np.empty(0)


class KLLSketch(QuantileSketch):
    """KLL sketch with parameter ``k`` (top-compactor capacity).

    Reads bisect a sorted view (:func:`sorted_view`) cached until the next mutation.
    """

    batch_form = staticmethod(float_batch)
    wire_layout = COMPACTOR_LAYOUT

    def __init__(self, k: int = 200, seed: int = 0) -> None:
        if k < 8:
            raise ValueError(f"k must be >= 8, got {k}")
        self.k = k
        self.seed = seed
        self._coins = Coins(seed)
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
        promoted = buf[self._coins.flip()::2]
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
        """Normalized rank error ε at 99% confidence: :func:`rank_epsilon` of ``k``.

        Merging never inflates the bound, so a ``merge_many`` fold of
        same-``k`` partials carries the same ε — which is what lets a
        drift detector compare two folded CDFs against a principled
        2ε divergence threshold (:class:`~repro.obs.alerts.DriftRule`).
        """
        return rank_epsilon(self.k)

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

    @classmethod
    def _merge_many_impl(cls, parts: list) -> "KLLSketch":
        """k-way merge in one pass: gather every level, then compact each at most once.

        Walking up from level 0, a level holding at least its capacity is
        sorted with ``np.sort`` and a random parity promoted, as
        :meth:`_compact_level` does.  The result is a valid KLL sketch
        over the combined stream with exact ``n``, its ranks unbiased and
        within the same bound as the pairwise fold's (with fewer
        compactions, tighter in practice); its coins continue from the
        first part's, one flip per compaction, so it is deterministic
        given the inputs.
        """
        merged = gather_levels(cls, parts)
        levels, coins = merged._compactors, merged._coins
        caps = merged._capacities()
        level = 0
        while level < len(levels):
            if len(levels[level]) >= caps[level]:
                if level + 1 == len(levels):
                    levels.append(_NO_ITEMS)
                    caps = merged._capacities()  # a new top level shifts every capacity
                promoted = np.sort(levels[level])[coins.flip()::2]
                levels[level + 1] = np.concatenate((levels[level + 1], promoted))
                levels[level] = _NO_ITEMS
            level += 1
        merged._compactors = [buf.tolist() for buf in levels]
        return merged

    def memory_footprint(self) -> int:
        """O(levels): retained values (8 B each on the wire) + one coin-state int."""
        return footprint_of(self)

    def state_dict(self) -> dict:
        return {
            "k": self.k,
            "seed": self.seed,
            "n": self.n,
            "compactors": levels_to_state(self._compactors),
            "rng_state": self._coins.state,
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "KLLSketch":
        sk = cls(k=state["k"], seed=state["seed"])
        sk.n = state["n"]
        sk._compactors = levels_from_state(state["compactors"])
        sk._coins = Coins.from_state(state["rng_state"])
        return sk
