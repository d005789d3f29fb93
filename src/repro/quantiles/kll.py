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


#: a stream flips this many coins one at a time before it draws batches
_SCALAR_FLIPS = 16
#: batches double from 2 × _SCALAR_FLIPS up to this many coins
_MAX_BATCH = 1024


def splitmix64_top_bits(state: int, size: int) -> list:
    """Top bits of the splitmix64 outputs at states ``state + j·γ mod 2⁶⁴``, j = 1..size.

    The mix's last step, z ^ (z >> 31), leaves the top bit as it is.
    """
    z = np.arange(1, size + 1, dtype=np.uint64) * np.uint64(_GOLDEN_GAMMA) + np.uint64(state)
    z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    return (((z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)) >> 63).tolist()


class Coins:
    """Fair coins from a splitmix64 stream; the whole state is one int in [0, 2⁶⁴).

    Flip j (from 1) is the top bit of the splitmix64 output at state
    ``seed + j·γ mod 2⁶⁴``.  So a state can skip ahead by any number of
    flips, and after ``_SCALAR_FLIPS`` single flips the stream draws
    its coins ahead in numpy batches (:func:`splitmix64_top_bits`) of
    32 doubling up to ``_MAX_BATCH``: a sketch that flips once or twice
    (a small window partial, a fold result) pays no numpy call, a busy one
    pays well under a scalar mix per coin.  ``state`` is computed from
    the batch's start state and the flips taken since, exact after
    every flip; assigning it drops the coins drawn ahead.
    """

    __slots__ = ("_start", "_bits", "_taken")

    def __init__(self, seed: int = 0) -> None:
        self._start = int(seed) & _MASK64
        self._bits = ()
        self._taken = 0

    @property
    def state(self) -> int:
        return (self._start + self._taken * _GOLDEN_GAMMA) & _MASK64

    @state.setter
    def state(self, value: int) -> None:
        self.__init__(value)

    def flip(self) -> int:
        """0 or 1: the next coin of the stream; the state advances by γ."""
        taken = self._taken
        bits = self._bits
        if taken < len(bits):
            self._taken = taken + 1
            return bits[taken]
        if not bits and taken < _SCALAR_FLIPS:
            # :func:`splitmix64_top_bits` of one state, in Python ints
            self._taken = taken + 1
            z = (self._start + (taken + 1) * _GOLDEN_GAMMA) & _MASK64
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            return ((z ^ (z >> 27)) * 0x94D049BB133111EB) >> 63 & 1
        start = self._start = self.state
        bits = self._bits = splitmix64_top_bits(
            start, min(2 * max(len(bits), _SCALAR_FLIPS), _MAX_BATCH))
        self._taken = 1
        return bits[0]

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

    Fills compactor 0 up to its capacity with a list slice and hands
    the rest to :func:`compress`, which compacts at exactly the fill
    points per-item updates would, so the state (coin consumption
    included) is identical to sequential ``update`` calls.  Returns the
    number of values inserted; the caller maintains ``n``.
    """
    if isinstance(values, np.ndarray):
        seq = values.astype(np.float64, copy=False).tolist()
    else:
        seq = [float(v) for v in values]
    sketch._view = None
    if seq:
        buf = sketch._compactors[0]
        cap = sketch._capacities()[0]
        take = max(cap - len(buf), 0)
        buf.extend(seq[:take])
        if len(buf) >= cap:
            compress(sketch, seq, take)
    return len(seq)


def compress(sketch, values=(), pos=0) -> None:
    """Compaction passes up a compactor stack, shared by KLL and REQ.

    One pass now, then one each time ``values[pos:]`` fills level 0
    again (:func:`bulk_insert`).  A pass walks up from level 0: a level
    holding at least its capacity is sorted and a random parity of its
    low part promoted to the level above, growing the stack at the
    top; the rest stays.  KLL halves the whole level
    (``_protects_top_half`` False); REQ keeps its top half, so its large
    values stay exact.  Capacities come from ``sketch._capacities()``.

    A pass stops at the first level it leaves under capacity when
    ``sketch._settled`` says every level was under capacity before it:
    the levels above are then untouched and stay under, so an insert
    costs the levels it compacts, not the height.  A pass that grows
    the stack shrinks the capacities below the new top, and a protected
    half can itself be over capacity, so either clears the flag and the
    next pass scans every level.  ``merge`` and any code that assigns
    ``_compactors`` clear it too (a new sketch starts cleared), so each
    pass compacts exactly the levels a rescan of every level would.
    """
    sketch._view = None
    levels = sketch._compactors
    caps = sketch._capacities()
    protect = sketch._protects_top_half
    flip = sketch._coins.flip
    settled = sketch._settled
    total = len(values)
    while True:
        scan_all = not settled
        settled = True
        level = 0
        top = len(levels) - 1
        while True:
            buf = levels[level]
            size = len(buf)
            if size >= caps[level]:
                buf.sort()
                if level == top:
                    levels.append([])
                    caps = sketch._capacities()
                    top += 1
                    settled = False
                cut = size - (size >> 1) if protect else size
                levels[level + 1].extend(buf[flip() : cut : 2])
                levels[level] = buf[cut:]
                if size - cut >= caps[level]:
                    settled = False
            elif not scan_all:
                break
            if level == top:
                break
            level += 1
        if pos >= total:
            break
        buf = levels[0]
        take = caps[0] - len(buf)
        if take > 0:
            buf.extend(values[pos : pos + take])
            pos += take
            if len(buf) < caps[0]:
                break
    sketch._settled = settled


def merge_levels(sketch, other) -> None:
    """Pool ``other``'s levels into ``sketch``'s, level by level, then compress."""
    levels = sketch._compactors
    levels.extend([] for _ in range(len(other._compactors) - len(levels)))
    for buf, theirs in zip(levels, other._compactors):
        buf.extend(theirs)
    sketch.n += other.n
    sketch._settled = False
    compress(sketch)


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
        # Every level under capacity (see compress); new sketches start cleared.
        self._settled = False
        self._view = None
        self.n = 0

    # -- internals ------------------------------------------------------------

    #: compactions halve a whole level (:func:`compress`)
    _protects_top_half = False

    def _capacities(self) -> list[int]:
        """Per-level capacities k·c^(H−level), min 2 (H = top level).

        They depend only on the height, so the list is cached and
        rebuilt only when the number of levels changes — by a compaction
        that grows the stack, ``merge``, or code that assigns
        ``_compactors`` outright (``merge_many``, ``from_state_dict``).
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

    # -- public API ------------------------------------------------------------

    def update(self, value: float) -> None:
        """Insert one value."""
        buf = self._compactors[0]
        buf.append(float(value))
        self.n += 1
        self._view = None
        if len(buf) >= self._capacities()[0]:
            compress(self)

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
        merge_levels(self, other)

    @classmethod
    def _merge_many_impl(cls, parts: list) -> "KLLSketch":
        """k-way merge in one pass: gather every level, then compact each at most once.

        Walking up from level 0, a level holding at least its capacity is
        sorted with ``np.sort`` and a random parity promoted, as
        :func:`compress` does.  The result is a valid KLL sketch
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
