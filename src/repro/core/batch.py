"""Batch-update kernel layer shared by every sketch family.

The adoption story the paper tells (§3) is that sketches won production
deployments because well-engineered libraries made the *update path*
cheap; "Sketchy With a Chance of Adoption" likewise identifies per-item
software overhead as the main barrier to sketch-based telemetry.  In
pure Python that overhead is the interpreter itself, so the only way to
be "as fast as the hardware allows" is to amortize it: canonicalize a
whole batch of items into a ``uint64`` key array **once**, then run
numpy kernels over the keys.

This module is that shared layer.  Every ``update_many`` in the library
goes through :func:`canonical_keys` (one audited canonicalization
routine instead of per-sketch boilerplate), hashes keys via
``HashFunction.hash_keys`` / ``bucket_keys`` / ``sign_keys``, and then
applies a family-specific numpy kernel.  All batch paths are *exact*:
``sk.update_many(items)`` leaves the sketch in a state identical to
``for x in items: sk.update(x)`` (the parity gate
``tests/core/test_batch_parity.py`` and the properties in
``tests/core/test_batch.py`` enforce this).

Batch-update protocol
---------------------

- ``update_many(items)`` accepts any iterable of sketchable items: a
  1-D numpy array (integer dtypes take a zero-copy fast path), or any
  iterable of ``int`` / ``str`` / ``bytes`` / ``float`` / ``bool`` /
  ``None`` / ``tuple``.
- Weighted sketches accept ``update_many(items, weights)`` where
  ``weights`` is a scalar (applied uniformly) or a per-item array.
- State after ``update_many`` is identical to the equivalent sequence
  of scalar ``update`` calls — including RNG consumption for the
  randomized quantile sketches.
- A family's ``batch_form`` (:class:`KeyedBatch`, :func:`float_batch`,
  :func:`hashable_batch`) checks a whole batch as its ``update_many``
  would and returns it in a form ``update_many`` then takes, with the
  same effect, without raising.  The GROUP BY default kernel applies
  it to the whole batch before any group is updated.
- Sketches configured with the byte-based ``"murmur3"`` hash family
  fall back to the per-item path (keys cannot reproduce byte hashing);
  all key-based families (``mix``, ``kwise2``, ``kwise4``,
  ``tabulation``) batch correctly, with full vectorization for ``mix``.

Per-family support matrix
-------------------------

==========================  ===============================================
family                      batch strategy
==========================  ===============================================
HyperLogLog / LogLog        vectorized register kernel (:func:`register_update`);
                            a GROUP BY batch is hashed once in stream
                            order and only its (index, ρ) arrays are
                            sorted by group
HyperLogLogPlusPlus         vectorized hashing; sparse inserts from the hash
                            array, switching to the dense kernel mid-batch
CountMinSketch              per-row ``np.add.at`` scatter; conservative
                            variant precomputes all row buckets, then a
                            tight per-item loop
CountSketch                 per-row signed scatter
BloomFilter                 per-hash vectorized bit set
CountingBloomFilter         ``np.bincount`` + saturating add
SpaceSaving                 chunked scalar loop with run-length collapse
                            (order-dependent evictions stay sequential)
KMVSketch                   hash batch → k smallest distinct via ``np.unique``
KLLSketch / ReqSketch       buffered bulk insert into compactor 0
AMSSketch                   chunked ±1 sign matrix × weight vector
StreamPipeline.feed         batched operator dispatch via ``process_many``
GroupBySketcher             group ids in first-appearance order, then one
                            ``Sketch.update_grouped(sketches, items, gids)``
                            over the batch in stream order; the other
                            families' default kernel is the one place that
                            regroups records, stably (HLL++, SpaceSaving,
                            KLL, conservative CountMin depend on order)
ConcurrentSketch            routes batches to the thread-local replica
==========================  ===============================================
"""

from __future__ import annotations

import numpy as np

from ..hashing import item_to_u64

__all__ = [
    "KeyedBatch",
    "canonical_keys",
    "canonical_weights",
    "float_batch",
    "group_slices",
    "hashable_batch",
    "hll_registers",
    "register_update",
]

_I63_MAX = 1 << 63
_EXACT_INT = {int}


def canonical_keys(items) -> np.ndarray:
    """Canonicalize an iterable of sketchable items to ``uint64`` keys.

    The returned array holds exactly ``item_to_u64(x)`` for each item,
    so hashing it with ``HashFunction.hash_keys`` is bitwise identical
    to the scalar per-item path.  1-D numpy integer arrays whose values
    fit the fast path (non-negative, below ``2^63``) convert without a
    Python loop, as do lists of exact ``int`` (no ``bool`` or subclass)
    in that range, on which ``item_to_u64`` is the identity.  Everything
    else routes each element through :func:`~repro.hashing.item_to_u64`.

    Raises ``TypeError`` for items outside the canonicalizable set
    (same contract as scalar updates, but before any state mutation).
    A :class:`KeyedBatch` hands back the keys it already holds.
    """
    if type(items) is KeyedBatch:
        return items.keys
    if isinstance(items, np.ndarray):
        if items.ndim != 1:
            raise TypeError(
                f"batch updates require a 1-D array, got shape {items.shape}"
            )
        kind = items.dtype.kind
        if kind == "i":
            if items.size == 0 or int(items.min()) >= 0:
                return items.astype(np.uint64, copy=False)
        elif kind == "u":
            if items.size == 0 or int(items.max()) < _I63_MAX:
                return items.astype(np.uint64, copy=False)
    try:
        n = len(items)
    except TypeError:
        items = list(items)
        n = len(items)
    if isinstance(items, list) and set(map(type, items)) == _EXACT_INT:
        try:
            keys = np.array(items, dtype=np.int64)
        except OverflowError:  # an int at or above 2^63
            pass
        else:
            if int(keys.min()) >= 0:
                return keys.view(np.uint64)
    return np.fromiter((item_to_u64(x) for x in items), dtype=np.uint64, count=n)


class KeyedBatch:
    """A batch of items with their canonical keys, computed once.

    Building one raises what :func:`canonical_keys` raises, so every
    item is checked before any sketch sees the batch.  Given one,
    ``canonical_keys`` returns the stored keys, and iterating it yields
    the items (the per-item path of a ``murmur3`` sketch hashes their
    bytes, whose domain is the same).  Slicing slices both.
    """

    __slots__ = ("items", "keys")

    def __init__(self, items, keys=None) -> None:
        self.items = items
        self.keys = canonical_keys(items) if keys is None else keys

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def __getitem__(self, index: slice) -> "KeyedBatch":
        return KeyedBatch(self.items[index], self.keys[index])


def float_batch(items) -> np.ndarray:
    """A batch of values as float64, each through ``float`` (raising what it raises)."""
    return np.fromiter(map(float, items), dtype=np.float64, count=len(items))


def hashable_batch(items) -> list:
    """The batch unchanged, once every item hashes (``TypeError`` if one does not)."""
    for item in items:
        hash(item)
    return items


def canonical_weights(weights, n: int) -> np.ndarray:
    """Canonicalize a scalar-or-array weight argument to int64 of length ``n``.

    A scalar broadcasts uniformly; an array must have length ``n``.
    Raises ``TypeError`` for non-integral weights (sketch counters are
    exact integers) and ``ValueError`` on length mismatch.
    """
    w = np.asarray(weights)
    if w.dtype.kind not in "iu" and not (
        w.dtype.kind == "f" and np.all(w == np.trunc(w))
    ):
        raise TypeError(f"weights must be integers, got dtype {w.dtype}")
    if w.ndim == 0:
        return np.full(n, int(w), dtype=np.int64)
    if w.ndim != 1 or len(w) != n:
        raise ValueError(
            f"weights length {w.shape} does not match {n} items"
        )
    return w.astype(np.int64)


def hll_registers(
    hashes: np.ndarray, p: int, max_rho: int
) -> tuple[np.ndarray, np.ndarray]:
    """The HyperLogLog register kernel: hashes → (index, ρ) arrays.

    Splits each 64-bit hash into a ``p``-bit register index and computes
    ρ = 1-based position of the lowest set bit of the remainder (capped
    at ``max_rho + 1`` for an all-zero remainder), matching
    :func:`repro.cardinality.loglog.rho64` bit for bit.  Apply with
    ``np.maximum.at(registers, idx, rho)``.
    """
    idx = (hashes >> np.uint64(64 - p)).astype(np.int64)
    rest = hashes & np.uint64((1 << (64 - p)) - 1)
    nonzero = rest != 0
    with np.errstate(over="ignore"):
        low = rest & (~rest + np.uint64(1))  # isolate lowest set bit
    tz = np.zeros(len(hashes), dtype=np.float64)
    tz[nonzero] = np.log2(low[nonzero].astype(np.float64))
    rho = np.where(nonzero, (tz + 1).astype(np.uint8), np.uint8(max_rho + 1))
    return idx, rho


def group_slices(gids: np.ndarray, groups: int) -> tuple[np.ndarray, list]:
    """Stable sort order of ``gids`` and each group's ``(lo, hi)`` slice in that order.

    Group ``g``'s items, taken through ``order[lo:hi]``, keep their
    stream order; a group with no items gets an empty slice.
    """
    order = np.argsort(gids, kind="stable")
    ends = np.bincount(gids, minlength=groups).cumsum().tolist()
    return order, list(zip([0, *ends], ends))


def register_update(sketches: list, keys: np.ndarray, gids=None) -> None:
    """Scatter canonical ``keys`` into HyperLogLog/LogLog register files.

    ``sketches[gids[i]]`` takes ``keys[i]``; without ``gids`` every key
    goes to the one sketch in ``sketches``.  Every sketch must be
    mergeable with the first (checked before any register changes).  The
    keys are hashed and split into (index, ρ) once, in stream order;
    since a register maximum does not depend on order, only those two
    integer arrays are sorted by group, and one ``np.maximum.at`` per
    group applies its slice.  No ``groups × m`` matrix is built.
    """
    first = sketches[0]
    for other in sketches[1:]:
        first._check_mergeable(other, "p", "seed")
    if len(keys) == 0:
        return
    idx, rho = hll_registers(first._hash.hash_keys(keys), first.p, first._max_rho)
    if gids is None:
        np.maximum.at(first._registers, idx, rho)
        return
    order, slices = group_slices(gids, len(sketches))
    idx, rho = idx[order], rho[order]
    for sketch, (lo, hi) in zip(sketches, slices):
        np.maximum.at(sketch._registers, idx[lo:hi], rho[lo:hi])
