"""Merge parity gate: k-way ``merge_many`` against the pairwise merge fold.

Builds ``K_PARTS`` partial sketches per family, collapses them with one
``merge_many`` call and with a sequential ``merge`` fold, and compares
full ``state_dict()`` contents.  Two modes:

* bitwise families — identical state to the fold.  Counter summaries
  (SpaceSaving, Misra–Gries) run under capacity, where the fold is
  exact; the weighted reservoir's key competition is deterministic;
* deterministic families — randomized compactors (KLL, REQ) and the
  uniform reservoir consume their coins differently from a pairwise
  cascade by design, so they are checked for determinism (the same
  inputs give the same state) and exact total weight.

The exhaustive version, over more part counts and edge cases, is
``tests/core/test_merge_many.py``.
"""

import numpy as np
import pytest

from repro.cardinality import (
    FlajoletMartin,
    HyperLogLog,
    HyperLogLogPlusPlus,
    KMVSketch,
    LogLog,
)
from repro.frequency import CountMinSketch, CountSketch, MisraGries, SpaceSaving
from repro.lsh import MinHash
from repro.membership import BloomFilter, CountingBloomFilter
from repro.moments import AMSSketch
from repro.quantiles import KLLSketch, ReqSketch
from repro.sampling import ReservoirSampler, WeightedReservoirSampler

from .test_merge_many import normalize, pairwise_fold

K_PARTS = 8
STREAM = 2000

BITWISE_FAMILIES = [
    ("HyperLogLog", lambda: HyperLogLog(p=10, seed=1), 0),
    ("HLL++", lambda: HyperLogLogPlusPlus(p=8, seed=1), 0),
    ("LogLog", lambda: LogLog(p=10, seed=1), 0),
    ("FlajoletMartin", lambda: FlajoletMartin(m=64, seed=1), 0),
    ("MinHash", lambda: MinHash(num_perm=16, seed=1), 0),
    ("CountMin", lambda: CountMinSketch(width=128, depth=4, seed=1), 0),
    ("CountSketch", lambda: CountSketch(width=128, depth=4, seed=1), 0),
    ("Bloom", lambda: BloomFilter(m=2048, k=4, seed=1), 0),
    ("CountingBloom", lambda: CountingBloomFilter(m=1024, k=4, seed=1), 0),
    ("KMV", lambda: KMVSketch(k=128, seed=1), 0),
    ("AMS", lambda: AMSSketch(buckets=32, groups=4, seed=1), 0),
    # counter summaries: exact while the combined support fits in k
    ("SpaceSaving", lambda: SpaceSaving(k=64), 40),
    ("MisraGries", lambda: MisraGries(k=64), 40),
    # weighted reservoir: key competition is deterministic, so exact
    ("WeightedReservoir", lambda: WeightedReservoirSampler(k=64, seed=1), 0),
]

# Deterministic given inputs, distribution-equivalent to the fold.
DETERMINISTIC_FAMILIES = [
    ("KLL", lambda: KLLSketch(k=128, seed=1)),
    ("REQ", lambda: ReqSketch(k=8, seed=1)),
    ("Reservoir", lambda: ReservoirSampler(k=128, seed=1)),
]


def build_parts(factory, universe, floats=False):
    parts = []
    for seed in range(K_PARTS):
        rng = np.random.default_rng(seed)
        stream = rng.normal(size=STREAM) if floats else rng.integers(0, universe, STREAM)
        sk = factory()
        sk.update_many(stream)
        parts.append(sk)
    return parts


@pytest.mark.parametrize(
    "factory,universe",
    [f[1:] for f in BITWISE_FAMILIES],
    ids=[f[0] for f in BITWISE_FAMILIES],
)
def test_merge_many_equals_pairwise_fold(factory, universe):
    parts = build_parts(factory, universe or 4000)
    merged = type(parts[0]).merge_many(parts)
    assert normalize(merged.state_dict()) == normalize(pairwise_fold(parts).state_dict())


@pytest.mark.parametrize(
    "factory", [f[1] for f in DETERMINISTIC_FAMILIES], ids=[f[0] for f in DETERMINISTIC_FAMILIES]
)
def test_merge_many_is_deterministic_with_exact_weight(factory):
    parts = build_parts(factory, 0, floats=True)
    merged = type(parts[0]).merge_many(parts)
    again = type(merged).merge_many(build_parts(factory, 0, floats=True))
    assert merged.n == K_PARTS * STREAM
    assert normalize(merged.state_dict()) == normalize(again.state_dict())
