"""Batch kernel layer: canonicalization units + update_many ≡ update parity.

Every family gaining a vectorized ``update_many`` must land in a state
*identical* to per-item ``update`` calls — same tables, same registers,
same RNG position.  These tests compare full ``state_dict()`` contents,
not just estimates.
"""

import numpy as np
import pytest

import enum

from repro.cardinality import HyperLogLog, HyperLogLogPlusPlus, KMVSketch, LogLog
from repro.core.batch import canonical_keys, canonical_weights, hll_registers
from repro.frequency import CountMinSketch, CountSketch, SpaceSaving
from repro.hashing import HashFamily, HashFunction, item_to_u64
from repro.membership import BloomFilter, CountingBloomFilter
from repro.moments import AMSSketch
from repro.quantiles import KLLSketch, ReqSketch
from repro.streaming import GroupBySketcher, StreamPipeline


def normalize(value):
    """Make a state-dict comparable with ``==`` (arrays → bytes)."""
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, dict):
        return {k: normalize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [normalize(v) for v in value]
    return value


def assert_same_state(batched, sequential):
    assert normalize(batched.state_dict()) == normalize(sequential.state_dict())


RNG = np.random.default_rng(42)
INT_STREAM = RNG.integers(0, 500, size=3000)
SKEWED_STREAM = np.sort(RNG.zipf(1.3, size=2000) % 100)  # runs of equal items
FLOAT_STREAM = RNG.normal(size=3000)
MIXED_STREAM = [0, -1, 2**70, "alpha", "beta", b"\x00raw", 3.5, None, True, ("t", 1)]


class TestCanonicalKeys:
    def test_matches_item_to_u64_for_python_items(self):
        keys = canonical_keys(MIXED_STREAM)
        assert keys.dtype == np.uint64
        assert keys.tolist() == [item_to_u64(x) for x in MIXED_STREAM]

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint8, np.uint64])
    def test_integer_arrays_fast_path(self, dtype):
        arr = np.array([0, 1, 5, 120], dtype=dtype)
        keys = canonical_keys(arr)
        assert keys.tolist() == [item_to_u64(int(x)) for x in arr]

    def test_negative_ints_match_scalar_canonicalization(self):
        arr = np.array([-1, -2, 3], dtype=np.int64)
        assert canonical_keys(arr).tolist() == [item_to_u64(int(x)) for x in arr]

    def test_huge_uint64_match_scalar_canonicalization(self):
        arr = np.array([2**63 + 5, 2**64 - 1], dtype=np.uint64)
        assert canonical_keys(arr).tolist() == [item_to_u64(int(x)) for x in arr]

    def test_generator_input(self):
        keys = canonical_keys(str(i) for i in range(10))
        assert keys.tolist() == [item_to_u64(str(i)) for i in range(10)]

    def test_empty(self):
        assert len(canonical_keys([])) == 0
        assert len(canonical_keys(np.array([], dtype=np.int64))) == 0

    def test_rejects_2d(self):
        with pytest.raises(TypeError):
            canonical_keys(np.zeros((2, 2), dtype=np.int64))


class _Port(enum.IntEnum):
    HTTP = 80


class _MyInt(int):
    pass


class TestCanonicalKeysIntListFastPath:
    """All-exact-``int`` lists convert in one step; anything else keeps item_to_u64."""

    @pytest.mark.parametrize(
        "items",
        [
            [0, 1, 5, 2**40, 2**63 - 1],
            [7],
            [1, True, 3],
            [1, False],
            [5, -1, 3],
            [-(2**64), 2],
            [1, 2**63],
            [2**64 - 1, 0],
            [1, np.int64(5)],
            [1, np.uint64(2**63 + 1)],
            [1, _MyInt(9)],
            [1, _Port.HTTP],
            [1, 2.0],
        ],
        ids=[
            "all-int", "single", "bool-true", "bool-false", "negative",
            "below-int64", "2^63", "2^64-1", "np.int64", "np.uint64",
            "int-subclass", "IntEnum", "float",
        ],
    )
    def test_keys_equal_item_to_u64(self, items):
        keys = canonical_keys(items)
        assert keys.dtype == np.uint64
        assert keys.tolist() == [item_to_u64(x) for x in items]

    @pytest.mark.parametrize("factory", [
        lambda: HyperLogLog(p=8, seed=1), lambda: LogLog(p=8, seed=1),
    ])
    def test_type_error_comes_before_any_state_change(self, factory):
        sk, untouched = factory(), factory()
        sk.update_many([3, 4])
        untouched.update_many([3, 4])
        with pytest.raises(TypeError):
            sk.update_many([1, 2, object()])
        assert_same_state(sk, untouched)


class TestCanonicalWeights:
    def test_scalar_broadcast(self):
        assert canonical_weights(3, 4).tolist() == [3, 3, 3, 3]

    def test_array_passthrough(self):
        assert canonical_weights([1, 2, 3], 3).tolist() == [1, 2, 3]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            canonical_weights([1, 2], 3)

    def test_non_integral_rejected(self):
        with pytest.raises((TypeError, ValueError)):
            canonical_weights([1.5, 2.0], 2)


class TestKeyHashing:
    @pytest.mark.parametrize("family", ["mix", "kwise2", "kwise4", "tabulation"])
    def test_hash_keys_matches_scalar(self, family):
        fn = HashFunction(seed=1234, family=family)
        assert fn.supports_key_hashing
        keys = canonical_keys(INT_STREAM[:200])
        assert fn.hash_keys(keys).tolist() == [
            fn.hash64(int(x)) for x in INT_STREAM[:200]
        ]

    @pytest.mark.parametrize("family", ["mix", "kwise2", "kwise4", "tabulation"])
    def test_bucket_and_sign_match_scalar(self, family):
        fn = HashFunction(seed=77, family=family)
        keys = canonical_keys(INT_STREAM[:200])
        assert fn.bucket_keys(keys, 37).tolist() == [
            fn.bucket(int(x), 37) for x in INT_STREAM[:200]
        ]
        assert fn.sign_keys(keys).tolist() == [
            fn.sign(int(x)) for x in INT_STREAM[:200]
        ]

    def test_zero_mixed_seed_loop_fallback(self):
        # A seed whose internal mix lands at 0 exercises the
        # splitmix64_array(seed=0) semantic gap; parity must still hold.
        fn = HashFunction(seed=0, family="mix")
        keys = canonical_keys(INT_STREAM[:64])
        assert fn.hash_keys(keys).tolist() == [
            fn.hash64(int(x)) for x in INT_STREAM[:64]
        ]

    def test_murmur3_is_byte_based(self):
        fn = HashFunction(seed=1, family="murmur3")
        assert not fn.supports_key_hashing
        with pytest.raises(TypeError):
            fn.hash_keys(np.array([1], dtype=np.uint64))


class TestHllRegisters:
    def test_matches_scalar_register_updates(self):
        hll_a = HyperLogLog(p=8, seed=3)
        hll_b = HyperLogLog(p=8, seed=3)
        hashes = hll_a._hash.hash_keys(canonical_keys(INT_STREAM))
        idx, rho = hll_registers(hashes, hll_a.p, hll_a._max_rho)
        np.maximum.at(hll_a._registers, idx, rho)
        for x in INT_STREAM:
            hll_b.update(int(x))
        assert_same_state(hll_a, hll_b)


# --- family-by-family parity: update_many(items) ≡ for x in items: update(x) ---

KEYED_FAMILIES = [
    ("hll", lambda: HyperLogLog(p=8, seed=7)),
    ("hllpp", lambda: HyperLogLogPlusPlus(p=6, seed=3)),  # converts mid-stream
    ("loglog", lambda: LogLog(p=8, seed=7)),
    ("countmin", lambda: CountMinSketch(width=64, depth=3, seed=5)),
    ("countmin-cons", lambda: CountMinSketch(width=64, depth=3, conservative=True, seed=5)),
    ("countsketch", lambda: CountSketch(width=64, depth=3, seed=5)),
    ("bloom", lambda: BloomFilter(m=512, k=3, seed=2)),
    ("countingbloom", lambda: CountingBloomFilter(m=256, k=3, seed=2)),
    ("spacesaving", lambda: SpaceSaving(k=8)),
    ("kmv", lambda: KMVSketch(k=32, seed=1)),
    ("ams", lambda: AMSSketch(buckets=16, groups=3, seed=4)),
    ("ams-kwise4", lambda: AMSSketch(buckets=16, groups=3, seed=4, family="kwise4")),
]

QUANTILE_FAMILIES = [
    ("kll", lambda: KLLSketch(k=24, seed=9)),
    ("req", lambda: ReqSketch(k=8, seed=9)),
]


@pytest.mark.parametrize("name,factory", KEYED_FAMILIES, ids=[n for n, _ in KEYED_FAMILIES])
@pytest.mark.parametrize(
    "stream",
    [INT_STREAM, SKEWED_STREAM, MIXED_STREAM],
    ids=["np-int", "np-skewed-runs", "py-mixed"],
)
def test_update_many_parity(name, factory, stream):
    batched, sequential = factory(), factory()
    batched.update_many(stream)
    for x in stream:
        sequential.update(int(x) if isinstance(x, np.integer) else x)
    assert_same_state(batched, sequential)


@pytest.mark.parametrize("name,factory", QUANTILE_FAMILIES, ids=[n for n, _ in QUANTILE_FAMILIES])
@pytest.mark.parametrize(
    "stream",
    [FLOAT_STREAM, list(map(float, INT_STREAM))],
    ids=["np-float", "py-float"],
)
def test_quantile_update_many_parity(name, factory, stream):
    """Bulk insert must match per-item state *including* RNG position."""
    batched, sequential = factory(), factory()
    batched.update_many(stream)
    for x in stream:
        sequential.update(float(x))
    assert_same_state(batched, sequential)


WEIGHTED_FAMILIES = [
    ("countmin", lambda: CountMinSketch(width=64, depth=3, seed=5)),
    ("countmin-cons", lambda: CountMinSketch(width=64, depth=3, conservative=True, seed=5)),
    ("countsketch", lambda: CountSketch(width=64, depth=3, seed=5)),
    ("spacesaving", lambda: SpaceSaving(k=8)),
    ("ams", lambda: AMSSketch(buckets=16, groups=3, seed=4)),
]


@pytest.mark.parametrize("name,factory", WEIGHTED_FAMILIES, ids=[n for n, _ in WEIGHTED_FAMILIES])
def test_update_many_scalar_weight_parity(name, factory):
    batched, sequential = factory(), factory()
    batched.update_many(INT_STREAM[:500], 3)
    for x in INT_STREAM[:500]:
        sequential.update(int(x), 3)
    assert_same_state(batched, sequential)


@pytest.mark.parametrize(
    "name,factory",
    [f for f in WEIGHTED_FAMILIES if f[0] != "spacesaving"],
    ids=[n for n, _ in WEIGHTED_FAMILIES if n != "spacesaving"],
)
def test_update_many_array_weight_parity(name, factory):
    weights = RNG.integers(1, 9, size=500)
    batched, sequential = factory(), factory()
    batched.update_many(INT_STREAM[:500], weights)
    for x, w in zip(INT_STREAM[:500], weights):
        sequential.update(int(x), int(w))
    assert_same_state(batched, sequential)


def test_countsketch_negative_weights_parity():
    weights = RNG.integers(-5, 6, size=300)
    batched, sequential = (CountSketch(width=32, depth=3, seed=8) for _ in range(2))
    batched.update_many(INT_STREAM[:300], weights)
    for x, w in zip(INT_STREAM[:300], weights):
        sequential.update(int(x), int(w))
    assert_same_state(batched, sequential)


def test_conservative_countmin_rejects_negative_batch_weights():
    cm = CountMinSketch(width=32, depth=3, conservative=True, seed=1)
    with pytest.raises(ValueError):
        cm.update_many(np.arange(4), np.array([1, -2, 3, 4]))


def test_murmur3_fallback_parity():
    """Byte-based hashing cannot batch; the per-item fallback must match."""
    batched, sequential = (CountMinSketch(width=32, depth=3, seed=1) for _ in range(2))
    batched._hashes = HashFamily(3, 1, "murmur3")
    sequential._hashes = HashFamily(3, 1, "murmur3")
    batched.update_many(INT_STREAM[:200])
    for x in INT_STREAM[:200]:
        sequential.update(int(x))
    assert_same_state(batched, sequential)


def test_hllpp_converts_mid_batch():
    sk = HyperLogLogPlusPlus(p=6, seed=3)
    assert sk.is_sparse
    sk.update_many(INT_STREAM)
    assert not sk.is_sparse  # 500 distinct > max(16, 64 // 4)


def test_hllpp_dense_delegates_to_vectorized_kernel():
    """Regression: a dense HLL++ batch must hit the superclass kernel."""
    batched, sequential = (HyperLogLogPlusPlus(p=6, seed=3) for _ in range(2))
    for sk in (batched, sequential):
        sk.update_many(INT_STREAM)  # force dense
        assert not sk.is_sparse
    extra = RNG.integers(10_000, 20_000, size=1000)
    batched.update_many(extra)
    for x in extra:
        sequential.update(int(x))
    assert_same_state(batched, sequential)


def test_countingbloom_saturates_in_batch():
    cb = CountingBloomFilter(m=8, k=1, seed=0)
    cb.update_many(np.full(200_000, 7))
    assert int(cb._counts.max()) == 65535
    cb.remove(7)  # still removable after saturation clamp
    assert cb.contains(7)


def test_empty_batches_are_noops():
    for _, factory in KEYED_FAMILIES + QUANTILE_FAMILIES:
        before = factory()
        after = factory()
        after.update_many([])
        after.update_many(np.array([], dtype=np.int64))
        assert_same_state(after, before)


# --- streaming layer: batched dispatch must preserve per-record semantics ---


def test_pipeline_feed_batched_matches_per_record():
    records = [(f"g{i % 3}", i) for i in range(1000)]

    def build():
        return GroupBySketcher(
            group_fn=lambda r: r[0],
            sketch_factory=lambda: CountMinSketch(width=32, depth=3, seed=1),
        )

    batched, sequential = build(), build()
    fed = StreamPipeline(records).feed(batched, batch_size=128)
    assert fed == 1000
    for record in records:
        sequential.process(record)
    assert batched.n_records == sequential.n_records == 1000
    for key in sequential.keys():
        assert_same_state(batched[key], sequential[key])


def test_groupby_custom_update_fn_still_per_record():
    calls = []
    gb = GroupBySketcher(
        group_fn=lambda r: r % 2,
        sketch_factory=lambda: SpaceSaving(k=4),
        update_fn=lambda sk, r: calls.append(r) or sk.update(r),
    )
    gb.process_many(list(range(10)))
    assert calls == list(range(10))
    assert gb.n_records == 10


def test_feed_plain_operators_unchanged():
    class Collector:
        def __init__(self):
            self.seen = []

        def process(self, record):
            self.seen.append(record)

    op = Collector()
    assert StreamPipeline(range(20)).feed(op, batch_size=6) == 20
    assert op.seen == list(range(20))
