"""Tests for all quantile sketches (E6's machinery)."""

import bisect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EmptySketchError, IncompatibleSketchError
from repro.quantiles import (
    GKSketch,
    KLLSketch,
    MRLSketch,
    QDigest,
    ReservoirQuantiles,
    TDigest,
)

FLOAT_SKETCHES = [
    (GKSketch, {"epsilon": 0.01}),
    (KLLSketch, {"k": 200, "seed": 0}),
    (MRLSketch, {"k": 128, "b": 8}),
    (ReservoirQuantiles, {"k": 2048, "seed": 0}),
    (TDigest, {"delta": 100.0}),
]
ALL_SKETCHES = FLOAT_SKETCHES + [(QDigest, {"k": 256, "universe_bits": 16})]


def make_values(cls, n, seed):
    rng = random.Random(seed)
    if cls is QDigest:
        return [rng.randrange(1 << 16) for _ in range(n)]
    return [rng.gauss(100.0, 15.0) for _ in range(n)]


def rank_error(sketch, sorted_values, q):
    est = sketch.quantile(q)
    true_rank = bisect.bisect_right(sorted_values, est) / len(sorted_values)
    return abs(true_rank - q)


@pytest.mark.parametrize("cls,kwargs", ALL_SKETCHES)
class TestCommonQuantileBehaviour:
    def test_empty_raises(self, cls, kwargs):
        sk = cls(**kwargs)
        with pytest.raises(EmptySketchError):
            sk.quantile(0.5)
        with pytest.raises(EmptySketchError):
            sk.rank(1.0)

    def test_invalid_q(self, cls, kwargs):
        sk = cls(**kwargs)
        sk.update(1)
        with pytest.raises(ValueError):
            sk.quantile(-0.1)
        with pytest.raises(ValueError):
            sk.quantile(1.5)

    def test_single_value(self, cls, kwargs):
        sk = cls(**kwargs)
        sk.update(42)
        assert float(sk.quantile(0.5)) == pytest.approx(42.0, abs=1.0)

    def test_rank_error_within_tolerance(self, cls, kwargs):
        values = make_values(cls, 20000, seed=1)
        sk = cls(**kwargs)
        for v in values:
            sk.update(v)
        sv = sorted(values)
        for q in (0.1, 0.25, 0.5, 0.75, 0.9):
            assert rank_error(sk, sv, q) < 0.05

    def test_median_matches_quantile(self, cls, kwargs):
        sk = cls(**kwargs)
        for v in make_values(cls, 1000, seed=2):
            sk.update(v)
        assert sk.median() == sk.quantile(0.5)

    def test_cdf_monotone(self, cls, kwargs):
        values = make_values(cls, 5000, seed=3)
        sk = cls(**kwargs)
        for v in values:
            sk.update(v)
        probes = sorted(values[:20])
        cdf = sk.cdf(probes)
        assert all(b >= a - 1e-9 for a, b in zip(cdf, cdf[1:]))
        assert all(0.0 <= c <= 1.001 for c in cdf)

    def test_merge_accuracy(self, cls, kwargs):
        values = make_values(cls, 20000, seed=4)
        a = cls(**kwargs)
        b = cls(**kwargs)
        for v in values[:10000]:
            a.update(v)
        for v in values[10000:]:
            b.update(v)
        a.merge(b)
        assert a.n == 20000
        sv = sorted(values)
        for q in (0.25, 0.5, 0.75):
            assert rank_error(a, sv, q) < 0.07

    def test_merge_incompatible(self, cls, kwargs):
        a = cls(**kwargs)
        changed = dict(kwargs)
        first_key = next(iter(changed))
        if isinstance(changed[first_key], (int, float)):
            changed[first_key] = changed[first_key] * 2
        b = cls(**changed)
        with pytest.raises(IncompatibleSketchError):
            a.merge(b)

    def test_serde_roundtrip(self, cls, kwargs):
        sk = cls(**kwargs)
        for v in make_values(cls, 3000, seed=5):
            sk.update(v)
        revived = cls.from_bytes(sk.to_bytes())
        for q in (0.1, 0.5, 0.9):
            assert float(revived.quantile(q)) == pytest.approx(
                float(sk.quantile(q)), rel=1e-9
            )

    def test_quantiles_batch(self, cls, kwargs):
        sk = cls(**kwargs)
        for v in make_values(cls, 2000, seed=6):
            sk.update(v)
        qs = [0.1, 0.5, 0.9]
        batch = sk.quantiles(qs)
        assert batch == [sk.quantile(q) for q in qs]

    def test_quantile_outputs_sorted(self, cls, kwargs):
        sk = cls(**kwargs)
        for v in make_values(cls, 10000, seed=7):
            sk.update(v)
        outs = sk.quantiles([i / 10 for i in range(1, 10)])
        assert all(b >= a for a, b in zip(outs, outs[1:]))


class TestGKSpecifics:
    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            GKSketch(epsilon=0.0)
        with pytest.raises(ValueError):
            GKSketch(epsilon=0.6)

    def test_space_is_sublinear(self):
        gk = GKSketch(epsilon=0.01)
        for i in range(50000):
            gk.update(float(i % 9973))
        assert gk.size < 2000

    def test_guaranteed_error_bound(self):
        rng = random.Random(8)
        values = [rng.random() for _ in range(20000)]
        gk = GKSketch(epsilon=0.02)
        for v in values:
            gk.update(v)
        sv = sorted(values)
        for q in (0.1, 0.3, 0.5, 0.7, 0.9):
            # guaranteed ε rank error (allow small slack for the merge of
            # rank conventions)
            assert rank_error(gk, sv, q) <= 0.025

    def test_sorted_input(self):
        gk = GKSketch(epsilon=0.01)
        for i in range(10000):
            gk.update(float(i))
        assert abs(gk.quantile(0.5) - 5000) < 300

    def test_reverse_sorted_input(self):
        gk = GKSketch(epsilon=0.01)
        for i in reversed(range(10000)):
            gk.update(float(i))
        assert abs(gk.quantile(0.5) - 5000) < 300


class TestKLLSpecifics:
    def test_invalid_k(self):
        with pytest.raises(ValueError):
            KLLSketch(k=4)

    def test_space_bounded(self):
        kll = KLLSketch(k=200, seed=0)
        for i in range(100000):
            kll.update(float(i))
        assert kll.size < 1200

    def test_better_space_than_reservoir_at_equal_error(self):
        """KLL's headline: beats sampling on the space-accuracy frontier."""
        rng = random.Random(9)
        values = [rng.random() for _ in range(50000)]
        sv = sorted(values)
        kll = KLLSketch(k=128, seed=1)
        res = ReservoirQuantiles(k=256, seed=1)  # ~2x the retained items
        for v in values:
            kll.update(v)
            res.update(v)
        kll_err = max(rank_error(kll, sv, q) for q in (0.1, 0.5, 0.9))
        res_err = max(rank_error(res, sv, q) for q in (0.1, 0.5, 0.9))
        assert kll_err <= res_err + 0.01

    def test_deterministic_given_seed(self):
        a = KLLSketch(k=64, seed=5)
        b = KLLSketch(k=64, seed=5)
        for i in range(10000):
            a.update(float(i))
            b.update(float(i))
        assert a.quantile(0.3) == b.quantile(0.3)

    def test_merge_repeated(self):
        rng = random.Random(10)
        values = [rng.random() for _ in range(40000)]
        parts = []
        for i in range(8):
            sk = KLLSketch(k=200, seed=i)
            for v in values[i * 5000 : (i + 1) * 5000]:
                sk.update(v)
            parts.append(sk)
        merged = parts[0]
        for part in parts[1:]:
            merged.merge(part)
        sv = sorted(values)
        assert rank_error(merged, sv, 0.5) < 0.03


class TestTDigestSpecifics:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            TDigest(delta=5)
        with pytest.raises(ValueError):
            TDigest(buffer_size=4)

    def test_extreme_quantiles_tight(self):
        """t-digest's selling point: relative accuracy at the tails."""
        rng = random.Random(11)
        values = [rng.expovariate(1.0) for _ in range(100000)]
        td = TDigest(delta=200)
        for v in values:
            td.update(v)
        sv = sorted(values)
        for q in (0.999, 0.9999):
            assert rank_error(td, sv, q) < 0.001

    def test_min_max_exact(self):
        td = TDigest()
        for v in (5.0, -3.0, 10.0, 2.0):
            td.update(v)
        assert td.min == -3.0
        assert td.max == 10.0
        assert td.quantile(0.0) >= -3.0
        assert td.quantile(1.0) <= 10.0

    def test_weighted_updates(self):
        td = TDigest()
        td.update(1.0, weight=99)
        td.update(100.0, weight=1)
        assert td.quantile(0.5) == pytest.approx(1.0, abs=1.0)

    def test_centroid_count_bounded(self):
        td = TDigest(delta=100)
        rng = random.Random(12)
        for _ in range(100000):
            td.update(rng.random())
        assert td.size < 200

    def test_invalid_weight(self):
        with pytest.raises(ValueError):
            TDigest().update(1.0, weight=0)

    def test_serializing_or_pricing_leaves_the_digest_unchanged(self):
        rng = random.Random(13)
        values = [rng.gauss(0.0, 1.0) for _ in range(5000)]
        touched, untouched = TDigest(buffer_size=64), TDigest(buffer_size=64)
        for i, v in enumerate(values):
            touched.update(v)
            untouched.update(v)
            if i % 997 == 0:
                blob = touched.to_bytes()
                touched.memory_footprint()
                # The blob still holds the compacted centroids.
                assert blob == TDigest.from_state_dict(touched.state_dict()).to_bytes()
                assert touched._buffer == untouched._buffer
        assert touched.state_dict() == untouched.state_dict()
        assert touched.quantile(0.01) == untouched.quantile(0.01)

    def test_querying_leaves_the_digest_unchanged(self):
        rng = random.Random(13)
        values = [rng.gauss(0.0, 1.0) for _ in range(5000)]
        queried, untouched = TDigest(buffer_size=64), TDigest(buffer_size=64)
        for i, v in enumerate(values):
            queried.update(v)
            untouched.update(v)
            if i % 997 == 0:
                fresh = TDigest.from_state_dict(untouched.state_dict())
                assert queried.quantile(0.5) == fresh.quantile(0.5)
                assert queried.rank(0.0) == fresh.rank(0.0)
                assert queried.size == fresh.size
                assert queried._buffer == untouched._buffer
        assert queried.state_dict() == untouched.state_dict()
        assert queried.quantile(0.01) == untouched.quantile(0.01)

    def test_repeated_queries_compact_once_between_updates(self, monkeypatch):
        td = TDigest(buffer_size=64)
        for v in range(100):
            td.update(float(v))
        calls = []
        real = TDigest._compacted
        monkeypatch.setattr(TDigest, "_compacted", lambda self: calls.append(1) or real(self))
        first = td.quantile(0.5)
        assert (td.quantile(0.5), td.rank(50.0), td.size) == (first, td.rank(50.0), td.size)
        assert len(calls) == 1
        td.update(100.0)
        td.quantile(0.5)
        assert len(calls) == 2


class TestQDigestSpecifics:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            QDigest(k=2)
        with pytest.raises(ValueError):
            QDigest(universe_bits=0)

    def test_out_of_universe_rejected(self):
        qd = QDigest(k=16, universe_bits=8)
        with pytest.raises(ValueError):
            qd.update(256)
        with pytest.raises(ValueError):
            qd.update(-1)

    def test_compression_bounds_size(self):
        qd = QDigest(k=64, universe_bits=16)
        rng = random.Random(13)
        for _ in range(50000):
            qd.update(rng.randrange(1 << 16))
        qd.compress()
        # q-digest property: O(k) nodes (3k classical bound).
        assert qd.size <= 3 * 64 + 1

    def test_weighted_update(self):
        qd = QDigest(k=16, universe_bits=8)
        qd.update(10, weight=100)
        qd.update(200, weight=1)
        assert qd.quantile(0.5) <= 20

    def test_rank_error_bound(self):
        qd = QDigest(k=128, universe_bits=12)
        rng = random.Random(14)
        values = [rng.randrange(1 << 12) for _ in range(20000)]
        for v in values:
            qd.update(v)
        sv = sorted(values)
        for q in (0.25, 0.5, 0.75):
            # bound: log2(U) * n/k ranks = 12/128 ≈ 0.094 normalized
            assert rank_error(qd, sv, q) <= 12 / 128 + 0.01


class TestMRLSpecifics:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            MRLSketch(k=1)
        with pytest.raises(ValueError):
            MRLSketch(b=1)

    def test_space_bounded(self):
        mrl = MRLSketch(k=100, b=6)
        for i in range(100000):
            mrl.update(float(i))
        assert mrl.size <= 100 * 6 + 100

    def test_deterministic(self):
        a = MRLSketch(k=64, b=4)
        b = MRLSketch(k=64, b=4)
        for i in range(5000):
            a.update(float(i * 7 % 1000))
            b.update(float(i * 7 % 1000))
        assert a.quantile(0.5) == b.quantile(0.5)


class TestPropertyBased:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6),
            min_size=10,
            max_size=500,
        )
    )
    def test_kll_quantile_within_range(self, values):
        kll = KLLSketch(k=32, seed=0)
        for v in values:
            kll.update(v)
        assert min(values) <= kll.quantile(0.5) <= max(values)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6),
            min_size=10,
            max_size=500,
        )
    )
    def test_gk_rank_bounds(self, values):
        gk = GKSketch(epsilon=0.1)
        for v in values:
            gk.update(v)
        n = len(values)
        for probe in values[:10]:
            true_rank = sum(1 for v in values if v <= probe)
            assert abs(gk.rank(probe) - true_rank) <= 2 * 0.1 * n + 1

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 255), min_size=5, max_size=300))
    def test_qdigest_rank_monotone(self, values):
        qd = QDigest(k=16, universe_bits=8)
        for v in values:
            qd.update(v)
        ranks = [qd.rank(x) for x in range(0, 256, 16)]
        assert all(b >= a - 1e-9 for a, b in zip(ranks, ranks[1:]))
