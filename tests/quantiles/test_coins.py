"""The splitmix64 coin stream behind KLL and REQ compactions.

KLL needs only independent fair coins, one per compaction, so the
sketches draw them from :class:`repro.quantiles.kll.Coins`, whose whole
state is one 64-bit int.  These tests pin the stream to the reference
splitmix64, check that the coins are fair, and re-prove the sketches'
accuracy on this stream over many seeds.
"""

import math

import numpy as np
import pytest

from repro.quantiles import KLLSketch, ReqSketch
from repro.quantiles.kll import Coins

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def splitmix64(state):
    """Reference splitmix64 step: (next state, 64-bit output)."""
    state = (state + GAMMA) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return state, z ^ (z >> 31)


def four_sigma_band(n, p=0.5):
    sigma = math.sqrt(n * p * (1.0 - p))
    return n * p - 4.0 * sigma, n * p + 4.0 * sigma


class TestStream:
    def test_first_output_of_seed_zero_is_the_published_value(self):
        assert splitmix64(0)[1] == 0xE220A8397B1DCDAF

    @pytest.mark.parametrize("seed", [0, 1, 12345, MASK64, -5, 1 << 70])
    def test_flips_are_top_bits_of_reference_outputs(self, seed):
        coins = Coins(seed)
        state = seed & MASK64
        for _ in range(500):
            state, out = splitmix64(state)
            assert coins.flip() == out >> 63
            assert coins.state == state

    def test_state_is_one_int_in_range(self):
        coins = Coins(-1)
        assert type(coins.state) is int and 0 <= coins.state <= MASK64
        assert not hasattr(coins, "__dict__")


def flips_between(start, end):
    """Coins flipped to get from state ``start`` to ``end`` (states step by GAMMA)."""
    return ((end - start) * pow(GAMMA, -1, 1 << 64)) & MASK64


@pytest.mark.parametrize("cls", [KLLSketch, ReqSketch], ids=["kll", "req"])
def test_merge_many_continues_the_first_parts_coins(cls):
    parts = []
    for seed in (11, 12, 13):
        part = cls(k=32, seed=seed)
        part.update_many(np.random.default_rng(seed).normal(size=1000))
        assert 0 < flips_between(seed, part._coins.state) < 1000
        parts.append(part)
    merged = cls.merge_many(parts)
    assert 0 < flips_between(parts[0]._coins.state, merged._coins.state) < 1000


class TestFairness:
    def test_long_stream_is_balanced(self):
        coins = Coins(2023)
        n = 100_000
        flips = [coins.flip() for _ in range(n)]
        low, high = four_sigma_band(n)
        assert low <= sum(flips) <= high
        # consecutive coins agree half the time (no lag-1 correlation)
        agree = sum(a == b for a, b in zip(flips, flips[1:]))
        low, high = four_sigma_band(n - 1)
        assert low <= agree <= high

    def test_first_flip_over_seeds_is_balanced(self):
        n = 10_000
        low, high = four_sigma_band(n)
        assert low <= sum(Coins(seed).flip() for seed in range(n)) <= high


#: rank-error checks at a 99% bound may miss this often: the binomial
#: expectation plus four standard deviations (the rule the end-to-end
#: benchmark applies to its served quantiles).
def allowed_misses(checks, confidence=0.99):
    p = 1.0 - confidence
    return int(checks * p + 4.0 * math.sqrt(checks * p * (1.0 - p)))


def rank_error(sorted_values, served, q):
    """Distance of ``q`` from the exact normalized rank interval of ``served``."""
    n = len(sorted_values)
    below = np.searchsorted(sorted_values, served, "left") / n
    at_or_below = np.searchsorted(sorted_values, served, "right") / n
    return max(0.0, below - q, q - at_or_below)


QS = (0.01, 0.5, 0.99)
SEEDS = 200


@pytest.mark.parametrize(
    "cls,k", [(KLLSketch, 200), (ReqSketch, 64)], ids=["kll-200", "req-64"]
)
def test_rank_error_within_bound_over_seeds(cls, k):
    """Single sketches and ``merge_many`` folds of 1–85 partials, 200 seeds.

    The bound is ``KLLSketch.rank_error_bound()`` at the same ``k`` (99%
    confidence).  REQ states no additive bound of its own; it is held
    to KLL's at equal ``k``, which its protected compactions (only the
    low half of a buffer is halved) stay well inside on these streams.
    """
    bound = KLLSketch(k=k).rank_error_bound()
    misses = checks = 0
    for seed in range(SEEDS):
        rng = np.random.default_rng(seed)
        parts, streams = [], []
        for i in range(int(rng.integers(1, 86))):
            values = rng.lognormal(size=int(rng.integers(50, 600)))
            part = cls(k=k, seed=seed * 100 + i)
            part.update_many(values)
            parts.append(part)
            streams.append(values)
        single = cls(k=k, seed=seed)
        values = rng.normal(size=10_000)
        single.update_many(values)
        cases = [
            (cls.merge_many(parts), np.sort(np.concatenate(streams))),
            (single, np.sort(values)),
        ]
        for sketch, truth in cases:
            assert sketch.n == len(truth)
            for q in QS:
                checks += 1
                misses += rank_error(truth, sketch.quantile(q), q) > bound
    assert checks == SEEDS * 2 * len(QS)
    assert misses <= allowed_misses(checks)
