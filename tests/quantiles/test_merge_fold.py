"""The one-pass KLL fold on parts of mixed height.

``KLLSketch.merge_many`` gathers each level across every part into one
array and walks the levels once, compacting a level that holds at least
its capacity.  A range read folds very different parts: one-level
window partials, tall cumulative sketches, and partials revived from a
store's layout blobs.  Over such folds this suite pins the contract:

* the same inputs give a bitwise-identical state, and the inputs are
  left as they were;
* ``n`` is exact;
* the coins continue from the first part's state, one flip per
  compaction;
* a stored NaN sorts last in the folded view.  ``np.sort`` places NaN
  last where ``list.sort`` leaves it wherever the comparisons do, so the
  fold's compactions treat NaN as the largest value, and reads never
  count it.

Accuracy over seeds (folds of 1–85 parts against the rank bound) is
``tests/quantiles/test_coins.py``.
"""

import math

import numpy as np
import pytest

from repro.obs import MetricsRegistry
from repro.quantiles import KLLSketch
from repro.quantiles.kll import sorted_view
from repro.store import SketchStore, encode_partial

from .test_coins import flips_between

K = 200
SEEDS = range(4)


def stream(rng, size, nan):
    """``size`` lognormal values, a ``nan`` fraction of them NaN, shuffled."""
    values = rng.lognormal(size=size)
    values[: int(nan * size)] = math.nan
    return rng.permutation(values)


def window_partial(rng, seed, nan):
    """A one-level partial: fewer than ``K`` values."""
    part = KLLSketch(k=K, seed=seed)
    part.update_many(stream(rng, int(rng.integers(1, K)), nan))
    assert part.num_levels == 1
    return part


def cumulative(rng, seed, size, nan=0.0):
    part = KLLSketch(k=K, seed=seed)
    part.update_many(stream(rng, size, nan))
    return part


def stored(path, parts):
    """``parts`` written one per window to a store, revived from a reopened one."""
    with SketchStore(path, registry=MetricsRegistry()) as store:
        for i, part in enumerate(parts):
            store.append(float(i), float(i + 1), [
                {"name": "lat", "labels": {}, "kind": "histogram", "sketch": part}
            ])
    windows = SketchStore(path, registry=MetricsRegistry()).iter_windows()
    return [window["series"][0]["sketch"] for window in windows]


@pytest.fixture(scope="module")
def tall():
    """Two NaN-free cumulative sketches of 10+ levels, shared by every seed."""
    rng = np.random.default_rng(99)
    parts = [cumulative(rng, 7, 100_000), cumulative(rng, 8, 160_000)]
    assert min(part.num_levels for part in parts) >= 10
    return parts


def mixed_parts(tmp_path, seed, tall, nan=0.0):
    """Window partials, tall cumulative sketches and store-decoded partials, shuffled.

    A ``nan`` fraction of the window partials' and the stored cumulative
    sketch's values are NaN.
    """
    rng = np.random.default_rng(seed)
    windows = [window_partial(rng, 100 * seed + i, nan) for i in range(30)]
    decoded = stored(str(tmp_path / f"db{seed}"), [
        window_partial(rng, 100 * seed + 50 + i, nan) for i in range(12)
    ] + [cumulative(rng, seed, 40_000, nan)])
    parts = windows + list(tall) + decoded
    return [parts[i] for i in rng.permutation(len(parts))]


def compactions(parts, merged):
    """Compactions of a one-pass fold, read from the level sizes alone.

    Each level compacts at most once and is empty afterwards; a level
    can compact only if it gathered items or the level below promoted
    some (every capacity is at least 2, so a compaction promotes at least one).
    """
    gathered = [0] * merged.num_levels
    for part in parts:
        for level, buf in enumerate(part._compactors):
            gathered[level] += len(buf)
    count, below = 0, False
    for level, buf in enumerate(merged._compactors):
        below = not buf and (gathered[level] > 0 or below)
        count += below
    return count


@pytest.mark.parametrize("seed", SEEDS)
def test_same_inputs_give_the_same_state(tmp_path, tall, seed):
    parts = mixed_parts(tmp_path, seed, tall)
    before = [encode_partial(part) for part in parts]
    merged = KLLSketch.merge_many(parts)
    assert [encode_partial(part) for part in parts] == before
    assert encode_partial(KLLSketch.merge_many(parts)) == encode_partial(merged)
    rebuilt = mixed_parts(tmp_path / "again", seed, tall)
    assert encode_partial(KLLSketch.merge_many(rebuilt)) == encode_partial(merged)


@pytest.mark.parametrize("seed", SEEDS)
def test_n_is_exact(tmp_path, tall, seed):
    parts = mixed_parts(tmp_path, seed, tall)
    merged = KLLSketch.merge_many(parts)
    assert merged.n == sum(part.n for part in parts)
    assert merged.n >= 300_000


@pytest.mark.parametrize("seed", SEEDS)
def test_coins_advance_one_flip_per_compaction(tmp_path, tall, seed):
    parts = mixed_parts(tmp_path, seed, tall)
    merged = KLLSketch.merge_many(parts)
    flips = flips_between(parts[0]._coins.state, merged._coins.state)
    assert flips == compactions(parts, merged)
    assert flips > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_stored_nan_sorts_last_in_the_folded_view(tmp_path, tall, seed):
    parts = mixed_parts(tmp_path, seed, tall, nan=0.9)
    merged = KLLSketch.merge_many(parts)
    kept = sum(int(np.isnan(buf).sum()) for buf in merged._compactors)
    assert kept > 0  # the inputs are chosen so that NaN survives the fold
    values, cum, finite = sorted_view(merged)
    assert finite == len(values) - kept
    assert np.isnan(values[finite:]).all()
    assert not np.isnan(values[:finite]).any()
    assert values[:finite] == sorted(values[:finite])
    assert merged.rank(math.inf) == cum[finite - 1] < cum[-1]
