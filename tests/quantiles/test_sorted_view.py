"""Cached sorted read view of KLL and REQ: bitwise-equal to the old linear reads.

``quantile``/``quantiles``/``rank``/``cdf`` bisect a sorted view that
each sketch state builds once (``repro.quantiles.kll.sorted_view``) and
every mutation drops.  The reference below is the per-call
sort-and-scan code those reads replaced, kept here only; random
interleavings of every mutation (including ``merge`` of an empty
sketch, ``_merge_many_impl``, ``from_state_dict`` and a serde round
trip) must give bitwise-identical answers after every step.
"""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import from_bytes_any
from repro.quantiles import KLLSketch, ReqSketch

NAN = float("nan")
QS = [i / 16 for i in range(17)] + [0.001, 0.333, 0.999]


# -- reference: the pre-cache per-call reads -------------------------------------


def _weighted(sk) -> list[tuple[float, int]]:
    items = []
    for level, buf in enumerate(sk._compactors):
        weight = 1 << level
        items.extend((v, weight) for v in buf)
    items.sort(key=lambda vw: vw[0])
    return items


def ref_rank(sk, value: float) -> float:
    total = 0.0
    for level, buf in enumerate(sk._compactors):
        weight = 1 << level
        total += weight * sum(1 for v in buf if v <= value)
    return total


def ref_quantile(sk, q: float) -> float:
    items = _weighted(sk)
    # KLL targets q·n; REQ targets q·(total retained weight).
    target = q * (sk.n if isinstance(sk, KLLSketch) else sum(w for _, w in items))
    acc = 0.0
    for v, w in items:
        acc += w
        if acc >= target:
            return v
    return items[-1][0]


def bits(values) -> list[bytes]:
    """Exact float identity (tells -0.0 from 0.0, compares NaN with NaN)."""
    return [struct.pack("<d", v) for v in values]


def probes(sk) -> list[float]:
    stored = [v for buf in sk._compactors for v in buf]
    return stored[:12] + [-math.inf, math.inf, NAN, -0.0, 0.0, 1.5]


def check_reads(sk) -> None:
    if sk.n == 0:
        return
    xs = probes(sk)
    assert bits(sk.quantiles(QS)) == bits([ref_quantile(sk, q) for q in QS])
    assert bits([sk.quantile(q) for q in QS]) == bits([ref_quantile(sk, q) for q in QS])
    assert bits([sk.rank(x) for x in xs]) == bits([ref_rank(sk, x) for x in xs])
    assert bits(sk.cdf(xs)) == bits([ref_rank(sk, x) / sk.n for x in xs])


# -- interleavings -----------------------------------------------------------------

values_st = st.one_of(
    st.floats(allow_nan=False, allow_infinity=True, width=64),
    st.sampled_from([-0.0, 0.0, 1.0, 2.0]),
)
batch_st = st.lists(values_st, max_size=40)

ops_st = st.lists(
    st.one_of(
        st.tuples(st.just("update"), values_st),
        st.tuples(st.just("update_many"), batch_st),
        st.tuples(st.just("merge"), batch_st),
        st.tuples(st.just("merge_empty")),
        st.tuples(st.just("merge_many"), st.lists(batch_st, min_size=1, max_size=4)),
        st.tuples(st.just("state_dict")),
        st.tuples(st.just("bytes")),
    ),
    max_size=25,
)


def built(cls, values, seed=7):
    sk = cls(k=8, seed=seed)
    sk.update_many(values)
    return sk


def apply(sk, op):
    """Run one mutation; returns the sketch to keep driving."""
    kind = op[0]
    cls = type(sk)
    if kind == "update":
        sk.update(op[1])
    elif kind == "update_many":
        sk.update_many(op[1])
    elif kind == "merge":
        sk.merge(built(cls, op[1], seed=11))
    elif kind == "merge_empty":
        sk.merge(cls(k=8, seed=13))
    elif kind == "merge_many":
        parts = [built(cls, values, seed=17 + i) for i, values in enumerate(op[1])]
        sk = cls._merge_many_impl([sk] + parts)
    elif kind == "state_dict":
        sk = cls.from_state_dict(sk.state_dict())
    else:
        sk = from_bytes_any(sk.to_bytes())
    return sk


@pytest.mark.parametrize("cls", [KLLSketch, ReqSketch])
@settings(max_examples=150, deadline=None)
@given(ops=ops_st)
def test_cached_reads_equal_linear_reads(cls, ops):
    sk = cls(k=8, seed=3)
    for op in ops:
        sk = apply(sk, op)
        check_reads(sk)
        check_reads(sk)  # the second read is served from the cached view


@pytest.mark.parametrize("cls", [KLLSketch, ReqSketch])
def test_view_is_built_once_per_state(cls):
    sk = built(cls, [3.0, 1.0, 2.0])
    assert sk._view is None
    sk.quantile(0.5)
    view = sk._view
    sk.rank(2.0)
    sk.cdf([1.0, 2.0])
    sk.quantiles([0.1, 0.9])
    assert sk._view is view
    sk.update(0.5)
    assert sk._view is None
    assert sk.rank(2.0) == 3.0


def test_merging_empty_sketch_compacts_a_level_over_capacity():
    """``_compress`` can change state without changing ``n``.

    A compaction that grows the stack shrinks every lower level's
    capacity, so a level can sit over capacity at rest; merging an
    empty sketch then compacts it.  A cache keyed on ``n`` would serve
    the pre-merge answers.
    """
    sk = KLLSketch(k=9, seed=0)
    for i in range(1, 200):
        other = KLLSketch(k=9, seed=i)
        other.update_many([float((j * 7919) % 1009) for j in range(37 * i)])
        sk.merge(other)
        caps = sk._capacities()
        if any(len(buf) >= cap for buf, cap in zip(sk._compactors, caps)):
            break
    else:
        pytest.fail("no over-capacity state reached")
    check_reads(sk)
    before = sk.state_dict()["compactors"]
    n = sk.n
    sk.merge(KLLSketch(k=9, seed=1))
    assert sk.n == n
    after = sk.state_dict()["compactors"]
    assert [b.tolist() for b in before] != [a.tolist() for a in after]
    check_reads(sk)


# -- NaN -------------------------------------------------------------------------


@pytest.mark.parametrize("cls", [KLLSketch, ReqSketch])
def test_rank_ignores_stored_nan(cls):
    sk = cls(k=8)
    sk.update_many([1, NAN, 3, 2, 0.5])
    assert sk.rank(2.0) == 3.0
    assert sk.rank(NAN) == 0.0
    assert sk.rank(math.inf) == 4.0
    assert sk.cdf([0.5, 3.0]) == [1 / 5, 4 / 5]


@pytest.mark.parametrize("cls", [KLLSketch, ReqSketch])
@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.one_of(values_st, st.just(NAN)), min_size=1, max_size=60),
       xs=st.lists(st.one_of(values_st, st.just(NAN)), max_size=8))
def test_rank_with_stored_nan_counts_only_numbers(cls, values, xs):
    sk = built(cls, values)
    assert bits([sk.rank(x) for x in xs]) == bits([ref_rank(sk, x) for x in xs])


@pytest.mark.parametrize("cls", [KLLSketch, ReqSketch])
def test_stored_nan_sorts_last_for_quantile(cls):
    sk = cls(k=8)
    sk.update_many([1, NAN, 3, 2, 0.5])
    assert sk.quantiles([0.0, 0.5, 0.8]) == [0.5, 2.0, 3.0]
    assert math.isnan(sk.quantile(1.0))
