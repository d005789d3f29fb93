"""Batched GROUP BY: ``feed``/``process_many`` must equal per-record ``process``.

The batched path partitions each batch by group with one stable sort
and updates every group through ``Sketch.update_grouped``; register
families share one hash pass over the whole batch.  None of that may be
visible: every group's serialized state, the first-appearance order of
the groups and ``n_records`` must match feeding the same records one at
a time, for any mix of item types and group keys.
"""

import enum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CountMinSketch,
    HyperLogLog,
    HyperLogLogPlusPlus,
    KLLSketch,
    LogLog,
    SpaceSaving,
    StreamPipeline,
)
from repro.core import IncompatibleSketchError, Sketch
from repro.hashing import item_to_u64
from repro.streaming import GroupBySketcher


class Color(enum.IntEnum):
    RED = 1
    BLUE = 2**40


FACTORIES = {
    "hll": lambda: HyperLogLog(p=4, seed=3),
    "loglog": lambda: LogLog(p=4, seed=3),
    "hllpp": lambda: HyperLogLogPlusPlus(p=4, seed=3),  # sparse limit 16: converts
    "countmin": lambda: CountMinSketch(width=16, depth=2, seed=3),
    "spacesaving": lambda: SpaceSaving(k=4),
}

ITEMS = st.one_of(
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.integers(min_value=0, max_value=1000),
    st.sampled_from([2**63, 2**64 - 1, 2**63 - 1, -1, Color.RED, Color.BLUE]),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.text(max_size=4),
    st.floats(allow_nan=False),
)

GROUP_KEYS = st.lists(
    st.one_of(
        st.integers(min_value=-3, max_value=3),
        st.text(max_size=2),
        st.tuples(st.integers(0, 2), st.text(max_size=1)),
        st.none(),
    ),
    min_size=1,
    max_size=6,
)


def grouped(keys):
    """A GROUP BY whose group key is a fixed function of the record."""
    return lambda record: keys[item_to_u64(record) % len(keys)]


def assert_same_groups(batched, sequential):
    assert list(batched._groups) == list(sequential._groups)
    assert batched.n_records == sequential.n_records
    for key, sketch in sequential.items():
        assert batched[key].to_bytes() == sketch.to_bytes()


@pytest.mark.parametrize("family", sorted(FACTORIES))
@settings(max_examples=40, deadline=None)
@given(
    records=st.lists(ITEMS, max_size=120),
    keys=GROUP_KEYS,
    batch_size=st.integers(min_value=1, max_value=50),
)
def test_feed_matches_per_record_process(family, records, keys, batch_size):
    group_fn = grouped(keys)
    batched = GroupBySketcher(group_fn, FACTORIES[family])
    sequential = GroupBySketcher(group_fn, FACTORIES[family])
    StreamPipeline(records).feed(batched, batch_size=batch_size)
    for record in records:
        sequential.process(record)
    assert_same_groups(batched, sequential)


@pytest.mark.parametrize("family", sorted(FACTORIES))
def test_process_many_empty_batch_is_a_noop(family):
    gb = GroupBySketcher(lambda record: record % 2, FACTORIES[family])
    gb.process_many([])
    assert len(gb) == 0 and gb.n_records == 0
    gb.process_many([1, 2, 3])
    before = {key: sketch.to_bytes() for key, sketch in gb.items()}
    gb.process_many([])
    assert {key: sketch.to_bytes() for key, sketch in gb.items()} == before
    assert gb.n_records == 3


def test_quantile_groups_match_per_record_process():
    rng = np.random.default_rng(5)
    records = rng.normal(size=3000).tolist()
    group_fn = grouped(["a", "b", ("c", 1), None])
    batched = GroupBySketcher(group_fn, lambda: KLLSketch(k=16, seed=2))
    sequential = GroupBySketcher(group_fn, lambda: KLLSketch(k=16, seed=2))
    StreamPipeline(records).feed(batched, batch_size=777)
    for record in records:
        sequential.process(record)
    assert_same_groups(batched, sequential)


def test_uncanonicalizable_record_leaves_existing_groups_untouched():
    gb = GroupBySketcher(lambda record: type(record).__name__, lambda: HyperLogLog(p=6))
    gb.process_many([1, 2, "x", "y"])
    before = {key: sketch.to_bytes() for key, sketch in gb.items()}
    with pytest.raises(TypeError):
        gb.process_many([3, "z", object()])
    assert {key: gb[key].to_bytes() for key in before} == before


def test_grouped_kernel_rejects_mismatched_sketches_before_any_update():
    sketches = [HyperLogLog(p=6, seed=1), HyperLogLog(p=6, seed=2)]
    with pytest.raises(IncompatibleSketchError):
        Sketch.update_grouped(sketches, [1, 2, 3, 4], [0, 2, 4])
    assert not any(sk._registers.any() for sk in sketches)
