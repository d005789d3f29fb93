"""Batched GROUP BY: ``feed``/``process_many`` must equal per-record ``process``.

The batched path maps each batch to group ids and updates every group
through one ``Sketch.update_grouped(sketches, items, gids)`` call, with
the items in stream order; register families hash the whole batch once
and regroup only the (index, ρ) arrays, the default kernel regroups the
items with one stable sort.  None of that may be visible: every group's
serialized state, the first-appearance order of the groups and
``n_records`` must match feeding the same records one at a time, for
any mix of item types and group keys.
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
        Sketch.update_grouped(sketches, [1, 2, 3, 4], [0, 0, 1, 1])
    assert not any(sk._registers.any() for sk in sketches)


#: ``update_grouped`` kernels: the register kernel (HLL, LogLog) and the
#: default regrouping kernel (order-dependent families).
KERNEL_FACTORIES = {
    "hll": (FACTORIES["hll"], ITEMS),
    "loglog": (FACTORIES["loglog"], ITEMS),
    "hllpp": (FACTORIES["hllpp"], ITEMS),
    "spacesaving": (FACTORIES["spacesaving"], ITEMS),
    "kll": (lambda: KLLSketch(k=8, seed=2), st.floats(allow_nan=False)),
}


@pytest.mark.parametrize("family", sorted(KERNEL_FACTORIES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_update_grouped_equals_per_group_update_many(family, data):
    factory, items_strategy = KERNEL_FACTORIES[family]
    n_groups = data.draw(st.integers(min_value=1, max_value=5))
    items = data.draw(st.lists(items_strategy, max_size=120))
    gids = data.draw(
        st.lists(st.integers(0, n_groups - 1), min_size=len(items), max_size=len(items))
    )
    dtype = data.draw(st.sampled_from([np.uint8, np.uint16, np.int64]))
    grouped = [factory() for _ in range(n_groups)]
    Sketch.update_grouped(grouped, items, np.array(gids, dtype=dtype))
    for gid, sketch in enumerate(grouped):
        expected = factory()
        expected.update_many([x for x, g in zip(items, gids) if g == gid])
        assert sketch.to_bytes() == expected.to_bytes()


@pytest.mark.parametrize("family", sorted(KERNEL_FACTORIES))
def test_sketch_given_no_items_stays_untouched(family):
    factory, _ = KERNEL_FACTORIES[family]
    sketches = [factory() for _ in range(3)]
    for sketch in sketches:
        sketch.update_many([0.5, 7.0, 7.0, 11.25])
    before = sketches[1].to_bytes()
    Sketch.update_grouped(sketches, [1.5, 2.5, 3.5, 4.5], [2, 0, 2, 0])
    assert sketches[1].to_bytes() == before
    assert sketches[0].to_bytes() != before and sketches[2].to_bytes() != before


@pytest.mark.parametrize(
    "gids",
    [[0, 1, 1], [0, 1, 1, 0, 1], [0, 2, 1, 0], [0, -1, 1, 0], [0.0, 1.0, 1.0, 0.0]],
)
def test_gids_that_do_not_index_the_sketches_raise_before_any_update(gids):
    sketches = [HyperLogLog(p=6), HyperLogLog(p=6)]
    with pytest.raises(ValueError, match="gids"):
        Sketch.update_grouped(sketches, [1, 2, 3, 4], gids)
    assert not any(sk._registers.any() for sk in sketches)
