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
    QDigest,
    SpaceSaving,
    StreamPipeline,
    TDigest,
)
from repro.core import IncompatibleSketchError, Sketch
from repro.hashing import HashFamily, item_to_u64
from repro.obs import MetricsRegistry, bind_registry
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


@pytest.mark.parametrize(
    "factory",
    # TDigest compacts whenever 16 values are buffered: a batched GROUP BY
    # that compacted anywhere else would end with other centroids
    [lambda: KLLSketch(k=16, seed=2), lambda: TDigest(buffer_size=16)],
    ids=["kll", "tdigest"],
)
def test_quantile_groups_match_per_record_process(factory):
    rng = np.random.default_rng(5)
    records = rng.normal(size=3000).tolist()
    group_fn = grouped(["a", "b", ("c", 1), None])
    batched = GroupBySketcher(group_fn, factory)
    sequential = GroupBySketcher(group_fn, factory)
    StreamPipeline(records).feed(batched, batch_size=777)
    for record in records:
        sequential.process(record)
    assert_same_groups(batched, sequential)


def murmur3_countmin():
    sketch = CountMinSketch(width=64, depth=3, seed=1)
    sketch._hashes = HashFamily(3, seed=1, family="murmur3")
    return sketch


@pytest.mark.parametrize(
    "factory, first, failing, error",
    [
        (lambda: HyperLogLog(p=6), [1, 2, "x", "y"], [3, "z", object()], TypeError),
        (
            lambda: CountMinSketch(width=64, depth=3, seed=1),
            [1, 2, "x"],
            [3, "y", object()],
            TypeError,
        ),
        (murmur3_countmin, [1, 2, "x"], [3, "y", object()], TypeError),
        (lambda: SpaceSaving(k=4), [1, 2, "x"], [3, "y", []], TypeError),
        (lambda: KLLSketch(k=16, seed=2), [1, 2, 1.5], [3, 2.5, "y"], ValueError),
        (lambda: TDigest(buffer_size=16), [1, 2, 1.5], [3, 2.5, "y"], ValueError),
        # no batch form: the default kernel copies and restores the groups
        (lambda: QDigest(universe_bits=4), [1, 2], [3, True, 99], ValueError),
    ],
    ids=["hll", "countmin", "countmin-murmur3", "spacesaving", "kll", "tdigest", "qdigest"],
)
def test_uncanonicalizable_record_leaves_existing_groups_untouched(
    factory, first, failing, error
):
    # the failing batch's last group rejects its record, after the groups
    # before it in the batch: the batch must change nothing
    gb = GroupBySketcher(lambda record: type(record).__name__, factory)
    gb.process_many(first)
    before = {key: sketch.to_bytes() for key, sketch in gb.items()}
    n_records = gb.n_records
    with pytest.raises(error):
        gb.process_many(failing)
    assert gb.keys() == list(before)
    assert {key: gb[key].to_bytes() for key in before} == before
    assert gb.n_records == n_records
    gb.process_many(failing[:-1])  # the restored sketches keep working
    assert gb.n_records == n_records + len(failing) - 1


def test_default_kernel_restores_a_group_its_update_left_half_done():
    # QDigest has no batch form and inserts value by value, so the bad
    # value raises after the one before it in its group (and the group
    # before it) went in; a bound registry survives the restore
    registry = MetricsRegistry()
    sketches = [QDigest(universe_bits=4), QDigest(universe_bits=4)]
    for sketch in sketches:
        sketch.update_many([3, 7])
        bind_registry(sketch, registry)
    before = [sketch.to_bytes() for sketch in sketches]
    with pytest.raises(ValueError):
        Sketch.update_grouped(sketches, [1, 2, 3, 99, 4], [0, 1, 1, 1, 1])
    assert [sketch.to_bytes() for sketch in sketches] == before
    assert all(sketch._obs_registry is registry for sketch in sketches)


def test_grouped_kernel_rejects_mismatched_sketches_before_any_update():
    sketches = [HyperLogLog(p=6, seed=1), HyperLogLog(p=6, seed=2)]
    with pytest.raises(IncompatibleSketchError):
        Sketch.update_grouped(sketches, [1, 2, 3, 4], [0, 0, 1, 1])
    assert not any(sk._registers.any() for sk in sketches)


#: ``update_grouped`` kernels: the register kernel (HLL, LogLog) and the
#: default regrouping kernel (order-dependent families), with each batch
#: form and without one (QDigest).
KERNEL_FACTORIES = {
    "hll": (FACTORIES["hll"], ITEMS),
    "loglog": (FACTORIES["loglog"], ITEMS),
    "hllpp": (FACTORIES["hllpp"], ITEMS),
    "spacesaving": (FACTORIES["spacesaving"], ITEMS),
    "kll": (lambda: KLLSketch(k=8, seed=2), st.floats(allow_nan=False)),
    "countmin": (FACTORIES["countmin"], ITEMS),
    "countmin-murmur3": (murmur3_countmin, ITEMS),
    "tdigest": (lambda: TDigest(buffer_size=16), st.floats(allow_nan=False)),
    "qdigest": (lambda: QDigest(universe_bits=4), st.integers(0, 15)),
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
