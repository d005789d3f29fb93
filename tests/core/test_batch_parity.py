"""Batch parity gate: ``update_many`` must equal sequential ``update`` exactly.

Builds every sketch family with a batch path, feeds the same stream
through both paths, and compares full ``state_dict()`` contents.  A
second section does the same for GROUP BY: ``StreamPipeline.feed``
into a :class:`~repro.streaming.GroupBySketcher` (batched, one grouped
update per 777-record batch) against per-record ``process``, comparing
every group's ``to_bytes()``, the group order and ``n_records``.

The exhaustive versions, over item types, batch sizes and group keys,
are ``tests/core/test_batch.py`` and
``tests/streaming/test_groupby_batch.py``.
"""

import numpy as np
import pytest

from repro.cardinality import HyperLogLog, HyperLogLogPlusPlus, KMVSketch, LogLog
from repro.frequency import CountMinSketch, CountSketch, SpaceSaving
from repro.membership import BloomFilter, CountingBloomFilter
from repro.moments import AMSSketch
from repro.quantiles import KLLSketch, ReqSketch
from repro.streaming import GroupBySketcher, StreamPipeline

RNG = np.random.default_rng(7)
INTS = RNG.integers(0, 400, size=5000)
FLOATS = RNG.normal(size=5000)

FAMILIES = [
    ("HyperLogLog", lambda: HyperLogLog(p=8, seed=1), INTS),
    ("HLL++", lambda: HyperLogLogPlusPlus(p=6, seed=1), INTS),
    ("LogLog", lambda: LogLog(p=8, seed=1), INTS),
    ("CountMin", lambda: CountMinSketch(width=64, depth=3, seed=1), INTS),
    (
        "CountMin-conservative",
        lambda: CountMinSketch(width=64, depth=3, conservative=True, seed=1),
        INTS,
    ),
    ("CountSketch", lambda: CountSketch(width=64, depth=3, seed=1), INTS),
    ("Bloom", lambda: BloomFilter(m=512, k=3, seed=1), INTS),
    ("CountingBloom", lambda: CountingBloomFilter(m=256, k=3, seed=1), INTS),
    ("SpaceSaving", lambda: SpaceSaving(k=16), INTS),
    ("KMV", lambda: KMVSketch(k=64, seed=1), INTS),
    ("AMS", lambda: AMSSketch(buckets=16, groups=3, seed=1), INTS),
    ("KLL", lambda: KLLSketch(k=24, seed=1), FLOATS),
    ("REQ", lambda: ReqSketch(k=8, seed=1), FLOATS),
]

#: GROUP BY streams: int keys over 40 groups (first appearance is not
#: sorted order), and floats for the quantile family.
GROUP_INTS = (
    RNG.integers(0, 40, size=20_000) << 32 | RNG.integers(0, 5000, size=20_000)
).tolist()
GROUP_FLOATS = (RNG.normal(size=20_000) * 1e3).tolist()

GROUPBY = [
    ("HyperLogLog", lambda: HyperLogLog(p=8, seed=1), GROUP_INTS),
    ("LogLog", lambda: LogLog(p=8, seed=1), GROUP_INTS),
    ("CountMin", lambda: CountMinSketch(width=64, depth=3, seed=1), GROUP_INTS),
    ("SpaceSaving", lambda: SpaceSaving(k=16), GROUP_INTS),
    # p=10: sparse limit 256; groups hold ~500 distinct keys, so each
    # converts to dense partway through a 777-record batch.
    ("HLL++", lambda: HyperLogLogPlusPlus(p=10, seed=1), GROUP_INTS),
    ("KLL", lambda: KLLSketch(k=24, seed=1), GROUP_FLOATS),
]

BATCH_SIZE = 777


def group_of(record) -> int:
    """High bits of an int key; a bucket of a float."""
    return record >> 32 if isinstance(record, int) else int(record) % 40


def normalize(value):
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, dict):
        return {k: normalize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [normalize(v) for v in value]
    return value


def test_tables_cover_every_family():
    assert len(FAMILIES) == 13 and len({name for name, _, _ in FAMILIES}) == 13
    assert len(GROUPBY) == 6 and len({name for name, _, _ in GROUPBY}) == 6


@pytest.mark.parametrize("factory,stream", [f[1:] for f in FAMILIES], ids=[f[0] for f in FAMILIES])
def test_update_many_equals_sequential_update(factory, stream):
    batched, sequential = factory(), factory()
    batched.update_many(stream)
    for x in stream.tolist():
        sequential.update(x)
    assert normalize(batched.state_dict()) == normalize(sequential.state_dict())


@pytest.mark.parametrize("factory,stream", [g[1:] for g in GROUPBY], ids=[g[0] for g in GROUPBY])
def test_groupby_feed_equals_per_record_process(factory, stream):
    batched = GroupBySketcher(group_of, factory)
    sequential = GroupBySketcher(group_of, factory)
    StreamPipeline(stream).feed(batched, batch_size=BATCH_SIZE)
    for record in stream:
        sequential.process(record)
    assert len(sequential) == 40
    assert list(batched._groups) == list(sequential._groups)
    assert batched.n_records == sequential.n_records == len(stream)
    for key, sketch in sequential.items():
        assert batched[key].to_bytes() == sketch.to_bytes()
