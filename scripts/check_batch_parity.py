#!/usr/bin/env python3
"""Smoke check: ``update_many`` must equal sequential ``update`` exactly.

Builds every sketch family with a batch path, feeds the same stream
through both paths, and compares full ``state_dict()`` contents.  A
second section does the same for GROUP BY: ``StreamPipeline.feed``
into a :class:`~repro.streaming.GroupBySketcher` (batched, one grouped
update per batch) against per-record ``process``, comparing every
group's ``to_bytes()``, the group order and ``n_records``.
Exits nonzero if anything diverged — cheap enough for CI or a
pre-release sanity run (the exhaustive versions live in
``tests/core/test_batch.py`` and ``tests/streaming/test_groupby_batch.py``).

Usage: ``PYTHONPATH=src python scripts/check_batch_parity.py``
"""

import sys

import numpy as np

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
GROUP_INTS = (RNG.integers(0, 40, size=20_000) << 32 | RNG.integers(0, 5000, size=20_000)).tolist()
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


def main() -> int:
    failures = 0
    for name, factory, stream in FAMILIES:
        batched, sequential = factory(), factory()
        batched.update_many(stream)
        for x in stream.tolist():
            sequential.update(x)
        if normalize(batched.state_dict()) == normalize(sequential.state_dict()):
            print(f"  ok       {name}")
        else:
            print(f"  MISMATCH {name}")
            failures += 1
    for name, factory, stream in GROUPBY:
        batched = GroupBySketcher(group_of, factory)
        sequential = GroupBySketcher(group_of, factory)
        StreamPipeline(stream).feed(batched, batch_size=777)
        for record in stream:
            sequential.process(record)
        same = (
            list(batched._groups) == list(sequential._groups)
            and batched.n_records == sequential.n_records
            and all(batched[k].to_bytes() == sk.to_bytes() for k, sk in sequential.items())
        )
        if same:
            print(f"  ok       GROUP BY {name} ({len(sequential)} groups)")
        else:
            print(f"  MISMATCH GROUP BY {name}")
            failures += 1
    if failures:
        print(f"{failures} check{'' if failures == 1 else 's'} diverged")
        return 1
    print(
        f"all {len(FAMILIES)} families: update_many == sequential update; "
        f"all {len(GROUPBY)} GROUP BY families: feed == per-record process"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
