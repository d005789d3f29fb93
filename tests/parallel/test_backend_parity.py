"""Backend parity: thread == serial and process == serial, bitwise.

For every family below, the same sharded stream is built through
``parallel_build`` on the ``thread`` and ``process`` backends and
through the in-process ``serial`` path, and the merged sketches'
``state_dict()`` contents must agree byte for byte.  The process
backend is checked on a cold pool (forked for the build) and again on
the warm pool, on the same worker pids, so a build cannot leave state
behind in a worker for the next one.
"""

import numpy as np
import pytest

from repro.cardinality import FlajoletMartin, HyperLogLog, HyperLogLogPlusPlus, LogLog
from repro.frequency import CountMinSketch, CountSketch, SpaceSaving
from repro.membership import BloomFilter, CountingBloomFilter
from repro.moments import AMSSketch
from repro.parallel import SketchSpec, parallel_build, partition_items
from repro.parallel import sharded as sharded_mod
from repro.quantiles import KLLSketch

from .test_parallel import normalize

N_ITEMS = 60_000
N_SHARDS = 4

_RNG = np.random.default_rng(20230)
INTS = _RNG.integers(0, 1 << 40, size=N_ITEMS, dtype=np.uint64)
ZIPF = _RNG.zipf(1.3, size=N_ITEMS).astype(np.int64)
FLOATS = _RNG.normal(size=N_ITEMS)

#: (id, picklable spec, stream) — the array-state families, plus KLL
#: and SpaceSaving, whose state is not fixed-shape.
FAMILIES = [
    ("hll", SketchSpec(HyperLogLog, p=12, seed=1), INTS),
    ("hllpp", SketchSpec(HyperLogLogPlusPlus, p=12, seed=1), INTS),
    ("loglog", SketchSpec(LogLog, p=10, seed=1), INTS),
    ("fm", SketchSpec(FlajoletMartin, m=64, seed=1), INTS),
    ("countmin", SketchSpec(CountMinSketch, width=1024, depth=4, seed=1), ZIPF),
    (
        "countmin-conservative",
        SketchSpec(CountMinSketch, width=1024, depth=4, conservative=True, seed=1),
        ZIPF,
    ),
    ("countsketch", SketchSpec(CountSketch, width=1024, depth=5, seed=1), ZIPF),
    ("bloom", SketchSpec(BloomFilter, m=1 << 16, k=4, seed=1), INTS),
    ("cbloom", SketchSpec(CountingBloomFilter, m=1 << 15, k=4, seed=1), ZIPF),
    ("ams", SketchSpec(AMSSketch, buckets=64, groups=5, seed=1), ZIPF),
    ("kll", SketchSpec(KLLSketch, k=200, seed=1), FLOATS),
    ("spacesaving", SketchSpec(SpaceSaving, k=256), ZIPF),
]

FAMILY_PARAMS = pytest.mark.parametrize(
    "spec,stream", [(spec, stream) for _, spec, stream in FAMILIES],
    ids=[name for name, _, _ in FAMILIES],
)


def build(spec, shards, backend):
    merged, report = parallel_build(
        spec, shards, workers=2, backend=backend, return_report=True
    )
    return normalize(merged.state_dict()), report


@FAMILY_PARAMS
def test_thread_matches_serial(spec, stream):
    shards = partition_items(stream, N_SHARDS)
    serial, _ = build(spec, shards, "serial")
    threaded, _ = build(spec, shards, "thread")
    assert threaded == serial


@FAMILY_PARAMS
def test_process_matches_serial_on_cold_and_warm_pool(spec, stream):
    shards = partition_items(stream, N_SHARDS)
    serial, _ = build(spec, shards, "serial")
    if sharded_mod._POOL is not None:
        sharded_mod._POOL.shutdown()
    cold, cold_report = build(spec, shards, "process")
    cold_pool_pids = set(sharded_mod._POOL._processes)
    assert cold == serial
    assert cold_report.worker_pids <= cold_pool_pids
    assert cold_report.total_bytes > 0  # partials crossed the wire
    warm, warm_report = build(spec, shards, "process")
    assert warm == serial
    assert warm_report.worker_pids <= cold_pool_pids
