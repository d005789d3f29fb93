"""Parallel sharded building: every backend must agree with serial ingest.

``parallel_build`` fans shards out to workers, ships partials through
the serde wire format (process backend), and reduces with one k-way
``merge_many``.  For register/linear families the merged state must be
bitwise identical to a single sketch eating the whole stream — the
mergeability contract the paper's distributed deployments rely on.
"""

import numpy as np
import pytest

from repro.cardinality import HyperLogLog
from repro.frequency import CountMinSketch
from repro.parallel import (
    ShardedBuilder,
    SketchSpec,
    parallel_build,
    partition_items,
)
import repro.parallel.sharded as sharded_mod
from repro.parallel.sharded import SMALL_INPUT_THRESHOLD, _resolve_backend
from repro.quantiles import KLLSketch
from repro.streaming import GroupBySketcher, StreamPipeline


def normalize(value):
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, dict):
        return {k: normalize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [normalize(v) for v in value]
    return value


def assert_same_state(a, b):
    assert normalize(a.state_dict()) == normalize(b.state_dict())


RNG = np.random.default_rng(17)
ITEMS = [f"item-{i}" for i in RNG.integers(0, 30_000, size=8000)]

HLL_SPEC = SketchSpec(HyperLogLog, p=11, seed=7)
CM_SPEC = SketchSpec(CountMinSketch, width=256, depth=4, seed=5)


def reference(spec, items=None):
    sk = spec()
    sk.update_many(ITEMS if items is None else items)
    return sk


class TestPartitionItems:
    def test_round_robin_covers_everything_once(self):
        shards = partition_items(list(range(10)), 3)
        assert shards == [[0, 3, 6, 9], [1, 4, 7], [2, 5, 8]]

    def test_sizes_differ_by_at_most_one(self):
        shards = partition_items(list(range(103)), 8)
        sizes = sorted(len(s) for s in shards)
        assert sizes[-1] - sizes[0] <= 1
        assert sum(sizes) == 103

    def test_numpy_arrays_shard_as_views(self):
        arr = np.arange(100)
        shards = partition_items(arr, 4)
        assert all(isinstance(s, np.ndarray) for s in shards)
        assert shards[1].base is arr  # strided view, no copy
        assert sorted(np.concatenate(shards).tolist()) == list(range(100))

    def test_generator_input(self):
        shards = partition_items((i for i in range(7)), 2)
        assert shards == [[0, 2, 4, 6], [1, 3, 5]]

    def test_more_shards_than_items(self):
        shards = partition_items([1, 2], 5)
        assert shards == [[1], [2], [], [], []]

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError):
            partition_items([1], 0)


class TestSketchSpec:
    def test_builds_configured_sketch(self):
        sk = HLL_SPEC()
        assert isinstance(sk, HyperLogLog)
        assert sk.p == 11

    def test_pickles(self):
        import pickle

        clone = pickle.loads(pickle.dumps(HLL_SPEC))
        assert_same_state(clone(), HLL_SPEC())

    def test_repr_names_class_and_kwargs(self):
        assert "HyperLogLog" in repr(HLL_SPEC)
        assert "p=11" in repr(HLL_SPEC)

    def test_rejects_non_callable(self):
        with pytest.raises(TypeError):
            SketchSpec(42)


@pytest.fixture
def unwarned_fallbacks():
    """Let this test see the once-per-process fallback warning.

    Reasons warned here stay marked afterwards, so later tests do not
    repeat the warning.
    """
    saved = set(sharded_mod._FALLBACK_WARNED)
    sharded_mod._FALLBACK_WARNED.clear()
    yield
    sharded_mod._FALLBACK_WARNED.update(saved)


@pytest.mark.parametrize("backend", ["serial", "thread", "process", "auto"])
class TestParallelBuildBackends:
    def test_hll_matches_single_stream(self, backend, unwarned_fallbacks):
        def build():
            return parallel_build(
                HLL_SPEC, partition_items(ITEMS, 4), workers=2, backend=backend
            )

        if backend == "auto":
            # ITEMS is below the small-input cut, so auto keeps to threads.
            with pytest.warns(RuntimeWarning, match=r"fell back to 'thread' \(small_input\)"):
                merged = build()
        else:
            merged = build()
        assert_same_state(merged, reference(HLL_SPEC))

    def test_countmin_matches_single_stream(self, backend):
        merged = parallel_build(
            CM_SPEC, partition_items(ITEMS, 4), workers=2, backend=backend
        )
        assert_same_state(merged, reference(CM_SPEC))

    def test_kll_weight_and_accuracy(self, backend):
        vals = np.random.default_rng(3).normal(size=12_000)
        spec = SketchSpec(KLLSketch, k=200, seed=1)
        merged = parallel_build(
            spec, partition_items(vals, 4), workers=2, backend=backend
        )
        assert merged.n == len(vals)
        true_median = float(np.median(vals))
        assert abs(merged.quantile(0.5) - true_median) < 0.1


class TestParallelBuildValidation:
    def test_no_shards_rejected(self):
        with pytest.raises(ValueError):
            parallel_build(HLL_SPEC, [])

    def test_bad_backend_rejected(self):
        with pytest.raises(ValueError):
            parallel_build(HLL_SPEC, [[1]], backend="gpu")

    def test_bad_workers_rejected(self):
        with pytest.raises(ValueError):
            parallel_build(HLL_SPEC, [[1]], workers=0)

    def test_single_shard_works(self):
        merged = parallel_build(HLL_SPEC, [ITEMS], backend="serial")
        assert_same_state(merged, reference(HLL_SPEC))


class TestAutoBackend:
    def test_one_worker_is_serial(self):
        assert _resolve_backend("auto", 1, 10**9, HLL_SPEC) == ("serial", None)

    def test_small_input_prefers_threads(self):
        assert _resolve_backend("auto", 4, 100, HLL_SPEC) == ("thread", "small_input")

    def test_large_picklable_input_upgrades_to_shm(self):
        # HLL implements SharedStateSketch, so auto prefers the
        # zero-copy fabric over the serde process pool.
        big = SMALL_INPUT_THRESHOLD + 1
        assert _resolve_backend("auto", 4, big, HLL_SPEC) == ("shm", None)

    def test_large_input_without_shm_support_uses_processes(self):
        from repro.quantiles import KLLSketch

        big = SMALL_INPUT_THRESHOLD + 1
        spec = SketchSpec(KLLSketch, k=200, seed=7)
        assert _resolve_backend("auto", 4, big, spec) == ("process", "no_shm_support")

    def test_unpicklable_factory_falls_back_to_threads(self):
        big = SMALL_INPUT_THRESHOLD + 1
        factory = lambda: HyperLogLog(p=11, seed=7)  # noqa: E731
        assert _resolve_backend("auto", 4, big, factory) == ("thread", "unpicklable_factory")

    def test_explicit_backend_wins(self):
        assert _resolve_backend("thread", 1, 10**9, HLL_SPEC) == ("thread", None)

    def test_lambda_factory_end_to_end(self):
        merged = parallel_build(
            lambda: HyperLogLog(p=11, seed=7),
            partition_items(ITEMS, 4),
            workers=4,
            backend="auto",
        )
        assert_same_state(merged, reference(HLL_SPEC))


class TestShardedBuilder:
    def test_add_extend_build(self):
        builder = ShardedBuilder(HLL_SPEC, workers=2)
        half = len(ITEMS) // 2
        builder.add_shard(ITEMS[:half])
        builder.extend(ITEMS[half:], shards=3)
        assert len(builder) == 4
        assert builder.n_items == len(ITEMS)
        assert_same_state(builder.build(backend="serial"), reference(HLL_SPEC))

    def test_reusable_and_clearable(self):
        builder = ShardedBuilder(HLL_SPEC).add_shard(ITEMS)
        first = builder.build()
        second = builder.build()  # shards stay queued
        assert_same_state(first, second)
        assert len(builder.clear()) == 0

    def test_build_overrides_defaults(self):
        builder = ShardedBuilder(HLL_SPEC, workers=1, backend="serial")
        builder.extend(ITEMS, shards=4)
        assert_same_state(
            builder.build(workers=2, backend="process"), reference(HLL_SPEC)
        )

    def test_bad_backend_rejected(self):
        with pytest.raises(ValueError):
            ShardedBuilder(HLL_SPEC, backend="gpu")


class TestStreamingIntegration:
    def test_feed_parallel_matches_feed(self):
        pipeline = StreamPipeline(ITEMS).map(str.upper)
        merged = pipeline.feed_parallel(HLL_SPEC, workers=4, backend="thread")
        expected = HLL_SPEC()
        expected.update_many([x.upper() for x in ITEMS])
        assert_same_state(merged, expected)

    def test_feed_parallel_empty_stream(self):
        merged = StreamPipeline([]).feed_parallel(HLL_SPEC)
        assert merged.estimate() == 0.0

    def test_groupby_combine_matches_single_sketcher(self):
        records = [(f"group-{i % 7}", f"value-{i}") for i in range(4000)]

        def make():
            return GroupBySketcher(
                group_fn=lambda r: r[0],
                sketch_factory=SketchSpec(HyperLogLog, p=9, seed=3),
                update_fn=lambda sk, r: sk.update(r[1]),
            )

        single = make()
        for r in records:
            single.process(r)
        shards = []
        for part in partition_items(records, 3):
            gb = make()
            for r in part:
                gb.process(r)
            shards.append(gb)
        combined = GroupBySketcher.combine(shards)
        assert combined.n_records == single.n_records == 4000
        assert set(combined.keys()) == set(single.keys())
        for key in single.keys():
            assert_same_state(combined[key], single[key])

    def test_groupby_combine_empty_rejected(self):
        with pytest.raises(ValueError):
            GroupBySketcher.combine([])

    def test_groupby_combine_disjoint_groups_adopt_shard_sketches(self):
        a = GroupBySketcher(lambda r: r[0], SketchSpec(HyperLogLog, p=8, seed=1),
                            update_fn=lambda sk, r: sk.update(r[1]))
        b = GroupBySketcher(lambda r: r[0], SketchSpec(HyperLogLog, p=8, seed=1),
                            update_fn=lambda sk, r: sk.update(r[1]))
        a.process(("x", 1))
        b.process(("y", 2))
        combined = GroupBySketcher.combine([a, b])
        assert combined["x"] is a["x"]
        assert combined["y"] is b["y"]
        assert combined.n_records == 2


class TestPartitionGenerators:
    """partition_items materializes one-shot iterables exactly once."""

    def test_generator_is_materialized_not_exhausted(self):
        shards = partition_items((i for i in range(100)), 4)
        assert [len(s) for s in shards] == [25, 25, 25, 25]
        assert sorted(x for s in shards for x in s) == list(range(100))

    def test_one_shot_generator_into_sharded_builder_extend(self):
        # Regression: a generator fed to extend must land in the shards,
        # not be silently exhausted into empty ones.
        stream = (f"user-{i}" for i in range(5000))
        builder = ShardedBuilder(HLL_SPEC, backend="serial")
        builder.extend(stream, shards=4)
        assert len(builder) == 4
        assert builder.n_items == 5000
        merged = builder.build()
        reference_sketch = HLL_SPEC()
        reference_sketch.update_many([f"user-{i}" for i in range(5000)])
        assert merged.estimate() == reference_sketch.estimate()

    def test_map_object_round_trips(self):
        shards = partition_items(map(str, range(10)), 3)
        assert sorted(x for s in shards for x in s) == sorted(map(str, range(10)))
