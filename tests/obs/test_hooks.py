"""Core instrumentation hooks: op counters, timings, errors, injection."""

import pytest

import repro.obs as obs
from repro import (
    ConcurrentSketch,
    CountMinSketch,
    DeserializationError,
    HyperLogLog,
    IncompatibleSketchError,
    KLLSketch,
    StreamPipeline,
    from_bytes_any,
)
from repro.obs import MetricsRegistry, bind_registry
from repro.streaming import GroupBySketcher


def counter_value(reg, name, **labels):
    metric = reg.get(name, **labels)
    return 0 if metric is None else metric.value


class TestSketchOpHooks:
    def test_update_and_update_many_counters(self, registry):
        sk = HyperLogLog(p=10, seed=1)
        sk.update("a")
        sk.update("b")
        sk.update_many(range(100))
        labels = {"sketch": "HyperLogLog"}
        assert counter_value(registry, "repro_sketch_ops_total", op="update", **labels) == 2
        assert counter_value(registry, "repro_sketch_items_total", op="update", **labels) == 2
        assert counter_value(registry, "repro_sketch_ops_total", op="update_many", **labels) == 1
        assert counter_value(registry, "repro_sketch_items_total", op="update_many", **labels) == 100
        hist = registry.get("repro_sketch_op_seconds", op="update_many", **labels)
        assert hist.count == 1 and hist.sum > 0

    def test_update_many_generator_input_is_counted(self, registry):
        sk = HyperLogLog(p=10, seed=1)
        sk.update_many(str(i) for i in range(50))
        assert sk.estimate() > 0
        assert counter_value(
            registry, "repro_sketch_items_total", sketch="HyperLogLog", op="update_many"
        ) == 50

    def test_merge_and_merge_many(self, registry):
        parts = []
        for _ in range(3):
            sk = KLLSketch(k=64, seed=1)
            sk.update_many(range(100))
            parts.append(sk)
        parts[0].merge(parts[1])
        KLLSketch.merge_many(parts)
        labels = {"sketch": "KLLSketch"}
        assert counter_value(registry, "repro_sketch_ops_total", op="merge", **labels) == 1
        assert counter_value(registry, "repro_sketch_ops_total", op="merge_many", **labels) == 1
        assert counter_value(registry, "repro_sketch_items_total", op="merge_many", **labels) == 3

    def test_serde_ops_record_bytes(self, registry):
        sk = CountMinSketch(width=64, depth=2, seed=3)
        sk.update_many(range(10))
        blob = sk.to_bytes()
        CountMinSketch.from_bytes(blob)
        from_bytes_any(blob)
        labels = {"sketch": "CountMinSketch"}
        assert counter_value(registry, "repro_sketch_ops_total", op="to_bytes", **labels) == 1
        assert counter_value(registry, "repro_sketch_ops_total", op="from_bytes", **labels) == 2
        sizes = registry.get("repro_sketch_serde_bytes", op="to_bytes", **labels)
        assert sizes.count == 1 and sizes.quantile(0.5) == len(blob)

    def test_disabled_records_nothing(self, registry):
        with obs.disable():
            sk = HyperLogLog(p=10, seed=1)
            sk.update("a")
            sk.update_many(range(10))
            sk.to_bytes()
        assert len(registry) == 0

    def test_raw_kernel_reachable_via_wrapped(self):
        assert hasattr(HyperLogLog.update_many, "__wrapped__")
        assert hasattr(KLLSketch.update, "__wrapped__")


class TestErrorCounters:
    def test_deserialization_error_counted(self, registry):
        with pytest.raises(DeserializationError):
            HyperLogLog.from_bytes(b"not a sketch blob")
        assert counter_value(
            registry, "repro_sketch_errors_total",
            kind="deserialization", sketch="HyperLogLog",
        ) == 1
        with pytest.raises(DeserializationError):
            from_bytes_any(b"junk")
        assert counter_value(
            registry, "repro_sketch_errors_total", kind="deserialization", sketch="any"
        ) == 1

    def test_wrong_class_blob_counted(self, registry):
        blob = HyperLogLog(p=10, seed=1).to_bytes()
        with pytest.raises(DeserializationError):
            KLLSketch.from_bytes(blob)
        assert counter_value(
            registry, "repro_sketch_errors_total",
            kind="deserialization", sketch="KLLSketch",
        ) == 1

    def test_merge_incompatibility_counted(self, registry):
        a = HyperLogLog(p=10, seed=1)
        b = HyperLogLog(p=11, seed=1)
        with pytest.raises(IncompatibleSketchError):
            a.merge(b)
        with pytest.raises(IncompatibleSketchError):
            a.merge(KLLSketch(k=64))
        assert counter_value(
            registry, "repro_sketch_errors_total",
            kind="merge_incompatible", sketch="HyperLogLog",
        ) == 2


class TestRegistryInjection:
    def test_bind_registry_redirects_a_sketch(self, registry):
        private = MetricsRegistry()
        sk = HyperLogLog(p=10, seed=1)
        bind_registry(sk, private)
        sk.update_many(range(10))
        assert len(registry) == 0
        assert counter_value(
            private, "repro_sketch_ops_total", sketch="HyperLogLog", op="update_many"
        ) == 1
        # unbind: back to the default registry
        bind_registry(sk, None)
        sk.update_many(range(10))
        assert counter_value(
            registry, "repro_sketch_ops_total", sketch="HyperLogLog", op="update_many"
        ) == 1


class TestPipelineHooks:
    def test_feed_records_counts_and_batches(self, registry):
        sink = KLLSketch(k=64, seed=1)

        class Op:
            def process_many(self, records):
                sink.update_many(records)

        pipeline = StreamPipeline(range(1000)).map(float)
        fed = pipeline.feed(Op(), batch_size=256)
        assert fed == 1000
        assert counter_value(registry, "repro_pipeline_records_total") == 1000
        assert counter_value(registry, "repro_pipeline_batches_total") == 4
        assert registry.get("repro_pipeline_feed_seconds").count == 1

    def test_pipeline_private_registry(self, registry):
        private = MetricsRegistry()

        class Op:
            def process(self, record):
                pass

        StreamPipeline(range(10), registry=private).feed(Op())
        assert counter_value(private, "repro_pipeline_records_total") == 10
        assert counter_value(registry, "repro_pipeline_records_total") == 0


class TestGroupByHooks:
    def test_grouped_batch_counts_the_items_of_the_per_group_calls(self, registry):
        records = list(range(1000))
        reference = MetricsRegistry()
        for family in (HyperLogLog, CountMinSketch):
            gb = GroupBySketcher(lambda r: r % 7, lambda: family(seed=1))
            gb.process_many(records)
            for key in range(7):
                sk = family(seed=1)
                bind_registry(sk, reference)
                sk.update_many([r for r in records if r % 7 == key])
        for sketch in ("HyperLogLog", "CountMinSketch"):
            labels = {"sketch": sketch, "op": "update_many"}
            assert counter_value(registry, "repro_sketch_items_total", **labels) == 1000
            assert counter_value(reference, "repro_sketch_items_total", **labels) == 1000
        # The shared HLL kernel is one op per batch; per-group families
        # still count one op per group.
        ops = "repro_sketch_ops_total"
        assert counter_value(registry, ops, sketch="HyperLogLog", op="update_many") == 1
        assert counter_value(registry, ops, sketch="CountMinSketch", op="update_many") == 7


class TestConcurrentHooks:
    def test_compact_and_drain_counts(self, registry):
        cs = ConcurrentSketch(lambda: HyperLogLog(p=10, seed=1))
        cs.update_many(range(100))
        assert cs.n_replicas == 1
        cs.compact()
        # same-thread re-registration folds the retired replica
        cs.update("x")
        stats = cs.stats()
        assert stats["compactions"] == 1
        assert stats["drained"] == 1
        assert stats["replicas"] == 1
        assert stats["retiring"] == 0
        assert counter_value(registry, "repro_concurrent_compact_total") == 1
        assert counter_value(registry, "repro_concurrent_drain_total") == 1
        live = registry.get("repro_concurrent_replicas", state="live")
        assert live is not None and live.value == 1

    def test_private_registry(self, registry):
        private = MetricsRegistry()
        cs = ConcurrentSketch(lambda: HyperLogLog(p=10, seed=1), registry=private)
        cs.update("x")
        cs.compact()
        assert counter_value(private, "repro_concurrent_compact_total") == 1
        assert counter_value(registry, "repro_concurrent_compact_total") == 0
