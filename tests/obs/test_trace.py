"""Tracing: span trees, hot-path gating, wire propagation, exports."""

import json

import numpy as np
import pytest

import repro.obs as obs
from repro import CountMinSketch, HyperLogLog, KLLSketch, ShardedBuilder, SketchSpec
from repro.obs import Span, SpanContext, Tracer
from repro.obs.registry import HOT
from repro.obs.trace import TRACE


@pytest.fixture
def tracer():
    """A fresh default tracer with tracing enabled for the test."""
    fresh = Tracer()
    previous = obs.set_tracer(fresh)
    with obs.enable_tracing():
        yield fresh
    obs.set_tracer(previous if previous is not None else Tracer())


class TestSpanBasics:
    def test_nesting_is_implicit_per_thread(self, tracer):
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.trace_id == outer.trace_id
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert len(tracer.spans()) == 2

    def test_siblings_share_trace_under_one_root(self, tracer):
        with tracer.span("root") as root:
            with tracer.span("a") as a:
                pass
            with tracer.span("b") as b:
                pass
        assert a.parent_id == b.parent_id == root.span_id
        assert tracer.trace_ids() == [root.trace_id]

    def test_exception_marks_span_error_and_propagates(self, tracer):
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        (span,) = tracer.spans()
        assert span.status == "error"
        assert span.attributes["exception"] == "ValueError"

    def test_duration_and_attributes(self, tracer):
        with tracer.span("work", items=10) as span:
            span.attributes["extra"] = "yes"
        assert span.duration > 0
        assert span.attributes == {"items": 10, "extra": "yes"}

    def test_start_times_anchored_to_monotonic_clock(self, tracer, monkeypatch):
        """A wall-clock step between spans must not reorder start times.

        Spans read ``time.time()`` only once per tracer (the epoch
        anchor); afterwards start times advance with ``perf_counter``,
        so even a backwards NTP step between two spans cannot produce
        a later span with an earlier ``start_time``.
        """
        import time as _time

        with tracer.span("before") as before:
            pass
        # Simulate an NTP step: wall clock jumps 1 hour backwards.
        real_time = _time.time
        monkeypatch.setattr(_time, "time", lambda: real_time() - 3600.0)
        with tracer.span("after") as after:
            pass
        assert after.start_time >= before.start_time
        # The anchor itself is still epoch-scale (JSON schema stable).
        assert abs(before.start_time - real_time()) < 60.0

    def test_start_time_tracks_elapsed_monotonic_time(self, tracer):
        import time as _time

        with tracer.span("a") as a:
            pass
        _time.sleep(0.01)
        with tracer.span("b") as b:
            pass
        assert 0.005 < b.start_time - a.start_time < 5.0

    def test_bare_span_default_start_time_is_epoch_scale(self):
        import time as _time

        span = Span("loose", trace_id="t" * 16, span_id="s" * 8)
        assert abs(span.start_time - _time.time()) < 60.0

    def test_explicit_parent_crosses_threads(self, tracer):
        import threading

        with tracer.span("root") as root:
            ctx = root.context()

            def worker():
                with tracer.span("child", parent=ctx):
                    pass

            t = threading.Thread(target=worker)
            t.start()
            t.join()
        child = next(s for s in tracer.spans() if s.name == "child")
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id

    def test_ring_buffer_bounds_and_counts_drops(self):
        small = Tracer(max_spans=4)
        for i in range(10):
            with small.span(f"s{i}"):
                pass
        assert len(small.spans()) == 4
        assert small.dropped == 6
        assert [s.name for s in small.spans()] == ["s6", "s7", "s8", "s9"]

    def test_evictions_export_dropped_spans_counter(self, registry):
        small = Tracer(max_spans=2, registry=registry)
        for i in range(5):
            with small.span(f"s{i}"):
                pass
        counter = registry.get("repro_trace_spans_dropped_total")
        assert counter is not None
        assert counter.value == 3
        assert "repro_trace_spans_dropped_total 3\n" in registry.to_prometheus()
        # clear() resets the tracer's own tally, never the cumulative total
        small.clear()
        assert small.dropped == 0
        assert counter.value == 3

    def test_eviction_counter_uses_global_registry_by_default(self, registry):
        # conftest's `registry` fixture swaps the process-global registry,
        # so a registry-less tracer must land its counter there.
        small = Tracer(max_spans=1)
        for i in range(3):
            with small.span(f"s{i}"):
                pass
        assert registry.get("repro_trace_spans_dropped_total").value == 2

    def test_current_span_for_thread_is_cross_thread_readable(self, tracer):
        import threading

        ready = threading.Event()
        release = threading.Event()
        tids = []

        def worker():
            tids.append(threading.get_ident())
            with tracer.span("held_open"):
                ready.set()
                release.wait(timeout=5.0)

        thread = threading.Thread(target=worker)
        thread.start()
        try:
            assert ready.wait(timeout=5.0)
            span = tracer.current_span_for_thread(tids[0])
            assert span is not None and span.name == "held_open"
            # unknown / spanless threads answer None, never raise
            assert tracer.current_span_for_thread(threading.get_ident()) is None
            assert tracer.current_span_for_thread(-1) is None
        finally:
            release.set()
            thread.join(timeout=5.0)
        assert tracer.current_span_for_thread(tids[0]) is None  # stack cleaned up

    def test_span_context_wire_round_trip(self):
        ctx = SpanContext("t" * 32, "s" * 16)
        back = SpanContext.from_wire(ctx.to_wire())
        assert back.trace_id == ctx.trace_id
        assert back.span_id == ctx.span_id

    def test_span_dict_round_trip(self, tracer):
        with tracer.span("op", k=1):
            pass
        (span,) = tracer.spans()
        back = Span.from_dict(span.as_dict())
        assert back.as_dict() == span.as_dict()


class TestHotPathGating:
    def test_disabled_by_default_no_spans(self):
        fresh = Tracer()
        previous = obs.set_tracer(fresh)
        try:
            assert not obs.tracing_enabled()
            HyperLogLog(p=8, seed=1).update_many(np.arange(100))
            assert len(fresh.spans()) == 0
        finally:
            obs.set_tracer(previous if previous is not None else Tracer())

    def test_hot_flag_is_union_of_metrics_and_tracing(self):
        assert HOT.flag == (obs.enabled() or TRACE.enabled)
        with obs.enable_tracing():
            assert HOT.flag
        assert HOT.flag == (obs.enabled() or TRACE.enabled)
        with obs.enable():
            assert HOT.flag
        assert HOT.flag == (obs.enabled() or TRACE.enabled)

    def test_sketch_ops_emit_spans_when_enabled(self, tracer):
        sketch = HyperLogLog(p=8, seed=1)
        sketch.update_many(np.arange(1000))
        blob = sketch.to_bytes()
        HyperLogLog.from_bytes(blob)
        names = {s.name for s in tracer.spans()}
        assert "HyperLogLog.update_many" in names
        assert "HyperLogLog.to_bytes" in names
        assert "HyperLogLog.from_bytes" in names
        um = next(s for s in tracer.spans() if s.name == "HyperLogLog.update_many")
        assert um.attributes["items"] == 1000

    def test_merge_many_span_counts_parts(self, tracer):
        parts = []
        for seed_offset in range(3):
            s = CountMinSketch(width=128, depth=3, seed=7)
            s.update_many(np.arange(100))
            parts.append(s)
        parts[0].merge_many(parts[1:])
        mm = next(s for s in tracer.spans() if s.name == "CountMinSketch.merge_many")
        assert mm.attributes["parts"] == 2

    def test_tracing_without_metrics_keeps_registry_silent(self, tracer):
        registry = obs.MetricsRegistry()
        previous = obs.set_registry(registry)
        try:
            assert not obs.enabled()
            KLLSketch(k=128, seed=1).update_many(np.arange(500))
        finally:
            obs.set_registry(previous if previous is not None else obs.MetricsRegistry())
        assert registry.collect() == []
        assert any(s.name == "KLLSketch.update_many" for s in tracer.spans())


class TestPipelineAndConcurrentSpans:
    def test_feed_emits_root_and_batch_spans(self, tracer):
        from repro.streaming import StreamPipeline

        class Op:
            def process_many(self, records):
                pass

        n = StreamPipeline(range(1000)).feed(Op(), batch_size=256)
        assert n == 1000
        root = next(s for s in tracer.spans() if s.name == "pipeline.feed")
        batches = [s for s in tracer.spans() if s.name == "pipeline.feed_batch"]
        assert root.attributes["records"] == 1000
        assert root.attributes["batches"] == 4
        assert len(batches) == 4
        assert all(b.parent_id == root.span_id for b in batches)
        assert sorted(b.attributes["batch"] for b in batches) == [0, 1, 2, 3]

    def test_grouped_kernel_emits_one_span_per_batch(self, tracer):
        from repro.streaming import GroupBySketcher, StreamPipeline

        gb = GroupBySketcher(lambda r: r % 7, lambda: HyperLogLog(p=8, seed=1))
        StreamPipeline(range(1000)).feed(gb, batch_size=500)
        spans = tracer.spans()
        batches = [s for s in spans if s.name == "pipeline.feed_batch"]
        grouped = [s for s in spans if s.name == "HyperLogLog.update_grouped"]
        assert len(batches) == len(grouped) == 2
        assert {s.parent_id for s in grouped} == {b.span_id for b in batches}
        assert [s.attributes["items"] for s in grouped] == [500, 500]
        assert [s.attributes["groups"] for s in grouped] == [7, 7]
        assert not any(s.name == "HyperLogLog.update_many" for s in spans)

    def test_concurrent_compact_and_drain_spans(self, tracer):
        from repro.concurrent import ConcurrentSketch

        wrapper = ConcurrentSketch(lambda: HyperLogLog(p=8, seed=1))
        wrapper.update_many(np.arange(100))
        wrapper.compact()
        wrapper.update_many(np.arange(100))  # re-register folds the retiree
        names = [s.name for s in tracer.spans()]
        assert "concurrent.compact" in names
        assert "concurrent.drain" in names


class TestEndToEndShardedTrace:
    def test_process_build_yields_one_reparented_trace_tree(self, tracer):
        # Acceptance criterion: a 4-shard process-backend build produces
        # ONE trace tree; per-shard child spans carry worker pids and
        # their summed durations are consistent with the root span.
        rng = np.random.default_rng(7)
        builder = ShardedBuilder(SketchSpec(HyperLogLog, p=12, seed=1))
        builder.extend(rng.integers(0, 1 << 40, 40_000), shards=4)
        merged, report = builder.build(workers=2, backend="process", return_report=True)
        assert report.backend == "process"

        spans = tracer.spans(report.trace_id)
        assert spans, "build emitted no spans for its reported trace id"
        # Exactly one tree: every span shares the trace id and exactly
        # one root exists — the parallel_build span named in the report.
        roots = [s for s in spans if s.parent_id is None]
        assert len(roots) == 1
        root = roots[0]
        assert root.name == "parallel_build"
        assert root.span_id == report.root_span_id

        shard_spans = [s for s in spans if s.name == "shard_build"]
        assert len(shard_spans) == 4
        assert all(s.parent_id == root.span_id for s in shard_spans)
        # Worker pids: recorded in the spans, matching the report, and
        # not the client pid (real child processes did the work).
        import os

        span_pids = {s.pid for s in shard_spans}
        assert span_pids == report.worker_pids
        assert os.getpid() not in span_pids
        assert {s.attributes["shard_id"] for s in shard_spans} == {0, 1, 2, 3}
        # ShardSpan telemetry ties to the same spans.
        assert {s.span_id for s in shard_spans} == {sp.span_id for sp in report.spans}

        # Durations consistent with the root: no child outlasts the
        # root (generous slack for clock granularity), and the shard
        # spans' total fits inside workers * root wall time.
        slack = 1.5
        assert all(s.duration <= root.duration * slack for s in shard_spans)
        assert sum(s.duration for s in shard_spans) <= 2 * root.duration * slack

        # Worker-side children (update_many/to_bytes) nest under their
        # shard_build span on the same trace.
        shard_ids = {s.span_id for s in shard_spans}
        worker_children = [s for s in spans if s.parent_id in shard_ids]
        assert any(s.name == "HyperLogLog.update_many" for s in worker_children)

        # Chrome export of this trace loads as valid JSON with one
        # event per span.
        chrome = json.loads(tracer.to_chrome_json(report.trace_id))
        assert len(chrome["traceEvents"]) == len(spans)
        assert {e["ph"] for e in chrome["traceEvents"]} == {"X"}
        for event in chrome["traceEvents"]:
            assert event["args"]["trace_id"] == report.trace_id

        # And the result is still correct (~40k near-distinct items).
        assert merged.estimate() == pytest.approx(40_000, rel=0.05)

    def test_thread_backend_also_traces_into_one_tree(self, tracer):
        builder = ShardedBuilder(SketchSpec(KLLSketch, k=160, seed=3))
        rng = np.random.default_rng(11)
        builder.extend(rng.normal(size=20_000), shards=3)
        _, report = builder.build(workers=2, backend="thread", return_report=True)
        spans = tracer.spans(report.trace_id)
        shard_spans = [s for s in spans if s.name == "shard_build"]
        assert len(shard_spans) == 3
        assert all(s.parent_id == report.root_span_id for s in shard_spans)

    def test_report_trace_fields_empty_when_tracing_off(self):
        builder = ShardedBuilder(SketchSpec(HyperLogLog, p=8, seed=1))
        builder.extend(np.arange(1000), shards=2)
        _, report = builder.build(workers=2, backend="serial", return_report=True)
        assert report.trace_id == ""
        assert report.root_span_id == ""
        assert all(s.span_id == "" for s in report.spans)


class TestExports:
    def test_to_json_round_trips(self, tracer):
        with tracer.span("a", n=1):
            pass
        data = json.loads(tracer.to_json())
        assert len(data) == 1
        assert data[0]["name"] == "a"
        assert data[0]["attributes"] == {"n": 1}

    def test_adopt_reparents_foreign_roots(self, tracer):
        foreign = Tracer()
        with foreign.span("remote_root"):
            with foreign.span("remote_child"):
                pass
        with tracer.span("local_root") as local_root:
            adopted = tracer.adopt(foreign.as_dicts(), parent=local_root)
        by_name = {s.name: s for s in adopted}
        assert by_name["remote_root"].parent_id == local_root.span_id
        assert by_name["remote_child"].parent_id == by_name["remote_root"].span_id
        assert all(s.trace_id == local_root.trace_id for s in adopted)
