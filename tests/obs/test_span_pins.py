"""Pins: the span tree and the registry series of every instrumented op.

Each scenario runs with metrics and tracing both on, into a fresh
registry and tracer, and is compared line by line with a rendering of
what it must leave behind:

- the span forest, one line per span (``name key=value ... [error]``,
  children indented under their parent and sorted), so span names,
  attribute keys and values, parent links and error status are all
  pinned; timings and ids are left out, and every span of a tree must
  share its root's trace id;
- the registry, one line per series (``name{labels} value``), with
  counter and gauge values and histogram counts (plus the byte sums of
  the serde histograms, which are exact).
"""

from collections import defaultdict

import numpy as np
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
from repro.obs import AccuracyAuditor, MetricsRegistry, Tracer
from repro.obs.registry import Counter, Gauge
from repro.parallel import SketchSpec, parallel_build
from repro.parallel import sharded as sharded_mod
from repro.streaming import GroupBySketcher

#: histograms whose sum is exact (byte counts) and so pinned too.
EXACT_SUM_HISTOGRAMS = ("repro_sketch_serde_bytes",)


@pytest.fixture
def pinned():
    """A fresh registry and tracer with metrics and tracing on."""
    registry, tracer = MetricsRegistry(), Tracer()
    previous_registry = obs.set_registry(registry)
    previous_tracer = obs.set_tracer(tracer)
    with obs.enable(), obs.enable_tracing():
        yield registry, tracer
    obs.set_registry(
        previous_registry if previous_registry is not None else MetricsRegistry()
    )
    obs.set_tracer(previous_tracer if previous_tracer is not None else Tracer())


def span_lines(tracer: Tracer) -> list[str]:
    """The finished spans as an indented forest, children sorted."""
    spans = tracer.spans()
    ids = {span.span_id: span for span in spans}
    children = defaultdict(list)
    roots = []
    for span in spans:
        if span.parent_id is None:
            roots.append(span)
        else:
            assert span.parent_id in ids, f"{span.name} has an unknown parent"
            assert span.trace_id == ids[span.parent_id].trace_id
            children[span.parent_id].append(span)

    def render(span, depth):
        attrs = "".join(f" {k}={v!r}" for k, v in sorted(span.attributes.items()))
        status = "" if span.status == "ok" else f" [{span.status}]"
        below = sorted(
            (render(child, depth + 1) for child in children[span.span_id]),
            key=lambda block: block[0],
        )
        return ["  " * depth + span.name + attrs + status] + [
            line for block in below for line in block
        ]

    blocks = sorted((render(root, 0) for root in roots), key=lambda b: b[0])
    return [line for block in blocks for line in block]


def series_lines(registry: MetricsRegistry) -> list[str]:
    """One line per registry series: counter/gauge value, histogram count."""
    lines = []
    for metric in registry.collect():
        labels = ",".join(f"{k}={v}" for k, v in sorted(metric.labels.items()))
        head = f"{metric.name}{{{labels}}}"
        if isinstance(metric, (Counter, Gauge)):
            lines.append(f"{head} {metric.value:g}")
        elif metric.name in EXACT_SUM_HISTOGRAMS:
            lines.append(f"{head} count={metric.count} sum={metric.sum:g}")
        else:
            lines.append(f"{head} count={metric.count}")
    return lines


def pin(text: str) -> list[str]:
    """A pinned block as lines (common indentation stripped)."""
    lines = [line for line in text.splitlines() if line.strip()]
    indent = min(len(line) - len(line.lstrip()) for line in lines)
    return [line[indent:] for line in lines]


def test_sketch_ops(pinned):
    registry, tracer = pinned
    hll = HyperLogLog(p=8, seed=1)
    hll.update("a")
    hll.update_many(np.arange(1000))
    other = HyperLogLog(p=8, seed=1)
    other.update_many(np.arange(500, 1500))
    hll.merge(other)
    HyperLogLog.merge_many([hll, other, other])
    blob = hll.to_bytes()
    HyperLogLog.from_bytes(blob)
    from_bytes_any(blob)
    assert span_lines(tracer) == pin("""
        HyperLogLog.from_bytes nbytes=300
        HyperLogLog.merge
        HyperLogLog.merge_many parts=3
        HyperLogLog.to_bytes nbytes=300
        HyperLogLog.update_many items=1000
        HyperLogLog.update_many items=1000
        from_bytes_any nbytes=300
    """)
    assert series_lines(registry) == pin("""
        repro_sketch_items_total{op=from_bytes,sketch=HyperLogLog} 2
        repro_sketch_items_total{op=merge,sketch=HyperLogLog} 1
        repro_sketch_items_total{op=merge_many,sketch=HyperLogLog} 3
        repro_sketch_items_total{op=to_bytes,sketch=HyperLogLog} 1
        repro_sketch_items_total{op=update,sketch=HyperLogLog} 1
        repro_sketch_items_total{op=update_many,sketch=HyperLogLog} 2000
        repro_sketch_op_seconds{op=from_bytes,sketch=HyperLogLog} count=2
        repro_sketch_op_seconds{op=merge,sketch=HyperLogLog} count=1
        repro_sketch_op_seconds{op=merge_many,sketch=HyperLogLog} count=1
        repro_sketch_op_seconds{op=to_bytes,sketch=HyperLogLog} count=1
        repro_sketch_op_seconds{op=update_many,sketch=HyperLogLog} count=2
        repro_sketch_ops_total{op=from_bytes,sketch=HyperLogLog} 2
        repro_sketch_ops_total{op=merge,sketch=HyperLogLog} 1
        repro_sketch_ops_total{op=merge_many,sketch=HyperLogLog} 1
        repro_sketch_ops_total{op=to_bytes,sketch=HyperLogLog} 1
        repro_sketch_ops_total{op=update,sketch=HyperLogLog} 1
        repro_sketch_ops_total{op=update_many,sketch=HyperLogLog} 2
        repro_sketch_serde_bytes{op=from_bytes,sketch=HyperLogLog} count=2 sum=600
        repro_sketch_serde_bytes{op=to_bytes,sketch=HyperLogLog} count=1 sum=300
    """)


def test_failing_ops_mark_their_span_and_count_the_error(pinned):
    registry, tracer = pinned
    hll = HyperLogLog(p=8, seed=1)
    with pytest.raises(IncompatibleSketchError):
        hll.merge(HyperLogLog(p=9, seed=1))
    with pytest.raises(DeserializationError):
        from_bytes_any(b"not a sketch")
    with pytest.raises(DeserializationError):
        HyperLogLog.from_bytes(CountMinSketch(width=8, depth=2, seed=1).to_bytes())
    assert span_lines(tracer) == pin("""
        CountMinSketch.to_bytes nbytes=341
        HyperLogLog.from_bytes exception='DeserializationError' nbytes=341 [error]
        HyperLogLog.merge exception='IncompatibleSketchError' [error]
        from_bytes_any exception='DeserializationError' nbytes=12 [error]
    """)
    assert series_lines(registry) == pin("""
        repro_sketch_errors_total{kind=deserialization,sketch=HyperLogLog} 1
        repro_sketch_errors_total{kind=deserialization,sketch=any} 1
        repro_sketch_errors_total{kind=merge_incompatible,sketch=HyperLogLog} 1
        repro_sketch_items_total{op=to_bytes,sketch=CountMinSketch} 1
        repro_sketch_op_seconds{op=to_bytes,sketch=CountMinSketch} count=1
        repro_sketch_ops_total{op=to_bytes,sketch=CountMinSketch} 1
        repro_sketch_serde_bytes{op=to_bytes,sketch=CountMinSketch} count=1 sum=341
    """)


def test_pipeline_feed_and_grouped_updates(pinned):
    registry, tracer = pinned
    registers = GroupBySketcher(lambda r: r % 3, lambda: HyperLogLog(p=8, seed=1))
    StreamPipeline(range(1000)).feed(registers, batch_size=400)
    counters = GroupBySketcher(
        lambda r: r % 2, lambda: CountMinSketch(width=64, depth=2, seed=1)
    )
    StreamPipeline(range(10)).feed(counters, batch_size=8)

    class Plain:
        def process(self, record):
            pass

    StreamPipeline(range(5)).feed(Plain())
    assert span_lines(tracer) == pin("""
        pipeline.feed batch_size=400 batches=3 operators=1 records=1000
          pipeline.feed_batch batch=0 records=400
            HyperLogLog.update_grouped groups=3 items=400
          pipeline.feed_batch batch=1 records=400
            HyperLogLog.update_grouped groups=3 items=400
          pipeline.feed_batch batch=2 records=200
            HyperLogLog.update_grouped groups=3 items=200
        pipeline.feed batch_size=512 batches=0 operators=1 records=5
        pipeline.feed batch_size=8 batches=2 operators=1 records=10
          pipeline.feed_batch batch=0 records=8
            CountMinSketch.update_many items=4
            CountMinSketch.update_many items=4
          pipeline.feed_batch batch=1 records=2
            CountMinSketch.update_many items=1
            CountMinSketch.update_many items=1
    """)
    assert series_lines(registry) == pin("""
        repro_pipeline_batches_total{} 5
        repro_pipeline_feed_seconds{} count=3
        repro_pipeline_records_total{} 1015
        repro_sketch_items_total{op=update_many,sketch=CountMinSketch} 10
        repro_sketch_items_total{op=update_many,sketch=HyperLogLog} 1000
        repro_sketch_op_seconds{op=update_many,sketch=CountMinSketch} count=4
        repro_sketch_op_seconds{op=update_many,sketch=HyperLogLog} count=3
        repro_sketch_ops_total{op=update_many,sketch=CountMinSketch} 4
        repro_sketch_ops_total{op=update_many,sketch=HyperLogLog} 3
    """)


def test_concurrent_maintenance(pinned):
    registry, tracer = pinned
    wrapper = ConcurrentSketch(lambda: HyperLogLog(p=8, seed=1), buffer_items=100)
    wrapper.update_many(np.arange(150))
    wrapper.update_many(np.arange(50))
    wrapper.compact()
    assert span_lines(tracer) == pin("""
        HyperLogLog.update_many items=150
        HyperLogLog.update_many items=50
        concurrent.compact retired=1
          concurrent.drain folded=1 retiring=1
            HyperLogLog.merge
            HyperLogLog.merge
        concurrent.propagate items=150
          HyperLogLog.merge
    """)
    assert series_lines(registry) == pin("""
        repro_concurrent_compact_total{} 1
        repro_concurrent_drain_total{} 1
        repro_concurrent_propagate_total{} 1
        repro_concurrent_replicas{state=live} 0
        repro_concurrent_replicas{state=retiring} 0
        repro_sketch_items_total{op=merge,sketch=HyperLogLog} 3
        repro_sketch_items_total{op=update_many,sketch=HyperLogLog} 200
        repro_sketch_op_seconds{op=merge,sketch=HyperLogLog} count=3
        repro_sketch_op_seconds{op=update_many,sketch=HyperLogLog} count=2
        repro_sketch_ops_total{op=merge,sketch=HyperLogLog} 3
        repro_sketch_ops_total{op=update_many,sketch=HyperLogLog} 2
    """)


def test_audit_checks(pinned):
    registry, tracer = pinned
    stream = np.random.default_rng(3).integers(0, 200, 2000)
    for sketch in (
        HyperLogLog(p=10, seed=1),
        CountMinSketch(width=256, depth=3, seed=1),
        KLLSketch(k=64, seed=1),
    ):
        auditor = AccuracyAuditor(sketch, check_every=0, seed=1)
        auditor.update_many(stream)
        auditor.check()
    assert span_lines(tracer) == pin("""
        CountMinSketch.update_many items=2000
        HyperLogLog.update_many items=2000
        KLLSketch.update_many items=2000
        ReservoirSampler.update_many items=2000
        audit.check.cardinality sketch='HyperLogLog'
        audit.check.frequency sketch='CountMinSketch'
        audit.check.rank sketch='KLLSketch'
    """)
    assert series_lines(registry) == pin("""
        repro_audit_checks_total{kind=cardinality,sketch=HyperLogLog} 1
        repro_audit_checks_total{kind=frequency,sketch=CountMinSketch} 1
        repro_audit_checks_total{kind=rank,sketch=KLLSketch} 1
        repro_audit_error_bound{kind=cardinality,sketch=HyperLogLog} 0.311288
        repro_audit_error_bound{kind=frequency,sketch=CountMinSketch} 0.228439
        repro_audit_error_bound{kind=rank,sketch=KLLSketch} 0.0927395
        repro_audit_observed_error{kind=cardinality,sketch=HyperLogLog} 0.0884665
        repro_audit_observed_error{kind=frequency,sketch=CountMinSketch} 0.0095
        repro_audit_observed_error{kind=rank,sketch=KLLSketch} 0.0165
        repro_sketch_items_total{op=update_many,sketch=CountMinSketch} 2000
        repro_sketch_items_total{op=update_many,sketch=HyperLogLog} 2000
        repro_sketch_items_total{op=update_many,sketch=KLLSketch} 2000
        repro_sketch_items_total{op=update_many,sketch=ReservoirSampler} 2000
        repro_sketch_op_seconds{op=update_many,sketch=CountMinSketch} count=1
        repro_sketch_op_seconds{op=update_many,sketch=HyperLogLog} count=1
        repro_sketch_op_seconds{op=update_many,sketch=KLLSketch} count=1
        repro_sketch_op_seconds{op=update_many,sketch=ReservoirSampler} count=1
        repro_sketch_ops_total{op=update_many,sketch=CountMinSketch} 1
        repro_sketch_ops_total{op=update_many,sketch=HyperLogLog} 1
        repro_sketch_ops_total{op=update_many,sketch=KLLSketch} 1
        repro_sketch_ops_total{op=update_many,sketch=ReservoirSampler} 1
    """)


BUILD_SPANS = """
    parallel_build backend={backend!r} requested_backend={backend!r} shards=2 workers=2
      CountMinSketch.merge_many parts=2
      shard_build backend={backend!r} items=500 shard_id=0
        CountMinSketch.update_many items=500
      shard_build backend={backend!r} items=500 shard_id=1
        CountMinSketch.update_many items=500
"""

PROCESS_BUILD_SPANS = """
    parallel_build backend='process' requested_backend='process' shards=2 workers=2
      CountMinSketch.merge_many parts=2
      from_bytes_any nbytes=6359
      from_bytes_any nbytes=6359
      shard_build backend='process' items=500 shard_id=0
        CountMinSketch.to_bytes nbytes=6359
        CountMinSketch.update_many items=500
      shard_build backend='process' items=500 shard_id=1
        CountMinSketch.to_bytes nbytes=6359
        CountMinSketch.update_many items=500
"""

IN_PROCESS_BUILD_SERIES = """
    repro_parallel_builds_total{{backend={backend}}} 1
    repro_parallel_merge_seconds{{backend={backend}}} count=1
    repro_parallel_shard_build_seconds{{backend={backend}}} count=2
    repro_parallel_shard_items_total{{backend={backend}}} 1000
    repro_parallel_shards_total{{backend={backend}}} 2
    repro_sketch_items_total{{op=merge_many,sketch=CountMinSketch}} 2
    repro_sketch_items_total{{op=update_many,sketch=CountMinSketch}} 1000
    repro_sketch_op_seconds{{op=merge_many,sketch=CountMinSketch}} count=1
    repro_sketch_op_seconds{{op=update_many,sketch=CountMinSketch}} count=2
    repro_sketch_ops_total{{op=merge_many,sketch=CountMinSketch}} 1
    repro_sketch_ops_total{{op=update_many,sketch=CountMinSketch}} 2
"""

PROCESS_BUILD_SERIES = """
    repro_parallel_builds_total{backend=process} 1
    repro_parallel_merge_seconds{backend=process} count=1
    repro_parallel_shard_build_seconds{backend=process} count=2
    repro_parallel_shard_items_total{backend=process} 1000
    repro_parallel_shards_total{backend=process} 2
    repro_sketch_items_total{op=from_bytes,sketch=CountMinSketch} 2
    repro_sketch_items_total{op=merge_many,sketch=CountMinSketch} 2
    repro_sketch_op_seconds{op=from_bytes,sketch=CountMinSketch} count=2
    repro_sketch_op_seconds{op=merge_many,sketch=CountMinSketch} count=1
    repro_sketch_ops_total{op=from_bytes,sketch=CountMinSketch} 2
    repro_sketch_ops_total{op=merge_many,sketch=CountMinSketch} 1
    repro_sketch_serde_bytes{op=from_bytes,sketch=CountMinSketch} count=2 sum=12718
"""


@pytest.mark.parametrize("backend", ["serial", "thread", "process-cold", "process-warm"])
def test_parallel_build(pinned, backend):
    registry, tracer = pinned
    backend, _, pool = backend.partition("-")
    if pool == "cold" and sharded_mod._POOL is not None:
        sharded_mod._POOL.shutdown()
    spec = SketchSpec(CountMinSketch, width=256, depth=3, seed=1)
    shards = [np.arange(500), np.arange(500, 1000)]
    _, report = parallel_build(
        spec, shards, workers=2, backend=backend, return_report=True
    )
    (root,) = [s for s in tracer.spans() if s.parent_id is None]
    assert (root.trace_id, root.span_id) == (report.trace_id, report.root_span_id)
    shard_ids = {s.span_id for s in tracer.spans() if s.name == "shard_build"}
    assert shard_ids == {span.span_id for span in report.spans}
    if backend == "process":
        assert span_lines(tracer) == pin(PROCESS_BUILD_SPANS)
        assert series_lines(registry) == pin(PROCESS_BUILD_SERIES)
    else:
        assert span_lines(tracer) == pin(BUILD_SPANS.format(backend=backend))
        assert series_lines(registry) == pin(
            IN_PROCESS_BUILD_SERIES.format(backend=backend)
        )
