"""StreamPipeline.feed batching edges.

The batched dispatch path must be invisible to operators: every record
delivered exactly once and in order, for any batch size relative to
stream length, and regardless of whether operators expose
``process_many``.
"""

import pytest

from repro import HyperLogLog, KLLSketch, StreamPipeline


class RecordingOp:
    """Plain per-record operator."""

    def __init__(self):
        self.records = []

    def process(self, record):
        self.records.append(record)


class BatchedOp:
    """Operator with the batched protocol; records batch boundaries too."""

    def __init__(self):
        self.records = []
        self.batch_sizes = []

    def process(self, record):  # pragma: no cover - feed prefers process_many
        self.records.append(record)

    def process_many(self, records):
        self.records.extend(records)
        self.batch_sizes.append(len(records))


class TestFeedEdges:
    def test_empty_source(self):
        plain, batched = RecordingOp(), BatchedOp()
        assert StreamPipeline([]).feed(plain, batched) == 0
        assert plain.records == []
        assert batched.records == []
        assert batched.batch_sizes == []

    def test_empty_source_after_filter(self):
        batched = BatchedOp()
        fed = StreamPipeline(range(10)).filter(lambda x: x > 99).feed(batched)
        assert fed == 0
        assert batched.records == []

    def test_batch_size_one(self):
        batched = BatchedOp()
        fed = StreamPipeline(range(5)).feed(batched, batch_size=1)
        assert fed == 5
        assert batched.records == list(range(5))
        assert batched.batch_sizes == [1, 1, 1, 1, 1]

    def test_length_exactly_a_multiple_of_batch_size(self):
        batched = BatchedOp()
        fed = StreamPipeline(range(12)).feed(batched, batch_size=4)
        assert fed == 12
        assert batched.records == list(range(12))
        assert batched.batch_sizes == [4, 4, 4]  # no trailing empty batch

    def test_length_not_a_multiple_keeps_the_tail(self):
        batched = BatchedOp()
        fed = StreamPipeline(range(10)).feed(batched, batch_size=4)
        assert fed == 10
        assert batched.records == list(range(10))
        assert batched.batch_sizes == [4, 4, 2]

    def test_batch_size_larger_than_stream(self):
        batched = BatchedOp()
        fed = StreamPipeline(range(3)).feed(batched, batch_size=100)
        assert fed == 3
        assert batched.batch_sizes == [3]

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            StreamPipeline([1]).feed(BatchedOp(), batch_size=0)

    def test_mixed_batched_and_unbatched_operators_see_identical_streams(self):
        plain, batched = RecordingOp(), BatchedOp()
        fed = StreamPipeline(range(100)).map(lambda x: x * 2).feed(
            plain, batched, batch_size=7
        )
        assert fed == 100
        assert plain.records == batched.records == [x * 2 for x in range(100)]

    def test_mixed_operators_match_unbatched_feed_on_sketches(self):
        # operator mix of batched/unbatched sketches: batched dispatch
        # must produce results identical to per-record feed.
        stream = [float(i % 37) for i in range(1000)]

        class SketchOp:
            def __init__(self, sketch):
                self.sketch = sketch

            def process(self, record):
                self.sketch.update(record)

            def process_many(self, records):
                self.sketch.update_many(records)

        class PlainSketchOp:
            def __init__(self, sketch):
                self.sketch = sketch

            def process(self, record):
                self.sketch.update(record)

        batched_kll = SketchOp(KLLSketch(k=64, seed=5))
        plain_hll = PlainSketchOp(HyperLogLog(p=10, seed=5))
        StreamPipeline(stream).feed(batched_kll, plain_hll, batch_size=128)

        ref_kll = KLLSketch(k=64, seed=5)
        ref_kll.update_many(stream)
        ref_hll = HyperLogLog(p=10, seed=5)
        for value in stream:
            ref_hll.update(value)

        assert batched_kll.sketch.to_bytes() == ref_kll.to_bytes()
        assert plain_hll.sketch.estimate() == ref_hll.estimate()
