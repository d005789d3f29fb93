"""Durable time-partitioned sketch store (``repro.store``).

The in-memory :class:`~repro.obs.timeline.TimelineRecorder` answers
"p99 over the last N minutes" while the process lives; this package
makes the same answers survive a restart.  It persists windowed sketch
partials keyed by ``(metric, group-labels, window)`` into append-only
**segment files** — one file per time partition, a versioned header,
CRC-framed per-window records carrying serde-encoded KLL / counter /
gauge partials, and an in-file key index for label lookup — and
answers arbitrary time-range + GROUP BY reads by ``merge_many``-folding
the covered partials.  KLL merges add no rank error, so a quantile
read from disk carries the same guarantee as one asked of the live
recorder.

Pieces:

- :class:`SketchStore` — the store itself: `append` windowed series,
  `query(metric, since=, until=, group_by=, **labels)` →
  :class:`~repro.obs.timeline.RangeResult` (the recorder's own range
  fold, which also reads the store for windows older than its ring),
  `iter_windows` for replay
  (both through a byte-bounded LRU of decoded windows), crash-tolerant
  recovery (torn tail records are dropped, counted in
  ``repro_store_tail_bytes_dropped_total``).
- :class:`Compactor` — TTL expiry + decay compaction (aged fine
  windows merge into coarser level-1 windows), with ``repro_store_*``
  counters for every byte reclaimed.
- :class:`SegmentWriter` / :class:`SegmentReader` — the on-disk format,
  usable standalone.

>>> from repro.store import SketchStore
>>> with SketchStore("/var/lib/repro/telemetry") as store:
...     recorder.attach_store(store, replay=True)  # rehydrate + write-through
...     result = store.query("latency_ms", since=t0, group_by="route")
"""

from ..obs.timeline import fold_partials
from .compact import Compactor
from .segment import (
    SEGMENT_MAGIC,
    SEGMENT_VERSION,
    SegmentReader,
    SegmentWriter,
    series_key,
)
from .store import (
    DEFAULT_PARTITION_SECONDS,
    SketchStore,
    decode_partial,
    encode_partial,
)

__all__ = [
    "SketchStore",
    "Compactor",
    "SegmentReader",
    "SegmentWriter",
    "series_key",
    "encode_partial",
    "decode_partial",
    "fold_partials",
    "DEFAULT_PARTITION_SECONDS",
    "SEGMENT_MAGIC",
    "SEGMENT_VERSION",
]
