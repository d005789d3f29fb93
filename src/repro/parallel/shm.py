"""Zero-copy shared-memory shard fabric for ``parallel_build``.

The process backend ships every partial sketch through a full serde
round-trip: the worker ``to_bytes``-encodes its state, the executor
pickles the blob across the pipe, and the parent decodes before the
k-way reduce.  For array-backed families that round-trip is pure
overhead — the state *is* a handful of fixed-shape numpy arrays, and
"Fast Concurrent Data Sketches" (Rinberg et al.) already showed the
shape we want: writers mutate shared state in place, readers snapshot
without copying.  This module applies that shape across process
boundaries with ``multiprocessing.shared_memory``:

1. the parent sizes one segment per shard from a prototype sketch's
   :meth:`~repro.core.SharedStateSketch._state_arrays` layout (shapes
   and dtypes depend only on constructor parameters, so the segment is
   sized before the worker has seen a single item);
2. each worker attaches its segment, rebinds a fresh sketch's state
   into it (:meth:`~repro.core.SharedStateSketch._attach_state`) and
   ingests the shard — every register/counter write lands directly in
   shared memory;
3. the parent attaches each completed segment and hands the partials
   to ``merge_many`` — the reduce kernels read the worker-written
   arrays **without a single copy or ``from_bytes`` call**.

On the scatter side, numpy-array shards ship through one shared input
segment (a single parent-side pack) instead of being pickled as
strided-view copies.

Lifecycle is deterministic and owner-based: the parent creates every
segment and is the only one to ``unlink``; workers attach, build,
flush, and ``close``.  :class:`ShardFabric` guarantees cleanup in a
``finally`` even when a worker dies mid-build (the pool raises
``BrokenProcessPool``; the segments are unlinked before it
propagates), and attaching processes unregister from the
``resource_tracker`` so no process double-frees or warns about leaked
segments at shutdown.  Platforms without (writable) POSIX shared
memory degrade gracefully: :func:`shm_available` probes once, and
``parallel_build`` falls back to the serde wire format with the named
reason ``no_shm_platform``.
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..core import MergeableSketch, supports_shared_state
from ..obs.report import ShardSpan
from ..obs.trace import SpanContext, Tracer, enable_tracing, set_tracer

try:  # pragma: no cover - the import itself never fails on CPython >= 3.8
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None

__all__ = [
    "ArraySpec",
    "ShardFabric",
    "StateLayout",
    "pack_input_shards",
    "shm_available",
]

#: segment offsets are aligned so every array view starts on a cache line.
_ALIGN = 64

_SHM_AVAILABLE: bool | None = None


def _align(offset: int) -> int:
    return -(-offset // _ALIGN) * _ALIGN


def shm_available() -> bool:
    """Probe (once) whether POSIX/named shared memory actually works here.

    Some locked-down containers expose the module but fail at
    ``shm_open`` time, so the check creates and unlinks a real 1-page
    segment rather than trusting the import.
    """
    global _SHM_AVAILABLE
    if _SHM_AVAILABLE is None:
        if _shared_memory is None:
            _SHM_AVAILABLE = False
        else:
            try:
                probe = _shared_memory.SharedMemory(create=True, size=16)
                probe.buf[0] = 1
                probe.close()
                probe.unlink()
                _SHM_AVAILABLE = True
            except Exception:
                _SHM_AVAILABLE = False
    return _SHM_AVAILABLE


def attach_segment(name: str):
    """Attach an existing segment by name (no ownership transfer).

    CPython ≤ 3.11 registers the segment with the ``resource_tracker``
    on *attach* as well as on create.  Pool workers — fork or spawn —
    share the parent's tracker process, whose per-type cache is a set,
    so the attach-side registration dedups against the parent's
    create-side one and the parent's single ``unlink`` balances the
    books: no premature unlink, no leaked-object warning, and no
    KeyError from double unregistration.  Explicitly unregistering here
    would *unbalance* that shared cache, so we deliberately do not.
    ``parallel_build`` starts the tracker before it forks its warm
    pool, so every worker finds the parent's.
    """
    return _shared_memory.SharedMemory(name=name)


def _close_quietly(seg) -> None:
    """Close a segment, tolerating still-exported buffer views.

    ``mmap.close`` raises ``BufferError`` while numpy views into the
    buffer are alive; the views keep the mapping pinned until they are
    collected, so deferring the unmap is safe — what must never be
    deferred is the ``unlink`` (the caller does that regardless).
    """
    try:
        seg.close()
    except BufferError:
        pass


@dataclass(frozen=True)
class ArraySpec:
    """One named array inside a shard segment: dtype, shape, placement."""

    name: str
    dtype: str
    shape: tuple
    offset: int
    nbytes: int


@dataclass(frozen=True)
class StateLayout:
    """The byte layout of one sketch's state arrays inside a segment.

    Computed once from a prototype (:meth:`from_sketch`) and shipped to
    workers by pickle — it is a few tuples of ints and strings, not
    sketch state.  ``views(buf)`` materializes the named zero-copy
    array views over any buffer of at least :attr:`nbytes` bytes.
    """

    arrays: tuple
    nbytes: int

    @classmethod
    def from_sketch(cls, sketch) -> "StateLayout":
        if not supports_shared_state(sketch):
            raise TypeError(
                f"{type(sketch).__name__} does not implement the "
                "SharedStateSketch protocol (_state_arrays/_attach_state)"
            )
        specs = []
        offset = 0
        for name, arr in sketch._state_arrays().items():
            arr = np.asarray(arr)
            offset = _align(offset)
            specs.append(
                ArraySpec(name, arr.dtype.str, tuple(arr.shape), offset, arr.nbytes)
            )
            offset += arr.nbytes
        return cls(tuple(specs), max(_ALIGN, _align(offset)))

    def views(self, buf) -> dict:
        """Named zero-copy array views over ``buf`` (a shared buffer)."""
        return {
            spec.name: np.ndarray(
                spec.shape, dtype=np.dtype(spec.dtype), buffer=buf, offset=spec.offset
            )
            for spec in self.arrays
        }


def _flush_state(sketch, views: dict) -> None:
    """Write back any state the sketch did not mutate in place.

    Live arrays pass the identity check and cost nothing; scalar
    counters (materialized as fresh 1-element arrays) and rebound
    arrays (``CountingBloomFilter.update_many`` replaces its counter
    array) are copied into the segment — a memcpy, never a serde pass.
    """
    for name, arr in sketch._state_arrays().items():
        view = views[name]
        if arr is not view:
            np.copyto(view, arr, casting="same_kind")


@dataclass(frozen=True)
class _ShmArrayRef:
    """A picklable pointer to one input array inside the input segment."""

    segment: str
    offset: int
    dtype: str
    shape: tuple

    def resolve(self):
        """Attach and return ``(read-only view, segment handle)``.

        The caller owns closing the handle once the view is no longer
        needed; the view itself is zero-copy.
        """
        seg = attach_segment(self.segment)
        view = np.ndarray(
            self.shape, dtype=np.dtype(self.dtype), buffer=seg.buf, offset=self.offset
        )
        view.setflags(write=False)
        return view, seg


def pack_input_shards(shards: list):
    """Pack numpy-array shards into one shared input segment.

    Returns ``(segment or None, shippable shard list)``: every
    fixed-dtype ``ndarray`` shard becomes a tiny :class:`_ShmArrayRef`
    (name + offset + dtype + shape) and its data is copied **once**
    into the segment parent-side — instead of the executor pickling a
    materialized copy of each strided view per task.  Non-array shards
    (lists, tuples) ship pickled as before.  The caller owns the
    returned segment (close + unlink after the build).
    """
    packable = [
        i
        for i, s in enumerate(shards)
        if isinstance(s, np.ndarray) and not s.dtype.hasobject and s.size > 0
    ]
    if not packable:
        return None, list(shards)
    total = 0
    offsets = {}
    for i in packable:
        total = _align(total)
        offsets[i] = total
        total += shards[i].nbytes
    seg = _shared_memory.SharedMemory(create=True, size=max(_ALIGN, _align(total)))
    shipped = list(shards)
    try:
        for i in packable:
            arr = shards[i]
            view = np.ndarray(
                arr.shape, dtype=arr.dtype, buffer=seg.buf, offset=offsets[i]
            )
            np.copyto(view, arr)
            del view
            shipped[i] = _ShmArrayRef(seg.name, offsets[i], arr.dtype.str, tuple(arr.shape))
    except Exception:
        _close_quietly(seg)
        seg.unlink()
        raise
    return seg, shipped


class ShardFabric:
    """Parent-side owner of every shared segment of one build.

    Creates one state segment per shard (sized by the prototype's
    :class:`StateLayout`) plus, via :meth:`pack_inputs`, the shared
    input segment.  The parent is the sole owner: :meth:`close` tears
    everything down (close + unlink) exactly once, and is safe to call
    from a ``finally`` after any partial failure — including a worker
    death mid-build.
    """

    def __init__(self, prototype, n_shards: int) -> None:
        if not shm_available():
            raise RuntimeError("shared memory is not available on this platform")
        self.layout = StateLayout.from_sketch(prototype)
        self._segments = []
        self._input_segment = None
        self._views: list = []
        self._closed = False
        try:
            for _ in range(n_shards):
                self._segments.append(
                    _shared_memory.SharedMemory(create=True, size=self.layout.nbytes)
                )
        except Exception:
            self.close()
            raise

    @property
    def segment_names(self) -> list:
        """The per-shard segment names, indexed by shard id."""
        return [seg.name for seg in self._segments]

    @property
    def shm_bytes(self) -> int:
        """Total shared bytes owned by the fabric (state + input)."""
        total = sum(seg.size for seg in self._segments)
        if self._input_segment is not None:
            total += self._input_segment.size
        return total

    def pack_inputs(self, shards: list) -> list:
        """Pack array shards into the fabric-owned input segment."""
        self._input_segment, shipped = pack_input_shards(shards)
        return shipped

    def attach_partial(self, factory: Callable[[], Any], shard_id: int):
        """Adopt the worker-built state of one shard, zero-copy.

        Builds a fresh sketch from ``factory`` and rebinds its state to
        the segment's arrays — no decode, no copy; ``merge_many`` reads
        the worker's registers where the worker wrote them.
        """
        views = self.layout.views(self._segments[shard_id].buf)
        sketch = factory()
        sketch._attach_state(views)
        self._views.append(views)
        return sketch

    def close(self) -> None:
        """Close and unlink every owned segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._views.clear()
        for seg in self._segments:
            _close_quietly(seg)
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments = []
        if self._input_segment is not None:
            _close_quietly(self._input_segment)
            try:
                self._input_segment.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
            self._input_segment = None

    def __enter__(self) -> "ShardFabric":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _build_shard_shm(
    factory: Callable[[], Any],
    items,
    shard_id: int,
    segment_name: str,
    layout: StateLayout,
    trace_ctx: bytes | None = None,
):
    """Worker body: build one partial sketch *inside* its shared segment.

    Mirrors ``sharded._build_shard_bytes`` but replaces the serde ship
    with in-place shared-memory writes: attach the segment, initialize
    it to the fresh sketch's state, rebind the sketch into it, ingest,
    flush scalars, close (never unlink — the parent owns that).
    Returns ``(shard-span blob, trace blob)`` — telemetry only, no
    sketch bytes cross the pipe.  Module-level so the executor can
    pickle the task.
    """
    from .sharded import _encode_spans, _materialize

    input_segment = None
    if isinstance(items, _ShmArrayRef):
        items, input_segment = items.resolve()
    items, n_items = _materialize(items)
    seg = attach_segment(segment_name)
    trace_id = span_id = parent_span_id = ""
    spans_blob = b""
    views = sketch = None
    try:
        views = layout.views(seg.buf)
        sketch = factory()
        for name, arr in sketch._state_arrays().items():
            np.copyto(views[name], arr, casting="same_kind")
        sketch._attach_state(views)
        if trace_ctx is not None:
            parent = SpanContext.from_wire(trace_ctx)
            tracer = Tracer()
            previous_tracer = set_tracer(tracer)
            scope = enable_tracing()
            try:
                with tracer.span(
                    "shard_build",
                    parent=parent,
                    shard_id=shard_id,
                    items=n_items,
                    backend="shm",
                    transport="shm",
                ) as shard_span:
                    start = time.perf_counter()
                    sketch.update_many(items)
                    build_seconds = time.perf_counter() - start
                    _flush_state(sketch, views)
            finally:
                scope.restore()
                if previous_tracer is not None:
                    set_tracer(previous_tracer)
            trace_id = shard_span.trace_id
            span_id = shard_span.span_id
            parent_span_id = shard_span.parent_id or ""
            spans_blob = _encode_spans(tracer.as_dicts())
        else:
            start = time.perf_counter()
            sketch.update_many(items)
            build_seconds = time.perf_counter() - start
            _flush_state(sketch, views)
        shm_bytes = seg.size
    finally:
        # Drop every view into the buffers before closing the local
        # mappings; the parent keeps the segments alive and owns unlink.
        views = sketch = None
        if isinstance(items, np.ndarray):
            del items
        _close_quietly(seg)
        if input_segment is not None:
            _close_quietly(input_segment)
    span = ShardSpan(
        shard_id=shard_id,
        n_items=n_items,
        worker_pid=os.getpid(),
        build_seconds=build_seconds,
        serde_seconds=0.0,
        n_bytes=0,
        backend="shm",
        trace_id=trace_id,
        span_id=span_id,
        parent_span_id=parent_span_id,
        shm_bytes=shm_bytes,
    )
    return span.to_wire(), spans_blob


def merge_attached(factory: Callable[[], Any], fabric: ShardFabric, n_shards: int):
    """k-way reduce the fabric's attached partials into a private sketch.

    The returned sketch owns fresh arrays (every ``_merge_many_impl``
    copies the first part's state), so it survives the fabric teardown.
    """
    parts = [fabric.attach_partial(factory, i) for i in range(n_shards)]
    first = parts[0]
    if isinstance(first, MergeableSketch):
        return type(first).merge_many(parts)
    merged = first
    for other in parts[1:]:
        merged.merge(other)
    return merged
