"""Parallel sharded sketch building.

Mergeability is the property the paper credits for every distributed
deployment it surveys (§2's Mergeable Summaries thread, §3's
Gigascope/ad-tech systems): build a partial sketch per shard, ship the
small summaries, reduce.  This module is that architecture in-process —
the same shape *Fast Concurrent Data Sketches* (Rinberg et al.) and the
telemetry pipelines in *Sketchy With a Chance of Adoption* use in
production:

1. **fan out** — each shard's items go to a worker that builds a fresh
   sketch from the factory and ingests the shard through the vectorized
   ``update_many`` batch kernels;
2. **ship** — process workers return the partial sketch through the
   versioned serde wire format (``to_bytes``), exactly what a
   multi-node aggregation tier would put on the network;
3. **reduce** — the partials collapse with one k-way
   :meth:`~repro.core.MergeableSketch.merge_many` reduction instead of
   ``k − 1`` pairwise merges.

Backends: ``"process"`` (a pool of worker processes shipping partials
over the serde wire format; works for every family), ``"thread"``
(cheap, shares memory; right for small inputs where process hand-off
would dominate, and for numpy kernels that release the GIL),
``"serial"`` (same code path, no pool; the baseline and the
``workers=1`` fast path), and ``"auto"``, which picks ``serial`` for
one worker, ``thread`` below :data:`SMALL_INPUT_THRESHOLD` items or for
an unpicklable factory, and ``process`` otherwise.  When ``auto``
settles for threads it says why: a one-time ``RuntimeWarning`` per
reason (``small_input``, ``unpicklable_factory``), the reason recorded
on the :class:`~repro.obs.BuildReport`, and (when :mod:`repro.obs` is
enabled) a ``repro_parallel_backend_fallback_total{reason=...}``
counter.

The process pool is warm: ``process`` builds submit to one
``ProcessPoolExecutor`` that outlives the build, so only a build with
a new worker count pays to fork workers.  The pool is created
lazily and replaced (the old one shut down) when a build asks for
another worker count or when it is broken (a worker died).  A forked
child drops its parent's pool and makes its own, and the standard
library shuts the pool down at interpreter exit.  Its workers start with
:mod:`repro.obs` metrics and tracing off; traced builds switch tracing
on per task.  Factories and items reach the workers by pickle, so a
factory must be importable by the workers: a function defined in
``__main__`` after the first build is not, since the workers were
forked before it existed.

Every build emits telemetry: one :class:`~repro.obs.ShardSpan` per
shard (worker pid, item count, build/serde wall time, wire bytes —
process workers ship theirs back over the same typed serde encoding as
the sketches) collected into a :class:`~repro.obs.BuildReport`.  Pass
``return_report=True`` to get it alongside the merged sketch;
:class:`ShardedBuilder` also keeps the most recent one on
``last_report``.

Every backend runs the same shard body, :func:`_build_shard`: one
``shard_build`` :func:`~repro.obs.trace.op_span` around the factory,
``update_many`` and (for ``process``) ``to_bytes``, whose duration is
the :class:`~repro.obs.ShardSpan`'s timing whether or not tracing is
on.  ``serial`` calls it in a loop, ``thread`` maps it over a thread
pool, and the process task :func:`_build_shard_bytes` wraps it with a
private tracer and the wire encoding.  With :mod:`repro.obs.trace`
enabled, each build is one trace tree: a ``parallel_build`` root span,
one ``shard_build`` child per shard (process workers trace into the
private tracer and ship their spans back over the serde wire format
for client-side re-parenting — span ids ride on the
:class:`~repro.obs.ShardSpan`), the per-shard
``update_many``/``to_bytes``/``from_bytes_any`` sketch-op spans, and
the k-way ``merge_many`` reduce span.  Export it with
``get_tracer().to_chrome_json()`` or ``scripts/trace_report.py``.
"""

from __future__ import annotations

import io
import os
import pickle
import threading
import time
import warnings
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import (
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    as_completed,
    wait,
)
from typing import Any

import numpy as np

from ..core import MergeableSketch, from_bytes_any
from ..core.serde import decode_value, encode_value
from ..obs.registry import STATE as _OBS
from ..obs.registry import MetricsRegistry, disable, get_registry
from ..obs.report import BuildReport, ShardSpan
from ..obs.trace import (
    SpanContext,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    op_span,
    set_tracer,
)

__all__ = ["ShardedBuilder", "SketchSpec", "parallel_build", "partition_items"]

#: below this many total items, "auto" prefers threads over processes
#: (shard pickling and the hand-off to the warm pool's workers would
#: swamp the ingest time).
SMALL_INPUT_THRESHOLD = 1 << 16

_BACKENDS = ("auto", "process", "thread", "serial")

#: fallback reasons already warned about (one RuntimeWarning per reason
#: per process; the obs counter still counts every occurrence).
_FALLBACK_WARNED: set[str] = set()

#: the warm process pool and the worker count it was made for.  Only one
#: is kept, so no more than ``workers`` processes outlive a build.
_POOL: ProcessPoolExecutor | None = None
_POOL_WORKERS = 0
_POOL_LOCK = threading.Lock()


def _forget_pool() -> None:
    """After a fork, in the child: drop the parent's pool and lock.

    The child must never submit to its parent's workers, and the lock
    may have been held by another thread of the parent when it forked.
    """
    global _POOL, _POOL_LOCK
    _POOL = None
    _POOL_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _init_worker() -> None:
    """Pool initializer: a worker starts with metrics and tracing off.

    A forked worker inherits the obs switches of the moment it was
    forked and then outlives that build; without this, one forked
    during a traced build would keep recording spans on every later
    untraced one.
    """
    disable()
    disable_tracing()


def _submit(workers: int, fn: Callable, arg_lists: Sequence[tuple]) -> list:
    """Submit ``fn(*args)`` for each of ``arg_lists`` to the warm pool.

    The pool is made on first use and replaced when it was made for
    another worker count or is shut down, which a broken pool (a worker
    died) is too, so one crashed build does not fail every later one.  The
    tasks are submitted under the lock, so a build in another thread
    cannot shut the pool down between lookup and submit; the replaced
    pool is shut down after the lock is released, once the tasks
    already on it have finished.
    """
    global _POOL, _POOL_WORKERS
    with _POOL_LOCK:
        pool = stale = _POOL
        if pool is None or pool._shutdown_thread or _POOL_WORKERS != workers:
            pool = _POOL = ProcessPoolExecutor(
                max_workers=workers, initializer=_init_worker
            )
            _POOL_WORKERS = workers
        else:
            stale = None
        futures = [pool.submit(fn, *args) for args in arg_lists]
    if stale is not None:
        stale.shutdown(wait=True)
    return futures


def _settle(futures: list) -> None:
    """Cancel a failed build's queued tasks and wait out its running ones.

    The pool outlives the build, so this is what keeps a failed build's
    leftover work out of the next one.
    """
    for future in futures:
        future.cancel()
    wait(futures)


class SketchSpec:
    """A picklable sketch factory: ``SketchSpec(Class, **kwargs)``.

    Lambdas and closures cannot cross a process boundary; a spec is
    just ``(class, kwargs)`` and builds ``Class(**kwargs)`` on call, so
    it pickles anywhere the sketch class is importable.
    """

    def __init__(self, sketch_class: type, **kwargs: Any) -> None:
        if not callable(sketch_class):
            raise TypeError(f"sketch_class must be callable, got {sketch_class!r}")
        self.sketch_class = sketch_class
        self.kwargs = kwargs

    def __call__(self) -> Any:
        return self.sketch_class(**self.kwargs)

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.kwargs.items())
        return f"SketchSpec({self.sketch_class.__name__}, {args})"


def partition_items(items, shards: int) -> list:
    """Split a collection into ``shards`` round-robin strided shards.

    Numpy arrays shard with strided views (no copy until shipping);
    other sequences slice positionally.  A non-sequence iterable
    (generator, ``map`` object, file handle…) is **materialized
    exactly once** into a list before slicing, so one-shot iterators
    are safe: every item lands in exactly one shard and shard sizes
    differ by at most one — the iterator is never left half-consumed
    or re-iterated.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if isinstance(items, np.ndarray):
        return [items[i::shards] for i in range(shards)]
    if not isinstance(items, Sequence):
        items = list(items)
    return [items[i::shards] for i in range(shards)]


def _materialize(items) -> tuple[Any, int]:
    """(items, len) — listifying one-shot iterables so len is observable."""
    try:
        return items, len(items)
    except TypeError:
        items = list(items)
        return items, len(items)


def _encode_spans(span_dicts: list[dict]) -> bytes:
    """Encode a list of trace-span dicts with the typed serde encoder."""
    out = io.BytesIO()
    encode_value(span_dicts, out)
    return out.getvalue()


def _decode_spans(blob: bytes) -> list[dict]:
    """Decode a worker's trace-span payload (empty blob → no spans)."""
    if not blob:
        return []
    payload = decode_value(io.BytesIO(blob))
    if not isinstance(payload, list):
        raise TypeError("corrupt trace payload: expected a list of spans")
    return payload


def _build_shard(
    factory: Callable[[], Any],
    items,
    shard_id: int,
    backend: str,
    trace_parent: SpanContext | None = None,
):
    """The shard body of every backend: build one partial sketch plus its span.

    The build runs inside one ``shard_build`` :func:`~repro.obs.trace.op_span`
    parented explicitly under ``trace_parent`` (the build's root span
    context: pool threads and processes have empty span stacks, so
    implicit nesting would start fresh traces).  The ``process`` backend
    returns the partial on the serde wire format — what a remote
    aggregation worker would ship — encoded inside the span, so its
    ``to_bytes`` span is a child of ``shard_build``; the others return
    the sketch itself.
    """
    items, n_items = _materialize(items)
    serde_seconds = 0.0
    with op_span(
        "shard_build",
        trace_parent,
        shard_id=shard_id,
        items=n_items,
        backend=backend,
    ) as shard_span:
        sketch = factory()
        sketch.update_many(items)
        if backend == "process":
            start = time.perf_counter()
            sketch = sketch.to_bytes()
            serde_seconds = time.perf_counter() - start
    span = ShardSpan(
        shard_id=shard_id,
        n_items=n_items,
        worker_pid=os.getpid(),
        build_seconds=shard_span.duration - serde_seconds,
        serde_seconds=serde_seconds,
        n_bytes=len(sketch) if backend == "process" else 0,
        backend=backend,
        trace_id=shard_span.trace_id,
        span_id=shard_span.span_id,
        parent_span_id=shard_span.parent_id or "",
    )
    return sketch, span


def _build_shard_bytes(
    factory: Callable[[], Any], items, shard_id: int, trace_ctx: bytes | None = None
) -> tuple[bytes, bytes, bytes]:
    """Process-pool task: :func:`_build_shard`, everything on the wire format.

    Returns ``(sketch blob, shard-span blob, trace blob)``, all encoded
    with the typed serde encoder.  ``trace_ctx`` is a
    :meth:`~repro.obs.SpanContext.to_wire` payload: when present, the
    worker traces the build into a private tracer and ships its spans
    back for client-side re-parenting; the trace blob is empty
    otherwise.  Module-level so ``ProcessPoolExecutor`` can pickle the
    task.
    """
    if trace_ctx is None:
        blob, span = _build_shard(factory, items, shard_id, "process")
        return blob, span.to_wire(), b""
    tracer = Tracer()
    previous_tracer = set_tracer(tracer)
    try:
        with enable_tracing():
            blob, span = _build_shard(
                factory, items, shard_id, "process", SpanContext.from_wire(trace_ctx)
            )
    finally:
        if previous_tracer is not None:
            set_tracer(previous_tracer)
    return blob, span.to_wire(), _encode_spans(tracer.as_dicts())


def _is_picklable(factory: Callable[[], Any]) -> bool:
    try:
        pickle.dumps(factory)
        return True
    except Exception:
        return False


def _shard_size(shard) -> int:
    """Observable shard length; unsized iterables count as 0.

    ``parallel_build`` materializes every shard up front (see
    :func:`_materialize`), so by the time sizes matter each shard has a
    real ``len`` — the 0 fallback only shows up for
    ``ShardedBuilder.n_items`` peeking at a still-lazy shard, where
    consuming the iterator just to count it would be wrong.
    """
    try:
        return len(shard)
    except TypeError:
        return 0


def _resolve_backend(
    backend: str, workers: int, total_items: int, factory
) -> tuple[str, str | None]:
    """Resolve ``"auto"`` to a concrete backend, naming any downgrade.

    Returns ``(resolved backend, fallback reason or None)``.  A reason
    is set when ``auto`` aimed at the process pool but settled for
    threads: ``small_input`` or ``unpicklable_factory``.
    """
    if backend not in _BACKENDS:
        raise ValueError(f"backend must be one of {_BACKENDS}, got {backend!r}")
    if backend != "auto":
        return backend, None
    if workers <= 1:
        return "serial", None
    if total_items < SMALL_INPUT_THRESHOLD:
        return "thread", "small_input"
    if not _is_picklable(factory):
        return "thread", "unpicklable_factory"
    return "process", None


def _warn_fallback(reason: str | None, resolved: str) -> None:
    if reason is None or reason in _FALLBACK_WARNED:
        return
    _FALLBACK_WARNED.add(reason)
    warnings.warn(
        f"parallel_build: backend='auto' fell back to {resolved!r} "
        f"({reason}); pass an explicit backend= to silence, or a picklable "
        "factory (SketchSpec) / larger input to parallelize across processes",
        RuntimeWarning,
        stacklevel=3,
    )


def parallel_build(
    factory: Callable[[], Any],
    shards: Iterable,
    workers: int | None = None,
    backend: str = "auto",
    return_report: bool = False,
    registry: MetricsRegistry | None = None,
):
    """Build one merged sketch from per-shard item collections.

    Parameters
    ----------
    factory:
        Zero-argument callable producing a fresh, identically
        parameterized sketch (equal seeds — partials must be
        mergeable).  For the process backend it must pickle: use
        :class:`SketchSpec`, a module-level function, or
        ``functools.partial``.
    shards:
        Iterable of per-shard item collections; each goes through one
        worker's ``update_many``.  Use :func:`partition_items` to shard
        a flat stream.
    workers:
        Pool size; defaults to ``min(len(shards), cpu_count)``.
    backend:
        ``"process"``, ``"thread"``, ``"serial"``, or ``"auto"``:
        ``serial`` for one worker, ``thread`` below
        :data:`SMALL_INPUT_THRESHOLD` items or for an unpicklable
        factory, ``process`` otherwise.
    return_report:
        When true, return ``(sketch, BuildReport)`` — one
        :class:`~repro.obs.ShardSpan` per shard (worker pid, item
        count, build/serde durations, wire bytes) plus reduce timing
        and any auto-backend fallback reason.
    registry:
        Metrics sink when :mod:`repro.obs` is enabled; defaults to the
        process-global registry.

    Returns the k-way :meth:`merge_many` reduction of the partial
    sketches.  For register/linear families the result is bitwise
    identical to single-process ingestion of the concatenated shards.
    """
    t_start = time.perf_counter()
    shard_list = list(shards)
    if not shard_list:
        raise ValueError("parallel_build requires at least one shard")
    cpu = os.cpu_count() or 1
    if workers is None:
        workers = min(len(shard_list), cpu)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    # Materialize every shard exactly once, up front: one-shot iterables
    # get a real length (so backend resolution sees the true total
    # instead of guessing), and the sizes double as span bookkeeping.
    sized = [_materialize(s) for s in shard_list]
    shard_list = [s for s, _ in sized]
    total = sum(n for _, n in sized)
    resolved, fallback_reason = _resolve_backend(backend, workers, total, factory)
    _warn_fallback(fallback_reason, resolved)

    n = len(shard_list)
    with op_span(
        "parallel_build",
        backend=resolved,
        requested_backend=backend,
        workers=workers,
        shards=n,
    ) as root_span:
        trace_parent = root_span.context()
        if resolved != "process":
            columns = (
                [factory] * n, shard_list, range(n), [resolved] * n, [trace_parent] * n
            )
            if resolved == "serial":
                built = list(map(_build_shard, *columns))
            else:
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    built = list(pool.map(_build_shard, *columns))
            parts = [sketch for sketch, _ in built]
            spans = [span for _, span in built]
        else:
            ctx_blob = trace_parent.to_wire() if trace_parent is not None else None
            parts = [None] * n
            spans = [None] * n
            futures = _submit(
                workers,
                _build_shard_bytes,
                [(factory, shard_list[i], i, ctx_blob) for i in range(n)],
            )
            # Decode each blob as its worker finishes, overlapping
            # parent-side deserialization with still-running
            # builds; spans/parts land back in shard order.
            try:
                for future in as_completed(futures):
                    blob, span_blob, trace_blob = future.result()
                    start = time.perf_counter()
                    part = from_bytes_any(blob)
                    decode_seconds = time.perf_counter() - start
                    span = ShardSpan.from_wire(span_blob)
                    span.serde_seconds += decode_seconds
                    parts[span.shard_id] = part
                    spans[span.shard_id] = span
                    if trace_blob:
                        # Re-parent the worker's subtree into this
                        # trace; its shard_build root already names
                        # root_span as parent, so adoption just
                        # lands it in the buffer.
                        get_tracer().adopt(_decode_spans(trace_blob), parent=root_span)
            except BaseException:
                _settle(futures)
                raise

        t_merge = time.perf_counter()
        first = parts[0]
        if isinstance(first, MergeableSketch):
            merged = type(first).merge_many(parts)
        else:
            merged = first
            for other in parts[1:]:
                merged.merge(other)
        t_end = time.perf_counter()

    report = BuildReport(
        requested_backend=backend,
        backend=resolved,
        workers=workers,
        spans=spans,
        merge_seconds=t_end - t_merge,
        total_seconds=t_end - t_start,
        fallback_reason=fallback_reason,
        trace_id=root_span.trace_id,
        root_span_id=root_span.span_id,
    )
    if _OBS.enabled:
        (registry if registry is not None else get_registry()).observe_build(report)
    if return_report:
        return merged, report
    return merged


class ShardedBuilder:
    """Accumulate shards, then fan out and reduce in one call.

    >>> builder = ShardedBuilder(SketchSpec(HyperLogLog, p=12, seed=7))
    >>> builder.add_shard(monday).add_shard(tuesday)
    >>> builder.extend(weekend_stream, shards=4)
    >>> sketch = builder.build(workers=4)
    >>> builder.last_report.slowest_shard

    The builder is reusable: ``build`` leaves the queued shards in
    place; call :meth:`clear` to start over.  Each ``build`` records
    its :class:`~repro.obs.BuildReport` on :attr:`last_report`.
    """

    def __init__(
        self,
        factory: Callable[[], Any],
        workers: int | None = None,
        backend: str = "auto",
        registry: MetricsRegistry | None = None,
    ) -> None:
        if backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {_BACKENDS}, got {backend!r}")
        self.factory = factory
        self.workers = workers
        self.backend = backend
        self._obs_registry = registry
        #: the BuildReport of the most recent :meth:`build` (None before).
        self.last_report: BuildReport | None = None
        self._shards: list = []

    def add_shard(self, items) -> "ShardedBuilder":
        """Queue one shard (any ``update_many``-compatible collection)."""
        self._shards.append(items)
        return self

    def extend(self, items, shards: int | None = None) -> "ShardedBuilder":
        """Partition a flat stream into shards and queue them all.

        One-shot iterables are materialized exactly once by
        :func:`partition_items`, so feeding a generator here is safe.
        """
        n = shards if shards is not None else (self.workers or os.cpu_count() or 1)
        self._shards.extend(partition_items(items, max(1, n)))
        return self

    def clear(self) -> "ShardedBuilder":
        """Drop all queued shards."""
        self._shards = []
        return self

    def __len__(self) -> int:
        return len(self._shards)

    @property
    def n_items(self) -> int:
        """Total queued items across shards."""
        return sum(_shard_size(s) for s in self._shards)

    def build(
        self,
        workers: int | None = None,
        backend: str | None = None,
        return_report: bool = False,
    ):
        """Fan the queued shards out and return the merged sketch.

        With ``return_report=True`` returns ``(sketch, BuildReport)``;
        either way the report lands on :attr:`last_report`.
        """
        merged, report = parallel_build(
            self.factory,
            self._shards,
            workers=workers if workers is not None else self.workers,
            backend=backend if backend is not None else self.backend,
            return_report=True,
            registry=self._obs_registry,
        )
        self.last_report = report
        if return_report:
            return merged, report
        return merged
