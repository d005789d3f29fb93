"""Distributed tracing: nestable spans, wire propagation, Chrome export.

The operability gap named by "Sketchy With a Chance of Adoption": a
sketch library inside a telemetry pipeline must show *where time goes*
— per batch, per shard, per serde crossing — not just aggregate
counters.  This module is the request-scoped half of :mod:`repro.obs`:

- :class:`Tracer` hands out nestable ``span()`` context managers.
  Spans carry monotonic-clock durations, epoch start times anchored
  to the monotonic clock (one wall-clock offset per tracer, so an NTP
  step cannot reorder spans),
  status, free-form attributes, and the owning pid/tid; finished spans
  land in a bounded ring buffer (oldest dropped first, drop count
  kept).
- :class:`SpanContext` is the propagation token.  It crosses process
  boundaries over the **same typed serde wire format the sketches
  use** (:meth:`SpanContext.to_wire`), which is how
  :func:`repro.parallel.parallel_build` process workers attach their
  ``shard_build`` spans to the client's trace: the worker traces into
  a private tracer, ships its spans back next to the partial sketch,
  and the client re-parents them into one trace tree
  (:meth:`Tracer.adopt`).
- Exports: plain JSON span lists (:meth:`Tracer.to_json`) and the
  Chrome trace-event format (:meth:`Tracer.to_chrome_json`, loadable
  in ``chrome://tracing`` / Perfetto);
  ``scripts/trace_report.py`` pretty-prints either as a tree.

Like the metrics half, tracing is **off by default** and guarded by a
single attribute load on the hot path (the shared
:data:`repro.obs.registry.HOT` flag).  Switch it on with
``REPRO_TRACE=1`` or::

    with repro.obs.enable_tracing():
        sketch.update_many(stream)
    print(repro.obs.get_tracer().to_json(indent=2))

Every instrumented operation in the library is timed and traced the
same way, through :func:`op_span`: with tracing on it opens a span on
the current tracer, otherwise it only times the block, and either way
the object it yields has ``.duration`` and ``.attributes``.  No other
module opens a span or reads the tracing switch (a tier-1 test holds
the package to that).  When enabled, the core hooks emit one span per
batch-level operation (``update_many`` / ``merge`` / ``merge_many`` /
``update_grouped`` / ``to_bytes`` / ``from_bytes``; per-item
``update`` is never traced), ``StreamPipeline.feed`` emits one span
per batch window, ``ConcurrentSketch`` traces propagate/drain/compact,
``AccuracyAuditor.check`` one span per check, and ``parallel_build``
one tree per build.
"""

from __future__ import annotations

import io
import json
import os
import threading
import time
from collections import deque
from typing import Any

from ..core.serde import decode_value, encode_value
from .registry import _env_enabled, _ObsState, refresh_hot, register_hot_source

__all__ = [
    "Span",
    "SpanContext",
    "TRACE",
    "Tracer",
    "disable_tracing",
    "enable_tracing",
    "get_tracer",
    "op_span",
    "set_tracer",
    "tracing_enabled",
]

TRACE = _ObsState(_env_enabled("REPRO_TRACE"))
register_hot_source(TRACE)

#: wall-clock ↔ perf_counter anchor for spans created outside a tracer
#: (each Tracer captures its own at construction).  Captured once so a
#: wall-clock step after import cannot reorder span start times.
_EPOCH_OFFSET = time.time() - time.perf_counter()


def tracing_enabled() -> bool:
    """Whether span collection is currently on."""
    return TRACE.enabled


class _TracingScope:
    """Toggle returned by :func:`enable_tracing`/:func:`disable_tracing`.

    Usable bare (flips the switch permanently) or as a context manager
    that restores the previous state on exit.
    """

    def __init__(self, value: bool) -> None:
        self._previous = TRACE.enabled
        TRACE.enabled = value
        refresh_hot()

    def __enter__(self) -> "_TracingScope":
        return self

    def __exit__(self, *exc: object) -> None:
        TRACE.enabled = self._previous
        refresh_hot()

    def restore(self) -> None:
        """Undo the toggle without using the context-manager form."""
        TRACE.enabled = self._previous
        refresh_hot()


def enable_tracing() -> _TracingScope:
    """Turn tracing on (``with repro.obs.enable_tracing(): ...`` to scope it)."""
    return _TracingScope(True)


def disable_tracing() -> _TracingScope:
    """Turn tracing off (context manager restores on exit)."""
    return _TracingScope(False)


def _new_id(nbytes: int = 8) -> str:
    """A random lowercase-hex id, collision-safe across processes."""
    return os.urandom(nbytes).hex()


class SpanContext:
    """The propagation token: which trace, and which span to parent under.

    Cheap and immutable; this is what crosses a process (or, in a
    multi-node tier, a network) boundary.  :meth:`to_wire` encodes it
    with the library's typed serde encoder — the same format the
    partial sketches travel in.
    """

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: str) -> None:
        self.trace_id = trace_id
        self.span_id = span_id

    def to_wire(self) -> bytes:
        """Encode with the typed serde encoder (the sketch wire format)."""
        out = io.BytesIO()
        encode_value({"trace_id": self.trace_id, "span_id": self.span_id}, out)
        return out.getvalue()

    @classmethod
    def from_wire(cls, blob: bytes) -> "SpanContext":
        """Decode a context shipped to a worker."""
        state = decode_value(io.BytesIO(blob))
        if not isinstance(state, dict):
            raise TypeError("corrupt span context: payload is not a dict")
        return cls(trace_id=state["trace_id"], span_id=state["span_id"])

    def __repr__(self) -> str:
        return f"SpanContext(trace_id={self.trace_id!r}, span_id={self.span_id!r})"


class Span:
    """One timed operation in a trace tree.

    ``start_time`` is epoch seconds, but *derived from the monotonic
    clock*: each tracer captures one wall-clock↔perf_counter offset at
    construction and stamps every span as ``offset + perf_counter()``.
    Reading ``time.time()`` per span would let an NTP step between two
    spans produce out-of-order or negative gaps in ``/trace`` and the
    Chrome export; with a single anchored offset, start times share the
    monotonicity of ``perf_counter`` while staying comparable across
    processes on one host (up to clock-step skew of the anchors).
    ``duration`` likewise comes from the monotonic clock.  ``status``
    is ``"ok"`` or ``"error"`` (set automatically when the spanned
    block raises).
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start_time",
        "duration",
        "status",
        "attributes",
        "pid",
        "tid",
        "_t0",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: str | None = None,
        start_time: float | None = None,
        duration: float = 0.0,
        status: str = "ok",
        attributes: dict[str, Any] | None = None,
        pid: int | None = None,
        tid: int | None = None,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        if start_time is None:
            start_time = _EPOCH_OFFSET + time.perf_counter()
        self.start_time = start_time
        self.duration = duration
        self.status = status
        self.attributes = dict(attributes or {})
        self.pid = os.getpid() if pid is None else pid
        self.tid = threading.get_ident() if tid is None else tid
        self._t0 = 0.0

    def context(self) -> SpanContext:
        """This span's propagation token (for parenting remote children)."""
        return SpanContext(self.trace_id, self.span_id)

    def as_dict(self) -> dict[str, Any]:
        """Plain-data form (the JSON export and the worker wire payload)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_time": self.start_time,
            "duration": self.duration,
            "status": self.status,
            "attributes": dict(self.attributes),
            "pid": self.pid,
            "tid": self.tid,
        }

    @classmethod
    def from_dict(cls, state: dict) -> "Span":
        """Rebuild a span from :meth:`as_dict` output (worker adoption)."""
        return cls(
            name=state["name"],
            trace_id=state["trace_id"],
            span_id=state["span_id"],
            parent_id=state.get("parent_id"),
            start_time=state.get("start_time", 0.0),
            duration=state.get("duration", 0.0),
            status=state.get("status", "ok"),
            attributes=state.get("attributes") or {},
            pid=state.get("pid", 0),
            tid=state.get("tid", 0),
        )

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, {self.duration * 1e3:.3f}ms, "
            f"trace={self.trace_id[:8]}, span={self.span_id[:8]}, "
            f"parent={(self.parent_id or 'root')[:8]}, status={self.status})"
        )


class _SpanScope:
    """Context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.span.status = "error"
            self.span.attributes.setdefault("exception", exc_type.__name__)
        self._tracer._finish(self.span)
        return False


class Tracer:
    """Span factory plus a bounded ring buffer of finished spans.

    Nesting is tracked per thread: a span opened while another is
    active on the same thread becomes its child automatically; pass
    ``parent=`` (a :class:`Span` or :class:`SpanContext`) to parent
    across threads or processes.  The ring buffer keeps the most
    recent ``max_spans`` finished spans (:attr:`dropped` counts
    evictions), so a long-running process can leave tracing on and
    scrape ``/trace`` without unbounded growth.
    """

    def __init__(self, max_spans: int = 4096, registry=None) -> None:
        if max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans}")
        self.max_spans = max_spans
        self._finished: deque[Span] = deque(maxlen=max_spans)
        self._lock = threading.Lock()
        # Per-thread open-span stacks, keyed by thread ident.  A dict
        # (not threading.local) so the sampling profiler can read other
        # threads' current spans; each thread only mutates its own
        # entry, and empty entries are removed on span exit.
        self._stacks: dict[int, list[Span]] = {}
        #: registry for the dropped-span counter; None resolves the
        #: process-global one at eviction time.
        self._registry = registry
        #: finished spans evicted from the ring buffer so far.
        self.dropped = 0
        #: wall-clock ↔ perf_counter anchor: every span this tracer
        #: opens gets ``start_time = _epoch_offset + perf_counter()``,
        #: so start times are monotonic even across NTP steps.
        self._epoch_offset = time.time() - time.perf_counter()

    # -- span lifecycle --------------------------------------------------------

    def _stack(self) -> list[Span]:
        tid = threading.get_ident()
        stack = self._stacks.get(tid)
        if stack is None:
            stack = self._stacks[tid] = []
        return stack

    def current_span(self) -> Span | None:
        """The innermost open span on this thread (None outside any span)."""
        stack = self._stacks.get(threading.get_ident())
        return stack[-1] if stack else None

    def current_span_for_thread(self, tid: int) -> Span | None:
        """The innermost open span on thread ``tid`` (None when outside any).

        Cross-thread read for the sampling profiler
        (:mod:`repro.obs.profile`): racy by design — the owning thread
        may exit the span concurrently — but never throws and never
        returns a torn value (list append/pop are atomic under the GIL).
        """
        stack = self._stacks.get(tid)
        if not stack:
            return None
        try:
            return stack[-1]
        except IndexError:  # emptied between the check and the read
            return None

    def context(self) -> SpanContext | None:
        """Propagation token of the current span (None outside any span)."""
        span = self.current_span()
        return span.context() if span is not None else None

    def span(
        self,
        name: str,
        parent: "Span | SpanContext | None" = None,
        **attributes: Any,
    ) -> _SpanScope:
        """Open a span; use as ``with tracer.span("work", key=value) as s:``.

        Without ``parent`` the span nests under the thread's current
        span, or starts a fresh trace at top level.  The block's wall
        time becomes ``span.duration``; an exception marks the span
        ``status="error"`` (and propagates).
        """
        if parent is None:
            parent = self.current_span()
        if parent is not None:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        else:
            trace_id = _new_id(16)
            parent_id = None
        t0 = time.perf_counter()
        span = Span(
            name=name,
            trace_id=trace_id,
            span_id=_new_id(8),
            parent_id=parent_id,
            start_time=self._epoch_offset + t0,
            attributes=attributes,
        )
        span._t0 = t0
        self._stack().append(span)
        return _SpanScope(self, span)

    def _finish(self, span: Span) -> None:
        span.duration = time.perf_counter() - span._t0
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # defensive: out-of-order exit
            stack.remove(span)
        if not stack:
            self._stacks.pop(threading.get_ident(), None)
        self.record(span)

    def record(self, span: Span) -> None:
        """Append a finished span to the ring buffer."""
        with self._lock:
            evicted = len(self._finished) == self._finished.maxlen
            if evicted:
                self.dropped += 1
            self._finished.append(span)
        if evicted:
            self._count_drop()

    def _count_drop(self) -> None:
        """Surface one ring-buffer eviction as a registry counter.

        ``repro_trace_spans_dropped_total`` makes span loss visible on
        every ``/metrics`` scrape — the signal that ``max_spans`` is
        undersized for the span rate.  Unlike :attr:`dropped` (reset by
        :meth:`clear`), the counter is a cumulative ``_total``.
        """
        from .registry import get_registry

        registry = self._registry if self._registry is not None else get_registry()
        registry.counter(
            "repro_trace_spans_dropped_total",
            "Finished spans evicted from the tracer ring buffer "
            "(undersized max_spans).",
        ).inc()

    def adopt(self, span_dicts, parent: "Span | SpanContext | None" = None) -> list[Span]:
        """Ingest spans shipped from a worker (re-parenting the roots).

        ``span_dicts`` is a list of :meth:`Span.as_dict` payloads.  Any
        span whose parent is not in the shipped set is a worker-side
        root: with ``parent`` given, it is re-parented under it (and the
        whole batch moved onto that trace id), which is how process
        workers' ``shard_build`` subtrees attach to the client's
        ``parallel_build`` span.  Returns the adopted spans.
        """
        spans = [Span.from_dict(d) for d in span_dicts]
        if parent is not None:
            shipped_ids = {span.span_id for span in spans}
            for span in spans:
                span.trace_id = parent.trace_id
                if span.parent_id is None or span.parent_id not in shipped_ids:
                    span.parent_id = parent.span_id
        for span in spans:
            self.record(span)
        return spans

    # -- introspection ---------------------------------------------------------

    def spans(self, trace_id: str | None = None) -> list[Span]:
        """Finished spans, oldest first (optionally one trace only)."""
        with self._lock:
            spans = list(self._finished)
        if trace_id is not None:
            spans = [span for span in spans if span.trace_id == trace_id]
        return spans

    def trace_ids(self) -> list[str]:
        """Distinct trace ids present in the buffer, oldest first."""
        seen: dict[str, None] = {}
        for span in self.spans():
            seen.setdefault(span.trace_id, None)
        return list(seen)

    def clear(self) -> None:
        """Drop every finished span (open spans are unaffected)."""
        with self._lock:
            self._finished.clear()
            self.dropped = 0

    def __len__(self) -> int:
        return len(self._finished)

    # -- exporters -------------------------------------------------------------

    def as_dicts(self, trace_id: str | None = None) -> list[dict]:
        """Finished spans as plain dicts (the JSON export form)."""
        return [span.as_dict() for span in self.spans(trace_id)]

    def to_json(self, trace_id: str | None = None, indent: int | None = None) -> str:
        """JSON array of finished spans."""
        return json.dumps(self.as_dicts(trace_id), indent=indent)

    def to_chrome_trace(self, trace_id: str | None = None) -> dict:
        """Chrome trace-event form: ``{"traceEvents": [...], ...}``.

        Complete ``"X"`` (duration) events with microsecond timestamps;
        load the JSON in ``chrome://tracing`` or Perfetto to see the
        flamegraph, with one row per (pid, tid) — i.e. per worker.
        """
        events = []
        for span in self.spans(trace_id):
            events.append(
                {
                    "name": span.name,
                    "cat": "repro",
                    "ph": "X",
                    "ts": span.start_time * 1e6,
                    "dur": span.duration * 1e6,
                    "pid": span.pid,
                    "tid": span.tid,
                    "args": {
                        "trace_id": span.trace_id,
                        "span_id": span.span_id,
                        "parent_id": span.parent_id,
                        "status": span.status,
                        **span.attributes,
                    },
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def to_chrome_json(
        self, trace_id: str | None = None, indent: int | None = None
    ) -> str:
        """JSON string form of :meth:`to_chrome_trace`."""
        return json.dumps(self.to_chrome_trace(trace_id), indent=indent)

    def __repr__(self) -> str:
        return f"Tracer(spans={len(self._finished)}, dropped={self.dropped})"


_DEFAULT_TRACER: Tracer | None = None
_DEFAULT_LOCK = threading.Lock()


def get_tracer() -> Tracer:
    """The process-global default tracer (created on first use)."""
    global _DEFAULT_TRACER
    if _DEFAULT_TRACER is None:
        with _DEFAULT_LOCK:
            if _DEFAULT_TRACER is None:
                _DEFAULT_TRACER = Tracer()
    return _DEFAULT_TRACER


def set_tracer(tracer: Tracer) -> Tracer | None:
    """Swap the process-global tracer; returns the previous one (or None)."""
    global _DEFAULT_TRACER
    with _DEFAULT_LOCK:
        previous = _DEFAULT_TRACER
        _DEFAULT_TRACER = tracer
    return previous


class _Timing:
    """What :func:`op_span` yields with tracing off: a span that only times.

    It has a span's ``duration`` and ``attributes``, empty ids and no
    propagation context, and records nothing.
    """

    __slots__ = ("attributes", "duration", "_t0")

    trace_id = span_id = ""
    parent_id = None

    def __init__(self, attributes: dict[str, Any]) -> None:
        self.attributes = attributes
        self.duration = 0.0

    def context(self) -> None:
        return None

    def __enter__(self) -> "_Timing":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration = time.perf_counter() - self._t0


def op_span(
    name: str, parent: "Span | SpanContext | None" = None, **attributes: Any
) -> "_SpanScope | _Timing":
    """Time one operation, and trace it when tracing is on.

    ``with op_span("work", items=n) as span: ...`` opens ``name`` on
    the current tracer (see :meth:`Tracer.span` for ``parent`` and
    nesting) when tracing is enabled, and otherwise only times the
    block.  Either way ``span.duration`` is the block's wall time once
    it exits, ``span.attributes`` takes extra attributes, ``span.context()``
    is the token to parent remote children under (None when untraced),
    and ``span.trace_id``/``span.span_id`` are empty when untraced.
    """
    if TRACE.enabled:
        return get_tracer().span(name, parent, **attributes)
    return _Timing(attributes)
