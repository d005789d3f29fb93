"""Build telemetry: per-shard spans and the aggregate build report.

A :class:`ShardSpan` is the unit of shard telemetry — who built the
shard (worker pid), how big it was, and where the time went (ingest vs
serde).  Process workers ship their span back over the **same typed
serde wire format the sketches use** (:func:`ShardSpan.to_wire` /
:func:`ShardSpan.from_wire`), exactly what a multi-node aggregation
tier would put on the network next to the partial sketch.

:func:`repro.parallel.parallel_build` collects the spans plus the
reduce timing into a :class:`BuildReport`, returned alongside the
merged sketch (``return_report=True``) and always kept on
``ShardedBuilder.last_report``.
"""

from __future__ import annotations

import io
from dataclasses import asdict, dataclass, field

from ..core.serde import decode_value, encode_value

__all__ = ["BuildReport", "ShardSpan"]


@dataclass
class ShardSpan:
    """Telemetry for one shard's build: sizes, owner, and timings.

    ``n_items`` is ``-1`` when the shard was an unsized iterable whose
    length the worker could not observe.  ``serde_seconds`` covers both
    the worker-side ``to_bytes`` and the parent-side ``from_bytes`` for
    the process backend, and is 0 for in-process backends (no wire
    crossing).

    When :mod:`repro.obs.trace` is enabled during the build, the span
    id fields tie this shard to its ``shard_build`` span in the trace
    tree: ``trace_id``/``span_id`` identify the span, and
    ``parent_span_id`` is the client-side ``parallel_build`` root the
    worker's subtree was parented under.  Empty strings when tracing
    was off.
    """

    shard_id: int
    n_items: int
    worker_pid: int
    build_seconds: float
    serde_seconds: float = 0.0
    n_bytes: int = 0
    backend: str = "serial"
    trace_id: str = ""
    span_id: str = ""
    parent_span_id: str = ""

    def to_wire(self) -> bytes:
        """Encode with the typed serde encoder (the sketch wire format)."""
        out = io.BytesIO()
        encode_value(asdict(self), out)
        return out.getvalue()

    @classmethod
    def from_wire(cls, blob: bytes) -> "ShardSpan":
        """Decode a span shipped back from a worker."""
        state = decode_value(io.BytesIO(blob))
        if not isinstance(state, dict):
            raise TypeError("corrupt shard span: payload is not a dict")
        return cls(**state)

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class BuildReport:
    """The aggregate telemetry of one fan-out/reduce build."""

    requested_backend: str
    backend: str
    workers: int
    spans: list[ShardSpan] = field(default_factory=list)
    merge_seconds: float = 0.0
    total_seconds: float = 0.0
    fallback_reason: str | None = None
    #: trace ids of the build's ``parallel_build`` root span (empty
    #: strings when :mod:`repro.obs.trace` was disabled at build time).
    trace_id: str = ""
    root_span_id: str = ""

    @property
    def n_shards(self) -> int:
        return len(self.spans)

    @property
    def total_items(self) -> int:
        """Items across shards (unknown-length shards excluded)."""
        return sum(span.n_items for span in self.spans if span.n_items > 0)

    @property
    def total_bytes(self) -> int:
        """Wire bytes shipped from workers (0 for in-process backends)."""
        return sum(span.n_bytes for span in self.spans)

    @property
    def build_seconds(self) -> float:
        """Summed per-shard build time (CPU-ish; > wall when parallel)."""
        return sum(span.build_seconds for span in self.spans)

    @property
    def slowest_shard(self) -> ShardSpan | None:
        """The shard whose build+serde took longest (the straggler)."""
        if not self.spans:
            return None
        return max(self.spans, key=lambda s: s.build_seconds + s.serde_seconds)

    @property
    def worker_pids(self) -> set[int]:
        return {span.worker_pid for span in self.spans}

    def as_dict(self) -> dict:
        return {
            "requested_backend": self.requested_backend,
            "backend": self.backend,
            "workers": self.workers,
            "merge_seconds": self.merge_seconds,
            "total_seconds": self.total_seconds,
            "fallback_reason": self.fallback_reason,
            "trace_id": self.trace_id,
            "root_span_id": self.root_span_id,
            "spans": [span.as_dict() for span in self.spans],
        }

    def summary(self) -> str:
        """A human-readable multi-line digest (one line per shard)."""
        lines = [
            f"BuildReport: backend={self.backend}"
            + (f" (requested {self.requested_backend})" if self.requested_backend != self.backend else "")
            + f" workers={self.workers} shards={self.n_shards}"
            + f" items={self.total_items:,}"
            + f" merge={self.merge_seconds * 1e3:.2f}ms"
            + f" total={self.total_seconds * 1e3:.2f}ms"
        ]
        if self.fallback_reason:
            lines.append(f"  fallback: {self.fallback_reason}")
        for span in self.spans:
            items = span.n_items if span.n_items >= 0 else "?"
            line = (
                f"  shard {span.shard_id}: pid={span.worker_pid} items={items} "
                f"build={span.build_seconds * 1e3:.2f}ms"
            )
            if span.n_bytes:
                line += f" serde={span.serde_seconds * 1e3:.2f}ms wire={span.n_bytes}B"
            lines.append(line)
        return "\n".join(lines)
