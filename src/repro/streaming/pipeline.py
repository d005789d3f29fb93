"""Stream pipelines: map/filter chains over record iterators.

The front half of the mini data-stream management system (the paper's
§3 Gigascope/CMON/STREAM setting).  A :class:`StreamPipeline` wraps an
iterable of records with lazily-applied transformations and feeds any
number of sketch-backed operators (see :mod:`repro.streaming.groupby`
and :mod:`repro.streaming.windows`).
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable, Iterator
from itertools import islice
from typing import Any

from ..obs.registry import STATE as _OBS
from ..obs.registry import MetricsRegistry, get_registry
from ..obs.trace import op_span

__all__ = ["StreamPipeline"]


class StreamPipeline:
    """A lazy record-transformation chain.

    >>> StreamPipeline(records).filter(lambda r: r.ok).map(lambda r: r.key)

    When :mod:`repro.obs` is enabled, :meth:`feed` records delivered
    record counts, dispatched batch counts, and wall time into
    ``registry`` (default: the process-global metrics registry).
    """

    def __init__(
        self, source: Iterable[Any], registry: MetricsRegistry | None = None
    ) -> None:
        self._source = source
        self._stages: list[tuple[str, Callable]] = []
        self._obs_registry = registry

    def map(self, fn: Callable[[Any], Any]) -> "StreamPipeline":
        """Transform each record."""
        self._stages.append(("map", fn))
        return self

    def filter(self, predicate: Callable[[Any], bool]) -> "StreamPipeline":
        """Keep records where ``predicate`` is truthy."""
        self._stages.append(("filter", predicate))
        return self

    def flat_map(self, fn: Callable[[Any], Iterable[Any]]) -> "StreamPipeline":
        """Expand each record into zero or more records."""
        self._stages.append(("flat_map", fn))
        return self

    def __iter__(self) -> Iterator[Any]:
        if not self._stages:
            return iter(self._source)

        def generate() -> Iterator[Any]:
            for record in self._source:
                items = [record]
                for kind, fn in self._stages:
                    if kind == "map":
                        items = [fn(item) for item in items]
                    elif kind == "filter":
                        items = [item for item in items if fn(item)]
                    else:  # flat_map
                        items = [out for item in items for out in fn(item)]
                    if not items:
                        break
                yield from items

        return generate()

    def feed(self, *operators, batch_size: int = 512) -> int:
        """Drive every record into the given operators.

        Records are dispatched in batches of up to ``batch_size``, cut
        from the stream with ``islice`` (straight from the source when
        there are no stages): operators exposing ``process_many(records)``
        receive the whole batch (e.g. one grouped update per batch in
        :class:`~repro.streaming.GroupBySketcher`), while plain operators
        get per-record ``process`` calls.  Each operator still sees every
        record in stream order; returns the number of records delivered.

        With :mod:`repro.obs.trace` enabled, the call emits a
        ``pipeline.feed`` root span plus one ``pipeline.feed_batch``
        child per batch window; operator sketch-op spans nest inside
        their batch.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        batched = [getattr(op, "process_many", None) for op in operators]
        count = 0
        batches = 0
        with op_span(
            "pipeline.feed", batch_size=batch_size, operators=len(operators)
        ) as root:
            if not any(batched):
                for record in self:
                    for op in operators:
                        op.process(record)
                    count += 1
            else:
                records = iter(self)
                while buffer := list(islice(records, batch_size)):
                    with op_span(
                        "pipeline.feed_batch", batch=batches, records=len(buffer)
                    ):
                        for op, process_many in zip(operators, batched):
                            if process_many is not None:
                                process_many(buffer)
                            else:
                                for record in buffer:
                                    op.process(record)
                    count += len(buffer)
                    batches += 1
            root.attributes["records"] = count
            root.attributes["batches"] = batches
        if _OBS.enabled:
            registry = self._obs_registry
            if registry is None:
                registry = get_registry()
            registry.observe_pipeline_feed(count, batches, root.duration)
        return count

    def feed_parallel(
        self,
        factory: Callable[[], Any],
        workers: int | None = None,
        shards: int | None = None,
        backend: str = "auto",
        return_report: bool = False,
    ) -> Any:
        """Materialize the transformed stream and sketch it across shards.

        The counterpart of :meth:`feed` for the fan-out/reduce
        architecture: records are partitioned round-robin into
        ``shards`` parts (default: one per worker), each shard is
        ingested into a fresh sketch from ``factory`` on its own worker
        via ``update_many``, and the partial sketches collapse with one
        k-way ``merge_many`` reduction.  Returns the merged sketch —
        or ``(sketch, BuildReport)`` with ``return_report=True``, the
        per-shard telemetry described in :mod:`repro.obs`.

        For the process backend the factory must pickle — pass a
        :class:`~repro.parallel.SketchSpec` or a module-level function.
        Register/linear sketch families yield results bitwise identical
        to a sequential :meth:`feed` into one sketch.
        """
        from ..obs.report import BuildReport
        from ..parallel import parallel_build, partition_items

        records = self.collect()
        if not records:
            if return_report:
                empty = BuildReport(
                    requested_backend=backend, backend="serial", workers=0
                )
                return factory(), empty
            return factory()
        n_shards = shards if shards is not None else (workers or os.cpu_count() or 1)
        return parallel_build(
            factory,
            partition_items(records, max(1, n_shards)),
            workers=workers,
            backend=backend,
            return_report=return_report,
            registry=self._obs_registry,
        )

    def collect(self) -> list[Any]:
        """Materialize the transformed stream."""
        return list(self)
