"""Timing probes around the program's public entry points.

:class:`Probes` replaces each entry point named in :data:`SPANS` with a
wrapper that records a span in a :class:`~perfbench.spans.SpanRecorder`,
and a few read-side helpers with wrappers that only count.  Nothing in
``src/`` changes: the wrappers live here, are installed for the traced
phase only and :meth:`Probes.uninstall` puts every original back.

An entry point that a later version of the program no longer has is
skipped (its metrics then read 0) rather than failing the run.
"""

from __future__ import annotations

import functools
import os
from collections import defaultdict

from .spans import LAYERS, fold, layer_totals, split_under

_MISSING = object()

#: span name -> (module path, owner attribute path, attribute name).
SPANS = {
    "registry.observe": ("repro.obs.registry", "SketchHistogram", "observe"),
    "registry.inc": ("repro.obs.registry", "Counter", "inc"),
    "timeline.tick": ("repro.obs.timeline", "TimelineRecorder", "tick"),
    "timeline.query": ("repro.obs.timeline", "TimelineRecorder", "query"),
    "timeline.windows": ("repro.obs.timeline", "TimelineRecorder", "windows"),
    "store.append": ("repro.store.store", "SketchStore", "append"),
    "store.flush": ("repro.store.store", "SketchStore", "flush"),
    "store.query": ("repro.store.store", "SketchStore", "query"),
    "store.iter_windows": ("repro.store.store", "SketchStore", "iter_windows"),
    "store.segment_load": ("repro.store.segment", "SegmentReader", "load"),
    "store.compact": ("repro.store.compact", "Compactor", "run_once"),
    "serde.encode": ("repro.store.store", None, "encode_partial"),
    "serde.decode": ("repro.store.store", None, "decode_partial"),
    "kll.merge_many": ("repro.quantiles.kll", "KLLSketch", "_merge_many_impl"),
    "kll.quantile": ("repro.quantiles.kll", "KLLSketch", "quantile"),
    "kll.cdf": ("repro.quantiles.kll", "KLLSketch", "cdf"),
    "alerts.evaluate": ("repro.obs.alerts", "AlertEngine", "evaluate"),
    "alerts.rule.threshold": ("repro.obs.alerts", "ThresholdRule", "evaluate"),
    "alerts.rule.quantile": ("repro.obs.alerts", "QuantileRule", "evaluate"),
    "alerts.rule.drift": ("repro.obs.alerts", "DriftRule", "evaluate"),
    "alerts.rule.changepoint": ("repro.obs.alerts", "ChangePointRule", "evaluate"),
    "streaming.feed": ("repro.streaming.pipeline", "StreamPipeline", "feed"),
    "streaming.process_many": ("repro.streaming.groupby", "GroupBySketcher", "process_many"),
    "streaming.flush_to_store": ("repro.streaming.groupby", "GroupBySketcher", "flush_to_store"),
    "parallel.build": ("repro.parallel", None, "parallel_build"),
    "hll.update_many": ("repro.cardinality.hyperloglog", "HyperLogLog", "update_many"),
}

#: counting-only wrappers: key -> (module path, owner, attribute).
COUNTERS = {
    "read_at": ("repro.store.segment", "SegmentReader", "read_at"),
    "rows": ("repro.store.store", "SketchStore", "_matching_rows"),
    "revived": ("repro.obs.timeline", "TimelineRecorder", "_window_from_record"),
    "rewritten": ("repro.store.store", "SketchStore", "write_sealed_segment"),
}

#: headline operation of each workload: the span the op split divides.
OP_SPAN = {
    "ingest": "timeline.tick",
    "history": "http.request",
    "live": "alerts.evaluate",
    "flows": "op.window",
}

_LAYER_KEYS = [key for key in LAYERS if key != "bench"]

#: every per-layer metric: (name, unit).  BENCHMARK.json lists the same.
PER_LAYER = [
    ("registry.observe.calls", "count"),
    ("registry.observe.ns_per_obs", "ns"),
    ("registry.inc.ns_per_call", "ns"),
    ("kll.merge_many.calls", "count"),
    ("kll.merge_many.parts", "count"),
    ("kll.merge_many.ns_per_part", "ns"),
    ("kll.quantile.calls", "count"),
    ("kll.quantile.ns_per_call", "ns"),
    ("serde.encode.calls", "count"),
    ("serde.encode.ns_per_partial", "ns"),
    ("serde.encode.bytes_per_partial", "B"),
    ("serde.decode.calls", "count"),
    ("serde.decode.ns_per_partial", "ns"),
    ("timeline.tick.self_ms", "ms"),
    ("timeline.query.calls", "count"),
    ("timeline.query.self_ms", "ms"),
    ("timeline.store_windows_revived", "count"),
    ("store.append.self_ms", "ms"),
    ("store.flush.ms", "ms"),
    ("store.query.self_ms", "ms"),
    ("store.segment_loads", "count"),
    ("store.windows_decoded_per_query", "ratio"),
    ("store.series_decoded_per_series_returned", "ratio"),
    ("store.compact.ms", "ms"),
    ("store.compact.bytes_rewritten", "B"),
    ("alerts.evaluate.self_ms", "ms"),
    ("alerts.rule.threshold.ms", "ms"),
    ("alerts.rule.quantile.ms", "ms"),
    ("alerts.rule.drift.ms", "ms"),
    ("alerts.rule.changepoint.ms", "ms"),
    ("http.request.self_ms", "ms"),
    ("http.response_bytes", "B"),
    ("streaming.process_many.ns_per_record", "ns"),
    ("streaming.flush_to_store.ms", "ms"),
    ("parallel.build.ms", "ms"),
    ("parallel.fallbacks", "count"),
    ("parallel.backend.shm", "count"),
    ("parallel.backend.process", "count"),
    ("parallel.backend.thread", "count"),
    ("parallel.backend.serial", "count"),
    ("hll.update_many.ns_per_item", "ns"),
    ("hll.update_many.items_per_call", "count"),
    *[(f"layer.{key}.self_ms", "ms") for key in _LAYER_KEYS],
    ("layer.bench.self_ms", "ms"),
    ("op.calls", "count"),
    *[(f"op.{key}.ms", "ms") for key in _LAYER_KEYS],
    ("trace.spans", "count"),
    ("trace.wall_ms", "ms"),
    ("trace.untraced_wall_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.layer_share", "ratio"),
    ("trace.bench_share", "ratio"),
]


def _resolve(module: str, owner: str | None):
    import importlib

    mod = importlib.import_module(module)
    return mod if owner is None else getattr(mod, owner, None)


class Probes:
    """Install/uninstall the span and counting wrappers."""

    def __init__(self, recorder) -> None:
        self.recorder = recorder
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------------

    def _patch(self, target, attr: str, make) -> bool:
        if target is None:
            return False
        raw = target.__dict__.get(attr, _MISSING) if isinstance(target, type) else _MISSING
        current = getattr(target, attr, _MISSING)
        if current is _MISSING:
            return False
        if isinstance(raw, classmethod):
            wrapped = classmethod(make(raw.__func__))
        else:
            wrapped = make(current)
        original = raw if isinstance(target, type) else current
        self._undo.append((target, attr, original))
        setattr(target, attr, wrapped)
        return True

    def install(self) -> "Probes":
        for name, (module, owner, attr) in SPANS.items():
            make = getattr(self, "_make_" + name.replace(".", "_"), None)
            factory = make if make is not None else self._span_factory(name)
            if not self._patch(_resolve(module, owner), attr, factory):
                self.missing.append(name)
        for key, (module, owner, attr) in COUNTERS.items():
            if not self._patch(_resolve(module, owner), attr, getattr(self, "_count_" + key)):
                self.missing.append(key)
        return self

    def uninstall(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            if original is _MISSING:
                delattr(target, attr)
            else:
                setattr(target, attr, original)

    def __enter__(self) -> "Probes":
        return self.install()

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    # -- wrapper factories -----------------------------------------------------

    def _span_factory(self, name: str, after=None):
        rec = self.recorder

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                sid = rec.begin(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec.finish(sid)
                if after is not None:
                    after(args, result)
                return result

            return wrapper

        return make

    def _add(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] += amount

    def _make_serde_encode(self, fn):
        return self._span_factory(
            "serde.encode", lambda args, blob: self._add("encode_bytes", len(blob))
        )(fn)

    def _make_kll_merge_many(self, fn):
        return self._span_factory(
            "kll.merge_many", lambda args, merged: self._add("merge_parts", len(args[1]))
        )(fn)

    def _make_streaming_process_many(self, fn):
        return self._span_factory(
            "streaming.process_many", lambda args, _: self._add("records", len(args[1]))
        )(fn)

    def _make_hll_update_many(self, fn):
        return self._span_factory(
            "hll.update_many", lambda args, _: self._add("hll_items", len(args[1]))
        )(fn)

    def _make_parallel_build(self, fn):
        def after(args, result):
            report = result[1] if isinstance(result, tuple) else None
            if report is not None:
                self._add("backend." + report.backend)
                if report.fallback_reason:
                    self._add("fallbacks")

        return self._span_factory("parallel.build", after)(fn)

    def _make_store_iter_windows(self, fn):
        # A generator: materialize inside the span so the span covers
        # the reads and decodes, not the caller's loop body.
        inner = self._span_factory("store.iter_windows")(lambda *a, **k: list(fn(*a, **k)))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return iter(inner(*args, **kwargs))

        return wrapper

    def _make_store_segment_load(self, fn):
        spanned = self._span_factory("store.segment_load")(fn)

        @functools.wraps(fn)
        def wrapper(reader):
            if getattr(reader, "_loaded", False):
                return fn(reader)
            self._add("segment_loads")
            return spanned(reader)

        return wrapper

    def _make_store_query(self, fn):
        spanned = self._span_factory("store.query")(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            reads, series = self.counts["read_at"], self.counts["series_decoded"]
            result = spanned(*args, **kwargs)
            self._add("query_reads", self.counts["read_at"] - reads)
            self._add("query_series", self.counts["series_decoded"] - series)
            return result

        return wrapper

    def _count_read_at(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = fn(*args, **kwargs)
            self._add("read_at")
            self._add("series_decoded", len(record.get("series", ())))
            return record

        return wrapper

    def _count_rows(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rows = fn(*args, **kwargs)
            self._add("rows_matched", len(rows))
            return rows

        return wrapper

    def _count_revived(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._add("revived")
            return fn(*args, **kwargs)

        return wrapper

    def _count_rewritten(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            reader = fn(*args, **kwargs)
            self._add("rewritten_bytes", os.path.getsize(reader.path))
            return reader

        return wrapper


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(recorder, counts, workload: str, t0_ns: int, t1_ns: int,
                      untraced_s: float) -> dict[str, float]:
    """Fold the recorded spans into every :data:`PER_LAYER` metric."""
    names = recorder.names
    cols = recorder.columns()
    folded = fold(names, cols["name_id"], cols["parent"], cols["start"], cols["end"])

    def calls(name):
        return folded.get(name, {}).get("calls", 0)

    def total_ms(name):
        return folded.get(name, {}).get("total_ns", 0) / 1e6

    def self_ms(name):
        return folded.get(name, {}).get("self_ns", 0) / 1e6

    def per_call_ms(name, own=False):
        return _per(self_ms(name) if own else total_ms(name), calls(name))

    quantile_calls = calls("kll.quantile") + calls("kll.cdf")
    m = {
        "registry.observe.calls": calls("registry.observe"),
        "registry.observe.ns_per_obs": _per(total_ms("registry.observe") * 1e6,
                                            calls("registry.observe")),
        "registry.inc.ns_per_call": _per(total_ms("registry.inc") * 1e6, calls("registry.inc")),
        "kll.merge_many.calls": calls("kll.merge_many"),
        "kll.merge_many.parts": counts["merge_parts"],
        "kll.merge_many.ns_per_part": _per(total_ms("kll.merge_many") * 1e6,
                                           counts["merge_parts"]),
        "kll.quantile.calls": quantile_calls,
        "kll.quantile.ns_per_call": _per(
            (total_ms("kll.quantile") + total_ms("kll.cdf")) * 1e6, quantile_calls
        ),
        "serde.encode.calls": calls("serde.encode"),
        "serde.encode.ns_per_partial": _per(total_ms("serde.encode") * 1e6,
                                            calls("serde.encode")),
        "serde.encode.bytes_per_partial": _per(counts["encode_bytes"], calls("serde.encode")),
        "serde.decode.calls": calls("serde.decode"),
        "serde.decode.ns_per_partial": _per(total_ms("serde.decode") * 1e6,
                                            calls("serde.decode")),
        "timeline.tick.self_ms": per_call_ms("timeline.tick", own=True),
        "timeline.query.calls": calls("timeline.query"),
        "timeline.query.self_ms": per_call_ms("timeline.query", own=True),
        "timeline.store_windows_revived": counts["revived"],
        "store.append.self_ms": per_call_ms("store.append", own=True),
        "store.flush.ms": per_call_ms("store.flush"),
        "store.query.self_ms": per_call_ms("store.query", own=True),
        "store.segment_loads": counts["segment_loads"],
        "store.windows_decoded_per_query": _per(counts["query_reads"], calls("store.query")),
        "store.series_decoded_per_series_returned": _per(counts["query_series"],
                                                         counts["rows_matched"]),
        "store.compact.ms": per_call_ms("store.compact"),
        "store.compact.bytes_rewritten": counts["rewritten_bytes"],
        "alerts.evaluate.self_ms": per_call_ms("alerts.evaluate", own=True),
        "alerts.rule.threshold.ms": per_call_ms("alerts.rule.threshold"),
        "alerts.rule.quantile.ms": per_call_ms("alerts.rule.quantile"),
        "alerts.rule.drift.ms": per_call_ms("alerts.rule.drift"),
        "alerts.rule.changepoint.ms": per_call_ms("alerts.rule.changepoint"),
        "http.request.self_ms": per_call_ms("http.request", own=True),
        "http.response_bytes": _per(counts["response_bytes"], calls("http.request")),
        "streaming.process_many.ns_per_record": _per(
            total_ms("streaming.process_many") * 1e6, counts["records"]
        ),
        "streaming.flush_to_store.ms": per_call_ms("streaming.flush_to_store"),
        "parallel.build.ms": per_call_ms("parallel.build"),
        "parallel.fallbacks": counts["fallbacks"],
        "hll.update_many.ns_per_item": _per(total_ms("hll.update_many") * 1e6,
                                            counts["hll_items"]),
        "hll.update_many.items_per_call": _per(counts["hll_items"], calls("hll.update_many")),
    }
    for backend in ("shm", "process", "thread", "serial"):
        m[f"parallel.backend.{backend}"] = counts["backend." + backend]
    layers = layer_totals(folded)
    for key in [*_LAYER_KEYS, "bench"]:
        m[f"layer.{key}.self_ms"] = layers.get(key, 0) / 1e6
    ops, split = split_under(OP_SPAN[workload], names, cols["name_id"], cols["parent"],
                            cols["start"], cols["end"])
    m["op.calls"] = ops
    for key in _LAYER_KEYS:
        m[f"op.{key}.ms"] = _per(split.get(key, 0) / 1e6, ops)
    wall_ns = t1_ns - t0_ns
    program_ns = sum(layers.get(key, 0) for key in _LAYER_KEYS)
    m["trace.spans"] = len(recorder)
    m["trace.wall_ms"] = wall_ns / 1e6
    m["trace.untraced_wall_ms"] = untraced_s * 1e3
    m["trace.overhead_ms"] = wall_ns / 1e6 - untraced_s * 1e3
    m["trace.overhead_frac"] = _per(wall_ns / 1e9 - untraced_s, untraced_s)
    m["trace.layer_share"] = _per(program_ns, wall_ns)
    m["trace.bench_share"] = _per(layers.get("bench", 0), wall_ns)
    return {name: float(m[name]) for name, _ in PER_LAYER}
