"""In-memory span recorder and the self-time fold.

A span is ``(name, start_ns, end_ns, parent)``.  Spans are kept in
flat ``array`` columns while the traced run executes and written out
once at the end (:meth:`SpanRecorder.save`).

Parenting follows the calling thread's open spans.  A span opened on a
thread with no open span of its own (an HTTP handler thread of the
in-process server) is parented to the innermost open span of the main
thread: the benchmark's one client thread waits inside its
``http.request`` span while the handler runs, so the handler's store and
timeline calls fold under that request.

A span's *self time* is its duration minus the part of its interval
that its children cover (overlapping children are counted once).
"""

from __future__ import annotations

import threading
import time
from array import array
from collections import defaultdict

import numpy as np

#: span-name prefix -> layer (program module, or the benchmark itself).
LAYERS = {
    "registry": "repro.obs.registry",
    "kll": "repro.quantiles.kll",
    "serde": "repro.core.serde",
    "timeline": "repro.obs.timeline",
    "store": "repro.store",
    "alerts": "repro.obs.alerts",
    "http": "repro.obs.http",
    "streaming": "repro.streaming",
    "parallel": "repro.parallel",
    "hll": "repro.cardinality",
    "bench": "benchmark (generator + client)",
}


def layer_of(name: str) -> str:
    """Short layer key of a span name (its first dotted component)."""
    return name.split(".", 1)[0]


class SpanRecorder:
    """Append-only span store with per-thread open-span stacks."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stacks: dict[int, list[int]] = defaultdict(list)
        self._main = threading.get_ident()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.start)

    @property
    def names(self) -> list[str]:
        return list(self._names)

    def begin(self, name: str) -> int:
        tid = threading.get_ident()
        stack = self._stacks[tid]
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main)
            parent = main[-1] if tid != self._main and main else -1
        with self._lock:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self._names)
                self._names.append(name)
            sid = len(self.start)
            self.name_id.append(nid)
            self.parent.append(parent)
            self.start.append(time.perf_counter_ns())
            self.end.append(-1)
        stack.append(sid)
        return sid

    def finish(self, sid: int) -> None:
        self.end[sid] = time.perf_counter_ns()
        stack = self._stacks[threading.get_ident()]
        if stack and stack[-1] == sid:
            stack.pop()
        elif sid in stack:
            stack.remove(sid)

    def span(self, name: str) -> "_SpanScope":
        """``with recorder.span("bench.gen"): ...``"""
        return _SpanScope(self, name)

    def columns(self) -> dict[str, np.ndarray]:
        """The spans as numpy columns (unfinished spans end at their start)."""
        end = np.frombuffer(self.end, dtype=np.int64).copy()
        start = np.frombuffer(self.start, dtype=np.int64).copy()
        end = np.where(end < 0, start, end)
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": start,
            "end": end,
        }

    def save(self, path: str) -> None:
        """Write every span to ``path`` (numpy ``.npz``: columns + names)."""
        np.savez_compressed(path, names=np.array(self._names), **self.columns())


class _SpanScope:
    __slots__ = ("_recorder", "_name", "_sid")

    def __init__(self, recorder: SpanRecorder, name: str) -> None:
        self._recorder = recorder
        self._name = name

    def __enter__(self) -> None:
        self._sid = self._recorder.begin(self._name)

    def __exit__(self, *exc: object) -> None:
        self._recorder.finish(self._sid)


def _covered(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        elif b > cur_hi:
            cur_hi = b
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(names, parent, start, end) -> np.ndarray:
    """Per-span self time: duration minus the union of its children."""
    n = len(start)
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for sid in range(n):
        p = int(parent[sid])
        if p >= 0:
            children[p].append((int(start[sid]), int(end[sid])))
    out = np.asarray(end, dtype=np.int64) - np.asarray(start, dtype=np.int64)
    for p, kids in children.items():
        out[p] -= _covered(kids, int(start[p]), int(end[p]))
    return out


def fold(names: list[str], name_id, parent, start, end) -> dict[str, dict]:
    """Per span name: ``calls``, ``total_ns`` and ``self_ns``."""
    selfs = self_times(names, parent, start, end)
    durations = np.asarray(end) - np.asarray(start)
    name_id = np.asarray(name_id)
    out = {}
    for nid, name in enumerate(names):
        mask = name_id == nid
        calls = int(mask.sum())
        if calls:
            out[name] = {
                "calls": calls,
                "total_ns": int(durations[mask].sum()),
                "self_ns": int(selfs[mask].sum()),
            }
    return out


def layer_totals(folded: dict[str, dict]) -> dict[str, int]:
    """Self nanoseconds per layer key."""
    totals: dict[str, int] = defaultdict(int)
    for name, row in folded.items():
        totals[layer_of(name)] += row["self_ns"]
    return dict(totals)


def split_under(root: str, names: list[str], name_id, parent, start, end):
    """Where the time of every ``root`` span goes, by layer.

    Returns ``(calls, {layer: self_ns})`` summed over the ``root`` spans
    and all their descendants (the root's own self time included).
    """
    selfs = self_times(names, parent, start, end)
    if root not in names:
        return 0, {}
    root_id = names.index(root)
    owner = np.full(len(start), -1, dtype=np.int64)
    totals: dict[str, int] = defaultdict(int)
    calls = 0
    for sid in range(len(start)):
        if int(name_id[sid]) == root_id:
            owner[sid] = sid
            calls += 1
        else:
            p = int(parent[sid])
            if p >= 0:
                owner[sid] = owner[p]
        if owner[sid] >= 0:
            totals[layer_of(names[int(name_id[sid])])] += int(selfs[sid])
    return calls, dict(totals)
