"""Statistical sampling profiler with span-keyed stacks.

Where :mod:`repro.obs.trace` shows *which operation* time went to,
this module shows *which code*: a daemon-thread ticker
(:mod:`repro.obs.ticker`) samples every
live thread's Python stack via ``sys._current_frames()`` (default
100 Hz), aggregates identical stacks into call-tree counts, and — when
:mod:`repro.obs.trace` has an open span on the sampled thread — keys
each stack under that span, so one capture answers both "where is CPU
going" and "inside which traced operation".

Exports:

- :meth:`SamplingProfiler.collapsed` — the collapsed-stack text format
  (``frame;frame;frame count`` per line) consumed by ``flamegraph.pl``
  and speedscope's collapsed-stack importer; span-keyed stacks get a
  synthetic ``span:<name>`` root frame so the flamegraph groups by
  traced operation.
- :meth:`SamplingProfiler.as_dict` / :meth:`~SamplingProfiler.to_json`
  — structured form with per-stack ``(file, function, line)`` frames.
- :func:`profile_for` — one-shot capture helper, also behind
  ``GET /profile?seconds=N`` on :class:`~repro.obs.ObsServer`.

The profiler is **off by default** and costs nothing until
:meth:`~SamplingProfiler.start`; sampling is wait-free for the profiled
threads (``sys._current_frames()`` reads interpreter state without
cooperation — the sampled code never blocks on the profiler).  Like
every statistical profiler it sees only what it samples: stack counts
are proportional to wall time per stack with ±1-sample granularity.

>>> profiler = SamplingProfiler(hz=100)
>>> profiler.start()
>>> workload()
>>> profiler.stop()                       # idempotent
>>> print(profiler.collapsed())           # pipe into flamegraph.pl/speedscope
"""

from __future__ import annotations

import json
import os.path
import sys
import threading
import time
from typing import Any

from .ticker import Ticker
from .trace import Tracer, get_tracer

__all__ = ["SamplingProfiler", "profile_for"]

#: frames deeper than this are truncated (defensive: recursion bombs).
MAX_DEPTH = 256


def _sanitize(text: str) -> str:
    """Make a frame label safe for the collapsed format (no ';', ' ', NL)."""
    return (
        text.replace(";", ":").replace(" ", "_").replace("\n", "_").replace("\t", "_")
    )


def _frame_label(filename: str, function: str, lineno: int) -> str:
    return _sanitize(f"{os.path.basename(filename)}:{function}:{lineno}")


class SamplingProfiler(Ticker):
    """Aggregating ``sys._current_frames()`` ticker.

    Parameters
    ----------
    hz:
        Target sampling rate (samples per second); 100 Hz costs well
        under 1% on a typical workload and resolves anything that runs
        for more than a few milliseconds.
    tracer:
        Tracer consulted for the active span per sampled thread; None
        (default) resolves the process-global tracer live.
    max_stacks:
        Cap on distinct aggregated stacks; beyond it new stacks are
        dropped and counted in :attr:`truncated` (bounded memory under
        pathological stack churn).
    """

    _thread_name = "repro-obs-profiler"

    def __init__(
        self,
        hz: float = 100.0,
        tracer: Tracer | None = None,
        max_stacks: int = 10_000,
    ) -> None:
        if hz <= 0:
            raise ValueError(f"hz must be > 0, got {hz}")
        if max_stacks < 1:
            raise ValueError(f"max_stacks must be >= 1, got {max_stacks}")
        self.hz = float(hz)
        self.max_stacks = max_stacks
        self._tracer = tracer
        # (span name | None, ((file, func, line), ...)) -> sample count
        self._counts: dict[tuple, int] = {}
        self._lock = threading.Lock()
        self._started_at: float | None = None
        #: total sampling ticks taken.
        self.samples = 0
        #: distinct stacks dropped after hitting ``max_stacks``.
        self.truncated = 0
        #: accumulated capture wall time (finished runs; live run added on read).
        self._elapsed = 0.0

    @property
    def tracer(self) -> Tracer:
        return self._tracer if self._tracer is not None else get_tracer()

    # -- sampling --------------------------------------------------------------

    def sample_once(self, frames: dict[int, Any] | None = None) -> int:
        """Take one sample of every live thread; returns threads sampled.

        ``frames`` defaults to ``sys._current_frames()``; injectable
        for deterministic tests.  The calling (or sampler) thread's own
        stack is excluded — a profiler profiling its own ticker is
        noise.
        """
        if frames is None:
            frames = sys._current_frames()
        me = threading.get_ident()
        tracer = self.tracer
        sampled = 0
        for tid, frame in frames.items():
            if tid == me:
                continue
            stack = []
            depth = 0
            while frame is not None and depth < MAX_DEPTH:
                code = frame.f_code
                stack.append((code.co_filename, code.co_name, frame.f_lineno))
                frame = frame.f_back
                depth += 1
            if not stack:
                continue
            stack.reverse()  # root first, leaf last
            span = tracer.current_span_for_thread(tid)
            key = (span.name if span is not None else None, tuple(stack))
            with self._lock:
                if key in self._counts:
                    self._counts[key] += 1
                elif len(self._counts) < self.max_stacks:
                    self._counts[key] = 1
                else:
                    self.truncated += 1
            sampled += 1
        self.samples += 1
        return sampled

    # -- lifecycle -------------------------------------------------------------

    @property
    def duration(self) -> float:
        """Total capture wall time in seconds (live run included)."""
        live = time.perf_counter() - self._started_at if self._started_at else 0.0
        return self._elapsed + live

    def start(self) -> "SamplingProfiler":
        """Sample on a ``1 / hz`` grid from a daemon thread; raises on double-start.

        A sample that raises is counted in the process-global registry
        and the next one still runs (:mod:`repro.obs.ticker`).
        """
        return self._start(1.0 / self.hz)

    def _on_start(self) -> None:
        self._started_at = time.perf_counter()

    def _pass(self, deadline: float) -> None:
        self.sample_once()

    def stop(self) -> "SamplingProfiler":
        """Stop the ticker and join it (idempotent, incl. before start)."""
        super().stop()
        return self

    def _on_stop(self) -> None:
        self._elapsed += time.perf_counter() - self._started_at
        self._started_at = None

    # -- aggregation views -----------------------------------------------------

    def stacks(self) -> list[dict]:
        """Aggregated stacks, most-sampled first.

        Each entry: ``{"span": name | None, "frames": [(file, function,
        line), ...], "count": samples}`` with frames root-first.
        """
        with self._lock:
            items = list(self._counts.items())
        items.sort(key=lambda kv: (-kv[1], kv[0][1]))
        return [
            {"span": span, "frames": list(frames), "count": count}
            for (span, frames), count in items
        ]

    def collapsed(self) -> str:
        """Collapsed-stack text: one ``frame;frame;... count`` line per stack.

        Root-first ``file:function:line`` frames joined by ``;`` with
        the sample count after the final space — the format
        ``flamegraph.pl`` and speedscope's collapsed importer parse.
        Span-keyed stacks gain a leading ``span:<name>`` frame.  Ends
        with exactly one trailing newline (empty capture: empty string).
        """
        lines = []
        for entry in self.stacks():
            frames = [_frame_label(*frame) for frame in entry["frames"]]
            if entry["span"] is not None:
                frames.insert(0, _sanitize(f"span:{entry['span']}"))
            lines.append(f"{';'.join(frames)} {entry['count']}")
        return "\n".join(lines) + "\n" if lines else ""

    def as_dict(self) -> dict:
        """Structured capture: meta plus :meth:`stacks` (the JSON form)."""
        return {
            "hz": self.hz,
            "samples": self.samples,
            "duration_seconds": self.duration,
            "truncated": self.truncated,
            "running": self.running,
            "stacks": self.stacks(),
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.as_dict(), indent=indent)

    def clear(self) -> None:
        """Drop every aggregated stack and reset counters."""
        with self._lock:
            self._counts = {}
        self.samples = 0
        self.truncated = 0
        self._elapsed = 0.0
        if self._started_at is not None:
            self._started_at = time.perf_counter()

    def __repr__(self) -> str:
        state = "running" if self.running else "stopped"
        return (
            f"SamplingProfiler({state}, hz={self.hz:g}, samples={self.samples}, "
            f"stacks={len(self._counts)})"
        )


def profile_for(
    seconds: float, hz: float = 100.0, tracer: Tracer | None = None
) -> SamplingProfiler:
    """Capture for ``seconds`` and return the stopped profiler.

    The synchronous one-shot behind ``GET /profile?seconds=N``: the
    caller blocks (the workload keeps running on its own threads — the
    sampler never stops it) and gets back a profiler ready for
    :meth:`~SamplingProfiler.collapsed` / :meth:`~SamplingProfiler.to_json`.
    """
    if seconds <= 0:
        raise ValueError(f"seconds must be > 0, got {seconds}")
    with SamplingProfiler(hz=hz, tracer=tracer) as profiler:
        time.sleep(seconds)
    return profiler
