"""TTL/decay compaction for the sketch store.

Telemetry ages: second-resolution windows matter for the last hour,
minute-resolution suffices for the last day, and beyond the retention
horizon the data should cost nothing.  :class:`Compactor` implements
both halves against a :class:`~repro.store.SketchStore`:

- **Decay** — sealed segments older than ``decay_after`` whose level
  is below ``max_level`` are *coarsened*: their fine windows re-bucket
  onto a ``coarsen_to``-second grid (counter deltas sum, gauges keep
  the last value in window order, sketch partials ``merge_many``-fold
  — KLL merges add no rank error, so a quantile over the coarse window
  equals a quantile over its fine constituents within the same bound),
  and the result is published as one sealed level+1 segment before the
  originals are deleted.
- **TTL** — sealed segments whose newest window is older than ``ttl``
  are dropped outright, whatever their level.

Both paths run under the store lock, so queries see either the fine
segments or their coarse replacement, never a gap or a double-count.
Every action lands in ``repro_store_*`` counters
(``compactions_total``, ``windows_compacted_total``,
``segments_expired_total``, ``windows_expired_total``,
``bytes_reclaimed_total``), making retention itself observable.

>>> compactor = Compactor(store, ttl=7 * 86400, decay_after=3600,
...                       coarsen_to=60.0)
>>> compactor.run_once()          # one pass, returns a stats dict
>>> compactor.start(interval=60)  # or a background daemon thread

The thread is a :class:`~repro.obs.ticker.Ticker` (``with`` starts it
at 60 s); ``install_shutdown_hook(compactor)`` stops it at exit, so a
clean exit never cuts a pass between writing the coarse segment and
removing the fine ones.
"""

from __future__ import annotations

import math
import time
from typing import Callable

from ..obs.registry import MetricsRegistry
from ..obs.ticker import Ticker
from ..obs.timeline import _fold_window_rows
from .segment import SegmentReader
from .store import SketchStore, _Window

__all__ = ["Compactor"]


def _coarsen(windows: list[tuple], coarsen_to: float) -> list[dict]:
    """Re-bucket fine ``(start, end, [(name, fold row), ...])`` windows
    onto a ``coarsen_to``-second grid.

    Windows must arrive oldest-first (gauge "last value" folds in
    window order).  Each series' rows in a bucket fold through the
    range-read fold; the coarse entry keeps the counter total, the
    gauge's last value or the folded partial.  Bucket boundaries are
    epoch-aligned multiples of ``coarsen_to``; each output window spans
    exactly one bucket.
    """
    buckets: dict[int, dict[tuple, list]] = {}
    for start, _, named_rows in windows:
        series = buckets.setdefault(int(math.floor(start / coarsen_to)), {})
        for name, row in named_rows:
            series.setdefault((name, row[2], row[3]), []).append(row)
    out = []
    for index, series in sorted(buckets.items()):
        entries = []
        for (name, labels, kind), rows in series.items():
            folded = _fold_window_rows(name, rows)
            entry = {"name": name, "labels": dict(labels), "kind": kind}
            if kind == "counter":
                entry["value"] = folded.total
            elif kind == "gauge":
                entry["value"] = folded.last
            else:
                entry["sketch"] = folded.sketch
            entries.append(entry)
        out.append({"start": index * coarsen_to, "end": (index + 1) * coarsen_to,
                    "series": entries})
    return out


class Compactor(Ticker):
    """Background TTL/decay compaction over one :class:`SketchStore`.

    Parameters
    ----------
    store:
        The store to compact (sealed segments only; the active write
        segment is never touched).
    ttl:
        Retention horizon in seconds — sealed segments whose newest
        window is older than ``now - ttl`` are deleted.  None disables
        expiry.
    decay_after:
        Age in seconds after which fine segments coarsen.  None
        disables decay.
    coarsen_to:
        Coarse window width for decayed data (must exceed the store's
        partition width to actually shrink anything; default 10× the
        store's ``partition_seconds``).
    max_level:
        Segments at this level no longer decay (they still expire).
    clock, registry:
        Injectable source of each pass's ``now`` / metrics registry, as
        elsewhere (the thread's schedule is monotonic).
    """

    _thread_name = "repro-store-compactor"

    def __init__(
        self,
        store: SketchStore,
        ttl: float | None = None,
        decay_after: float | None = None,
        coarsen_to: float | None = None,
        max_level: int = 1,
        clock: Callable[[], float] = time.time,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if ttl is not None and ttl <= 0:
            raise ValueError(f"ttl must be > 0, got {ttl}")
        if decay_after is not None and decay_after <= 0:
            raise ValueError(f"decay_after must be > 0, got {decay_after}")
        if ttl is None and decay_after is None:
            raise ValueError("a Compactor needs at least one of ttl / decay_after")
        self.store = store
        self.ttl = ttl
        self.decay_after = decay_after
        self.coarsen_to = (
            float(coarsen_to)
            if coarsen_to is not None
            else 10.0 * store.partition_seconds
        )
        if self.coarsen_to <= 0:
            raise ValueError(f"coarsen_to must be > 0, got {self.coarsen_to}")
        self.max_level = int(max_level)
        self._clock = clock
        self._registry = registry
        self.runs = 0

    def _count(self, name: str, help: str, amount: float = 1.0) -> None:
        self.registry.counter(name, help).inc(amount)

    # -- one pass --------------------------------------------------------------

    def _expire(self, now: float) -> tuple[int, int, int]:
        """Drop segments past the TTL horizon; returns (segments, windows, bytes)."""
        if self.ttl is None:
            return (0, 0, 0)
        horizon = now - self.ttl
        doomed = [
            reader
            for reader in self.store.segments()
            if reader.end is not None and reader.end <= horizon
        ]
        if not doomed:
            return (0, 0, 0)
        windows = sum(reader.n_records for reader in doomed)
        reclaimed = self.store.remove_segments(doomed)
        self._count(
            "repro_store_segments_expired_total",
            "Sealed segments deleted past the TTL horizon.",
            len(doomed),
        )
        self._count(
            "repro_store_windows_expired_total",
            "Window records deleted past the TTL horizon.",
            windows,
        )
        return (len(doomed), windows, reclaimed)

    def _decay_candidates(self, now: float) -> list[SegmentReader]:
        horizon = now - self.decay_after
        return [
            reader
            for reader in self.store.segments()
            if reader.level < self.max_level
            and reader.end is not None
            and reader.end <= horizon
        ]

    def _decay(self, now: float) -> tuple[int, int, int, int]:
        """Coarsen aged fine segments; returns (segments_in, windows_in,
        windows_out, bytes_reclaimed)."""
        if self.decay_after is None:
            return (0, 0, 0, 0)
        by_level: dict[int, list[SegmentReader]] = {}
        for reader in self._decay_candidates(now):
            by_level.setdefault(reader.level, []).append(reader)
        segments_in = windows_in = windows_out = reclaimed = 0
        for level, readers in sorted(by_level.items()):
            fine = []
            for reader in readers:
                for _, record in reader.records():
                    # Revive now and drop the record: its blobs are not
                    # held alongside the partials decoded from them.
                    window = _Window(record, 0)
                    fine.append((window.start, window.end,
                                 [(key[0], window.row(i)) for i, key in enumerate(window.keys)]))
            if not fine:
                self.store.remove_segments(readers)
                continue
            fine.sort(key=lambda w: (w[0], w[1]))
            coarse = _coarsen(fine, self.coarsen_to)
            self.store.write_sealed_segment(level + 1, coarse)
            reclaimed += self.store.remove_segments(readers)
            segments_in += len(readers)
            windows_in += len(fine)
            windows_out += len(coarse)
        if segments_in:
            self._count(
                "repro_store_compactions_total",
                "Decay compaction passes that rewrote segments.",
            )
            self._count(
                "repro_store_windows_compacted_total",
                "Fine windows merged into coarser ones by decay compaction.",
                windows_in,
            )
        return (segments_in, windows_in, windows_out, reclaimed)

    def run_once(self, now: float | None = None) -> dict:
        """One compaction pass (decay, then expire); returns a stats dict."""
        if now is None:
            now = self._clock()
        decayed_segments, windows_in, windows_out, decay_bytes = self._decay(now)
        expired_segments, expired_windows, expired_bytes = self._expire(now)
        self.runs += 1
        reclaimed = decay_bytes + expired_bytes
        if reclaimed:
            self._count(
                "repro_store_bytes_reclaimed_total",
                "Segment bytes deleted by compaction (decay + TTL).",
                reclaimed,
            )
        return {
            "now": now,
            "decayed_segments": decayed_segments,
            "windows_in": windows_in,
            "windows_out": windows_out,
            "expired_segments": expired_segments,
            "expired_windows": expired_windows,
            "bytes_reclaimed": reclaimed,
        }

    # -- lifecycle -------------------------------------------------------------

    def start(self, interval: float = 60.0) -> "Compactor":
        """Run :meth:`run_once` every ``interval`` seconds from a daemon thread.

        Passes keep to a monotonic grid of the period, the first at its
        next point; a pass that raises is counted and the next one still
        runs (:mod:`repro.obs.ticker`).  ``with Compactor(...)`` starts a
        60 s compactor; :meth:`stop` waits up to 5 s for a running pass.
        """
        return self._start(interval)

    def _pass(self, deadline: float) -> None:
        self.run_once()

    def __repr__(self) -> str:
        state = "running" if self.running else "idle"
        return (
            f"Compactor({state}, ttl={self.ttl}, decay_after={self.decay_after}, "
            f"coarsen_to={self.coarsen_to}, runs={self.runs})"
        )
