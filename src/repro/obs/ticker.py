"""One daemon-thread loop for every background component.

The timeline recorder, alert engine, store compactor and sampling
profiler subclass :class:`Ticker`, which owns the thread, its stop
event, ``running``, ``stop`` and ``with``.  Passes keep to a grid: each
deadline moves forward by an exact multiple of the period, so a slow
pass never pushes the next one back, missed deadlines are skipped, and
the first pass comes at the first grid point after ``start``.  A pass
that raises is logged, counted in ``repro_background_errors_total{thread}``
on the component's :attr:`~Ticker.registry`, and the thread goes on.
"""

from __future__ import annotations

import contextlib
import logging
import math
import threading
import time

from .registry import MetricsRegistry, get_registry

__all__ = ["Ticker"]

_log = logging.getLogger(__name__)


class Ticker:
    """Base of a component that runs :meth:`_pass` every period from a daemon thread.

    A subclass names ``_thread_name``, implements :meth:`_pass`, and its
    public ``start`` calls :meth:`_start` with the period.  Deadlines
    come from ``_now``, a monotonic clock unless the subclass sets its own.
    """

    _thread_name: str
    _thread: threading.Thread | None = None
    _now = staticmethod(time.monotonic)
    _registry: MetricsRegistry | None = None

    @property
    def registry(self) -> MetricsRegistry:
        """Where the component meters itself: its own registry, else the process-global one."""
        return self._registry if self._registry is not None else get_registry()

    @property
    def running(self) -> bool:
        return self._thread is not None

    def _start(self, interval: float):
        if self._thread is not None:
            raise RuntimeError(f"{type(self).__name__} is already running")
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self._on_start()
        self._stop_event = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, args=(float(interval), self._stop_event),
            name=self._thread_name, daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the thread and join it (idempotent, including before start)."""
        thread, self._thread = self._thread, None
        if thread is None:
            return
        self._stop_event.set()
        thread.join(timeout=5.0)
        self._on_stop()

    def __enter__(self):
        """Start at the default period unless running; ``__exit__`` stops."""
        if self._thread is None:
            self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    def _pass(self, deadline: float) -> None:
        raise NotImplementedError

    def _on_start(self) -> None:
        """Runs before the thread starts."""

    def _on_stop(self) -> None:
        """Runs after the thread is joined."""

    @staticmethod
    def _advance_deadline(deadline: float, now: float, interval: float) -> float:
        """Next deadline strictly after ``now``, staying on the grid.

        Sleeping ``interval`` after each pass would add every pass's run
        time to the period; advancing by exact multiples of ``interval``
        skips the deadlines a slow pass missed and lands on a grid point.
        """
        deadline += interval
        if deadline <= now:
            deadline += (math.floor((now - deadline) / interval) + 1) * interval
        return deadline

    def _loop(self, interval: float, stop: threading.Event) -> None:
        deadline = (math.floor(self._now() / interval) + 1) * interval
        while not stop.wait(max(0.0, deadline - self._now())):
            try:
                self._pass(deadline)
            except Exception:
                _log.exception("%s: pass failed; the next one runs on schedule", self._thread_name)
                with contextlib.suppress(Exception):
                    self.registry.counter(
                        "repro_background_errors_total",
                        "Background passes that raised, by thread.",
                        thread=self._thread_name,
                    ).inc()
            deadline = self._advance_deadline(deadline, self._now(), interval)
