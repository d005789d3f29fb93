"""Lock-free concurrent sketches with epoch-based propagation.

The paper's hook (§2): the Yahoo "data sketches" project *"emphasised
the need for concurrency and mergability of sketches"*, and *Fast
Concurrent Data Sketches* (Rinberg et al., TOPC 2022) supplies the
architecture this module follows:

- **Thread-local buffers.**  Each writer thread owns a private buffer
  sketch (:class:`_LocalBuffer`).  The per-update hot path touches only
  thread-local state — no lock is ever acquired — and is guarded by a
  per-buffer *sequence counter* (a single-writer seqlock: odd while the
  owner is inside an update, even when quiescent) so readers can take
  validated copies without stopping the writer.

- **Epoch-based propagation into a double-buffered global.**  When a
  buffer reaches ``buffer_items`` updates, its owner hands the full
  sketch off and continues on a fresh one; the handed-off buffer is
  merged into the *shadow* side of a global sketch pair, which is then
  published by flipping an index and bumping the propagation **epoch**.
  The published side is immutable while published (all merging happens
  on the shadow), so a reader copying it can never observe a torn
  multi-array state.

- **Sequence-number snapshots.**  The epoch is itself a seqlock: a
  propagation or fold goes *odd* before its first reader-visible step
  (swapping a buffer empty, shrinking the retiring list) and back to
  *even* only after the global flip that re-homes those items — so
  there is no instant at which the items live in neither place while
  the epoch looks settled.  :meth:`ConcurrentSketch.snapshot` reads the
  epoch, copies the published global plus every live and retiring
  buffer (each via its owner's seqlock), and re-reads the epoch: an
  even, unchanged epoch proves no propagation or fold moved items
  between a buffer and the global mid-read, so the merged result is one
  consistent cut of the stream — items are never half-applied, double
  counted, or dropped.  Readers never block writers on the optimistic
  path; after repeated interference they fall back to a brief freeze
  that lets in-flight updates finish and defers new ones, which keeps
  snapshots wait-free in practice and correct always.

``compact`` retires every live buffer by flagging it; owners discover
the flag *inside* their seqlock critical section and re-register, so a
retired buffer whose counter reads even can be folded immediately —
including buffers of live-but-idle (parked) writers, which the old
lock-and-drain design parked in the retiring list indefinitely.  A
buffer is held back only while its owner is mid-update, so the retiring
backlog is bounded by the number of in-flight writers.

Correctness relies exactly on mergeability — the property experiment E7
certifies — so any :class:`~repro.core.MergeableSketch` can be wrapped.
Snapshot freshness is relaxed à la Rinberg: a snapshot may lag the
writers by at most ``buffer_items`` un-propagated updates per thread,
but it is always internally consistent (the old design's torn
mid-compaction reads of KLL or SpaceSaving replicas are structurally
impossible).

**GIL dependency.**  The seqlock counters, the epoch, and the
copy-on-write list rebinds are plain attribute stores with no memory
barriers: their atomicity and cross-thread visibility ordering come
from the CPython GIL.  On a free-threaded build (PEP 703) with the GIL
actually disabled, none of the validation here orders anything, so
construction fails loudly rather than returning an object that would
corrupt snapshots silently.
"""

from __future__ import annotations

import copy
import sys
import threading
import time
from collections.abc import Callable

from ..core import MergeableSketch
from ..obs.registry import STATE as _OBS
from ..obs.registry import MetricsRegistry, get_registry
from ..obs.trace import op_span

__all__ = ["ConcurrentSketch"]

#: optimistic whole-snapshot attempts before the freeze fallback.
_SNAPSHOT_RETRIES = 8
#: per-buffer seqlock copy attempts within one snapshot attempt.
_BUFFER_COPY_RETRIES = 16


class _LocalBuffer:
    """One writer thread's private buffer sketch plus its seqlock.

    Single-writer discipline: only the owning thread mutates ``sketch``,
    ``n`` and ``counter``.  ``counter`` is the per-thread seqlock — the
    owner increments it to odd before touching the sketch and back to
    even after, so any other thread that observes an even, unchanged
    counter around a copy knows the copy is consistent.  ``retired`` is
    the ``compact()`` tombstone; the owner checks it *after* going odd,
    which is what makes an even counter on a retired buffer proof that
    no future write can land in it.
    """

    __slots__ = ("sketch", "n", "counter", "retired", "thread")

    def __init__(self, sketch: MergeableSketch, thread: threading.Thread) -> None:
        self.sketch = sketch
        self.n = 0
        self.counter = 0  # even = quiescent, odd = owner mid-write
        self.retired = False
        self.thread = thread


class ConcurrentSketch:
    """Lock-free concurrent façade over a mergeable sketch family.

    Parameters
    ----------
    factory:
        Zero-argument callable producing identically-parameterized
        sketches (same seeds — required for merging).
    registry:
        Metrics sink when :mod:`repro.obs` is enabled (defaults to the
        process-global registry).  Propagation/compaction/drain counts
        and buffer depths are also always available as plain attributes
        (:attr:`n_propagations`, :attr:`n_compactions`,
        :attr:`n_drained`, :attr:`n_replicas`, :attr:`n_retiring`,
        :meth:`stats`).
    buffer_items:
        Updates a thread buffers locally before handing the buffer off
        to the global pair.  Larger values amortize propagation further
        (the hot path stays lock-free either way) at the cost of
        snapshot staleness: a snapshot may lag each writer by up to
        this many un-propagated updates.
    """

    def __init__(
        self,
        factory: Callable[[], MergeableSketch],
        registry: MetricsRegistry | None = None,
        buffer_items: int = 1024,
    ) -> None:
        # The whole protocol leans on GIL sequencing for unsynchronized
        # attribute reads/writes; fail loudly where that guarantee is off.
        gil_enabled = getattr(sys, "_is_gil_enabled", None)
        if gil_enabled is not None and not gil_enabled():
            raise RuntimeError(
                "ConcurrentSketch's seqlock/epoch validation relies on the "
                "GIL for atomicity and memory ordering; free-threaded "
                "CPython (PEP 703, GIL disabled) is not supported"
            )
        self.factory = factory
        probe = factory()
        if not isinstance(probe, MergeableSketch):
            raise TypeError(
                f"factory must produce MergeableSketch instances, got "
                f"{type(probe).__name__}"
            )
        if buffer_items < 1:
            raise ValueError(f"buffer_items must be >= 1, got {buffer_items}")
        self.buffer_items = int(buffer_items)
        self._obs_registry = registry
        #: times :meth:`compact` ran.
        self.n_compactions = 0
        #: retired buffers folded into the global so far.
        self.n_drained = 0
        #: full local buffers propagated into the global so far.
        self.n_propagations = 0
        # The double-buffered global: the published side is immutable
        # while published; all merging happens on the shadow side, then
        # one index store flips the roles and bumps the epoch.
        self._globals: list[MergeableSketch] = [probe, factory()]
        self._published = 0
        # The propagation epoch is a seqlock: odd while a mutation that
        # moves items between a buffer and the global is in progress
        # (mutators hold self._lock across the whole odd phase), even
        # and stable when the state is consistent.  The flip count is
        # _epoch >> 1.
        self._epoch = 0
        # Buffers merged into the published side but not yet into the
        # shadow; replayed onto the shadow at the next flip.
        self._backlog: list[MergeableSketch] = []
        # Snapshot fallback: diverts writers entering their critical
        # section onto the slow path so in-flight counters drain to even.
        self._freeze = False
        # Serializes propagation, folding, registration and compaction —
        # never taken on the per-update hot path.
        self._lock = threading.Lock()
        self._local = threading.local()
        # Copy-on-write lists (rebound, never mutated in place) so the
        # lock-free snapshot path can grab a stable reference.
        self._buffers: list[_LocalBuffer] = []  # live
        self._retiring: list[_LocalBuffer] = []  # retired, not yet folded

    # -- writer paths ----------------------------------------------------------

    def _enter(self) -> _LocalBuffer:
        """Enter the calling thread's seqlock critical section.

        Returns a *live* buffer with its counter odd.  The retired and
        freeze checks happen after going odd: compaction observing an
        even counter on a retired buffer is therefore guaranteed that
        any later write attempt lands here, sees the tombstone, and
        moves to a fresh buffer instead.
        """
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._register()
        while True:
            buf.counter += 1
            if not (buf.retired or self._freeze):
                return buf
            buf.counter += 1
            buf = self._reenter(buf)

    def update(self, *args, **kwargs) -> None:
        """Update the calling thread's buffer (lock-free hot path)."""
        buf = self._enter()
        try:
            buf.sketch.update(*args, **kwargs)
            buf.n += 1
        finally:
            buf.counter += 1
        if buf.n >= self.buffer_items:
            self._propagate(buf)

    def update_many(self, items, *args, **kwargs) -> None:
        """Route a whole batch to the calling thread's buffer.

        The batch takes the wrapped sketch's vectorized ``update_many``
        path, so heavy writers amortize per-item overhead without
        touching a lock; the buffer is handed off once it has absorbed
        ``buffer_items`` updates.
        """
        try:
            n = len(items)
        except TypeError:
            n = self.buffer_items  # unsized iterable: hand off right after
        buf = self._enter()
        try:
            buf.sketch.update_many(items, *args, **kwargs)
            buf.n += n
        finally:
            buf.counter += 1
        if buf.n >= self.buffer_items:
            self._propagate(buf)

    def _register(self) -> _LocalBuffer:
        """Create and publish the calling thread's buffer (slow path)."""
        buf = _LocalBuffer(self.factory(), threading.current_thread())
        with self._lock:
            self._buffers = self._buffers + [buf]
            self._drain_locked()
            if _OBS.enabled:
                self._publish_gauges_locked()
        self._local.buf = buf
        return buf

    def _reenter(self, buf: _LocalBuffer) -> _LocalBuffer:
        """Resume after hitting a tombstoned buffer or a snapshot freeze.

        Serializes on the maintenance lock (waiting out any in-progress
        frozen snapshot), then returns a live buffer for the caller to
        re-enter — the caller re-checks the flags under its seqlock.
        """
        with self._lock:
            retired = buf.retired
        return self._register() if retired else buf

    def _propagate(self, buf: _LocalBuffer) -> None:
        """Hand the full buffer to the global pair (amortized slow path)."""
        fresh = self.factory()
        with op_span("concurrent.propagate", items=buf.n), self._lock:
            if buf.retired:
                return  # compact() owns it now; the drain will fold it
            # Epoch odd BEFORE the buffer is swapped empty: until the
            # flip in _apply_locked publishes a global containing these
            # items, any snapshot that read the emptied buffer must
            # fail its epoch check — a one-sided bump after the fact
            # would let a snapshot landing in between miss the items.
            self._epoch += 1
            try:
                # Swap under the owner's seqlock so a concurrent
                # snapshot re-validates instead of pairing the old
                # buffer copy with a global that already absorbed it.
                buf.counter += 1
                full = buf.sketch
                buf.sketch = fresh
                buf.n = 0
                buf.counter += 1
                self._apply_locked([full])
            finally:
                self._epoch += 1  # even: consistent again
            self.n_propagations += 1
            if _OBS.enabled:
                self._registry().counter(
                    "repro_concurrent_propagate_total",
                    "Full thread-local buffers propagated into the global.",
                ).inc()

    # -- global pair maintenance (callers hold the lock) -----------------------

    def _apply_locked(self, bufs: list[MergeableSketch]) -> None:
        """Fold ``bufs`` into the global pair and flip.

        The shadow absorbs the backlog (buffers the published side
        already contains) plus the new buffers, then becomes the
        published side via one atomic index store.  The side being read
        by snapshots is never written: mutating what a reader copied
        requires a *later* flip, which the reader's epoch re-check
        detects.  Callers hold the lock AND have already taken the
        epoch odd (covering whatever buffer/retiring mutation preceded
        this call); they take it even again only after this returns.
        """
        shadow = self._globals[1 - self._published]
        for pending in self._backlog:
            shadow.merge(pending)
        for buf in bufs:
            shadow.merge(buf)
        self._published = 1 - self._published
        self._backlog = list(bufs)

    def _drain_locked(self) -> None:
        """Fold retired buffers whose owners are provably quiescent.

        ``retired`` is set before the counter is read, and owners check
        the tombstone after going odd — so an even counter here means no
        write is in flight and none can start: the buffer is frozen and
        safe to fold.  Odd counters (owner mid-update) stay in the
        retiring list for the next drain.  Buffers of exited threads
        stay live until :meth:`compact` retires them (preserving the
        old wrapper's ``n_replicas`` accounting); once retired, a dead
        owner is trivially quiescent and folds immediately.
        """
        if not self._retiring:
            return
        with op_span("concurrent.drain", retiring=len(self._retiring)) as span:
            foldable = [b for b in self._retiring if not b.counter & 1]
            if foldable:
                # Epoch odd BEFORE the retiring list shrinks: a
                # snapshot reading the shortened list before the flip
                # re-homes the folded buffers must retry, or it would
                # silently lose them.
                self._epoch += 1
                try:
                    self._retiring = [b for b in self._retiring if b.counter & 1]
                    self._apply_locked([b.sketch for b in foldable if b.n > 0])
                finally:
                    self._epoch += 1  # even: consistent again
                self.n_drained += len(foldable)
            span.attributes["folded"] = len(foldable)
        if foldable and _OBS.enabled:
            self._registry().counter(
                "repro_concurrent_drain_total",
                "Retired buffers folded into the global sketch.",
            ).inc(len(foldable))

    # -- reader paths ----------------------------------------------------------

    def snapshot(self) -> MergeableSketch:
        """A consistent merged copy of the global plus every buffer.

        Optimistic epoch-validated read: copies the published global
        (immutable while published) and every live/retiring buffer
        (each validated by its owner's seqlock), then accepts only if
        the propagation epoch did not move — so no item is ever seen
        half-applied, twice, or not at all.  Writers are never blocked;
        after ``_SNAPSHOT_RETRIES`` interfered attempts the reader
        briefly freezes new writer entries (in-flight updates finish
        unhindered) and reads under the maintenance lock.
        """
        for _ in range(_SNAPSHOT_RETRIES):
            merged = self._try_snapshot()
            if merged is not None:
                return merged
        return self._snapshot_frozen()

    def _try_snapshot(self) -> MergeableSketch | None:
        epoch = self._epoch
        if epoch & 1:
            # A propagation or fold is mid-flight (items are between
            # homes); yield to it rather than copying doomed state.
            time.sleep(0)
            return None
        base = self._globals[self._published]
        try:
            base_state = copy.deepcopy(base.state_dict())
        except Exception:
            return None  # flip raced the copy; the epoch check would fail too
        parts: list[tuple[type, dict]] = []
        for buf in self._all_buffers():
            part = self._copy_buffer(buf)
            if part is None:
                return None
            if part[1] is not None:
                parts.append(part)
        if self._epoch != epoch:
            return None  # a propagation or fold moved items mid-read
        return self._materialize(type(base), base_state, parts)

    def _all_buffers(self) -> list[_LocalBuffer]:
        """Live plus retiring buffers, deduplicated by identity.

        The two copy-on-write lists are read without the lock; a
        concurrent ``compact`` publishes a buffer to the retiring list
        before clearing the live list, so the overlap window can show a
        buffer in both — never in neither.
        """
        seen: dict[int, _LocalBuffer] = {}
        for buf in self._buffers + self._retiring:
            seen.setdefault(id(buf), buf)
        return list(seen.values())

    def _copy_buffer(self, buf: _LocalBuffer):
        """Seqlock-validated copy of one buffer's state (or None to retry).

        Returns ``(cls, state)``; ``state`` is None for an empty buffer
        (nothing to merge).  The owner is never blocked: we re-read the
        counter around a deep copy and discard torn attempts.
        """
        for _ in range(_BUFFER_COPY_RETRIES):
            seq = buf.counter
            if seq & 1:
                time.sleep(0)  # owner mid-write: yield and re-check
                continue
            sketch = buf.sketch
            if buf.n == 0 and buf.counter == seq:
                return (type(sketch), None)
            try:
                state = copy.deepcopy(sketch.state_dict())
            except Exception:
                continue  # mutated under the copy; counter check would fail
            if buf.counter == seq:
                return (type(sketch), state)
        return None

    def _snapshot_frozen(self) -> MergeableSketch:
        """Fallback: freeze writer entries and read under the lock.

        Holding the lock excludes propagation and folding; the freeze
        flag makes writers entering their critical section divert to
        :meth:`_reenter` (which waits on the lock), so every buffer
        counter drains to even and stays there.  In-flight updates are
        allowed to finish — the wait below is bounded by one update.
        """
        with self._lock:
            self._freeze = True
            try:
                parts: list[tuple[type, dict]] = []
                for buf in self._all_buffers():
                    while buf.counter & 1:
                        time.sleep(0)
                    if buf.n > 0:
                        parts.append(
                            (type(buf.sketch), copy.deepcopy(buf.sketch.state_dict()))
                        )
                base = self._globals[self._published]
                base_state = copy.deepcopy(base.state_dict())
            finally:
                self._freeze = False
        return self._materialize(type(base), base_state, parts)

    @staticmethod
    def _materialize(
        base_cls: type, base_state: dict, parts: list[tuple[type, dict]]
    ) -> MergeableSketch:
        merged = base_cls.from_state_dict(base_state)
        for cls, state in parts:
            if state is not None:
                merged.merge(cls.from_state_dict(state))
        return merged

    def query(self, fn: Callable[[MergeableSketch], object]) -> object:
        """Apply ``fn`` to a merged snapshot (e.g. ``lambda s: s.estimate()``)."""
        return fn(self.snapshot())

    # -- maintenance -----------------------------------------------------------

    def compact(self) -> None:
        """Retire every live buffer, folding the ones that are safe to fold.

        Call periodically from a maintenance thread to bound buffer
        count when worker threads churn.  Owners discover the tombstone
        inside their next update and re-register; a retired buffer is
        folded as soon as its owner is quiescent (even seqlock counter)
        — idle and parked writers therefore fold immediately instead of
        parking their buffers until thread exit — and stays visible to
        snapshots until folded, so updates racing ``compact`` are never
        dropped.
        """
        with op_span("concurrent.compact") as span, self._lock:
            self.n_compactions += 1
            span.attributes["retired"] = len(self._buffers)
            retired_now = self._buffers
            for buf in retired_now:
                buf.retired = True
            # Publish to the retiring list BEFORE clearing the live
            # list: a lock-free snapshot reading the two lists around
            # this write can then see a buffer twice (it dedupes by
            # identity) but never zero times — items must not vanish
            # from a concurrent snapshot mid-compact.
            self._retiring = self._retiring + retired_now
            self._buffers = []
            self._drain_locked()
            if _OBS.enabled:
                self._registry().counter(
                    "repro_concurrent_compact_total", "compact() invocations."
                ).inc()
                self._publish_gauges_locked()

    # -- introspection ---------------------------------------------------------

    def _registry(self) -> MetricsRegistry:
        registry = self._obs_registry
        return registry if registry is not None else get_registry()

    def _publish_gauges_locked(self) -> None:
        """Push buffer depths (enabled-guarded by callers)."""
        registry = self._registry()
        registry.gauge(
            "repro_concurrent_replicas", "Replica buffer depth.", state="live"
        ).set(len(self._buffers))
        registry.gauge(
            "repro_concurrent_replicas", "Replica buffer depth.", state="retiring"
        ).set(len(self._retiring))

    @property
    def epoch(self) -> int:
        """Completed propagation epochs (global flips) so far.

        The raw counter is a seqlock (odd mid-mutation), so the flip
        count is its top bits; this stays monotone even when read
        mid-flight.
        """
        return self._epoch >> 1

    @property
    def n_replicas(self) -> int:
        """Live (non-retired) thread buffers."""
        with self._lock:
            return len(self._buffers)

    @property
    def n_retiring(self) -> int:
        """Buffers retired by :meth:`compact` awaiting a safe fold."""
        with self._lock:
            return len(self._retiring)

    def stats(self) -> dict[str, int]:
        """Propagation/compaction/drain counts and buffer depths as one dict.

        All fields are read under the same lock acquisition that
        ``compact``/``_drain_locked`` mutate them under, so the dict is
        one consistent snapshot even mid-``compact`` — unlike reading
        :attr:`n_compactions` / :attr:`n_replicas` etc. field-by-field,
        which can tear across a concurrent retire-and-drain.
        """
        with self._lock:
            return {
                "compactions": self.n_compactions,
                "drained": self.n_drained,
                "propagations": self.n_propagations,
                "epoch": self._epoch >> 1,
                "replicas": len(self._buffers),
                "retiring": len(self._retiring),
            }
