"""Opt-in graceful-shutdown flush for recorders, alert engines, compactors and stores.

A :class:`~repro.obs.TimelineRecorder` flushes its open window on
``stop()`` and a :class:`~repro.store.SketchStore` seals its active
segment on ``close()`` — but neither registers any exit hook, so on a
clean interpreter exit the open window and the active segment tail
are simply lost (daemon threads are killed, buffered frames never
sealed).  :func:`install_shutdown_hook` closes that gap with one
:mod:`atexit` hook, *opt-in* because a library must not hijack
process teardown by default::

    recorder = TimelineRecorder(interval=1.0).start()
    recorder.attach_store(store)
    engine = AlertEngine(recorder, rules=[...]).start()
    compactor = Compactor(store, ttl=86400).start()
    install_shutdown_hook(recorder, engine, compactor)   # store sealed implicitly

On exit the hook stops alert engines first (no evaluations against a
stopping recorder), then recorders (flushing the open window through
to the store), then compactors (``stop()`` waits up to 5 s for a pass,
so a clean exit never cuts one between writing the coarse segment and
removing the fine ones), then closes stores (sealing the active
segment).  A registered recorder's or compactor's store is closed
without being passed.  ``atexit`` runs the hook after non-daemon
threads join but while the daemon tickers (:mod:`repro.obs.ticker`)
are still joinable, which is exactly the window ``stop()`` needs.

The hook is idempotent (objects deduplicate on identity, a second
``install`` extends the same registration) and tolerant: one
component failing to stop never blocks the rest of teardown.
:func:`uninstall_shutdown_hook` unregisters everything — tests use it
to keep hooks from leaking across cases.
"""

from __future__ import annotations

import atexit
import threading

__all__ = ["install_shutdown_hook", "uninstall_shutdown_hook"]

_lock = threading.Lock()
#: registered (kind, object) pairs, in registration order.
_registered: list[tuple[str, object]] = []
_installed = False


def _kind_of(obj: object) -> str:
    """Classify by capability, not class, so fakes/wrappers register too."""
    for kind, method in (("engine", "evaluate"), ("recorder", "tick"), ("compactor", "run_once")):
        if hasattr(obj, method) and hasattr(obj, "stop"):
            return kind
    if hasattr(obj, "seal_active") or hasattr(obj, "close"):
        return "store"
    raise TypeError(
        f"cannot shut down {type(obj).__name__!r}: expected an AlertEngine, TimelineRecorder, "
        "Compactor or SketchStore (evaluate/tick/run_once + stop, or close protocols)"
    )


def _flush_all() -> None:
    """The atexit hook: engines, then recorders, then compactors, then stores."""
    with _lock:
        items = list(_registered)
        _registered.clear()
    order = {"engine": 0, "recorder": 1, "compactor": 2, "store": 3}
    items += [("store", obj.store) for kind, obj in items
              if kind != "store" and getattr(obj, "store", None) is not None]
    seen: set[int] = set()
    for kind, obj in sorted(items, key=lambda item: order[item[0]]):
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        try:
            if kind == "store":
                obj.close()
            else:
                obj.stop()
        except Exception:
            # Teardown must reach every component; a raising stop()
            # (already-closed store, dead thread) cannot block the rest.
            pass


def install_shutdown_hook(*components: object) -> None:
    """Flush ``components`` on interpreter exit (idempotent, additive).

    Accepts any mix of alert engines, timeline recorders, compactors
    and sketch stores; repeat calls extend one shared registration.
    Order does not matter — teardown always runs engines → recorders →
    compactors → stores, and a registered recorder's or compactor's
    store is sealed without being passed explicitly.
    """
    global _installed
    with _lock:
        known = {id(obj) for _, obj in _registered}
        for obj in components:
            kind = _kind_of(obj)
            if id(obj) not in known:
                _registered.append((kind, obj))
                known.add(id(obj))
        if not _installed:
            atexit.register(_flush_all)
            _installed = True


def uninstall_shutdown_hook() -> None:
    """Drop every registration (the atexit entry stays, but is a no-op)."""
    with _lock:
        _registered.clear()
