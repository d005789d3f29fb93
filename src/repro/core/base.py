"""Abstract sketch interfaces and the class registry.

Two layers of contract:

- :class:`Sketch` — anything updatable with items and serializable;
- :class:`MergeableSketch` — additionally supports in-place ``merge``,
  the property formalized by "Mergeable Summaries" (Agarwal et al.,
  PODS 2012) that the paper highlights as the key enabler of
  distributed deployment.

Subclasses register themselves automatically (via ``__init_subclass__``)
so :func:`from_bytes_any` can revive any sketch from its serialized form
without the caller knowing the concrete class.

The same ``__init_subclass__`` hook threads the :mod:`repro.obs`
instrumentation through every concrete sketch: each class's
``update`` / ``update_many`` / ``merge`` definition is wrapped with a
shim that, when observability is enabled, records op counts, item
counts and wall time into the active metrics registry via
:meth:`Sketch._observe` — subclass kernels inherit the telemetry for
free.  The same shims emit one :mod:`repro.obs.trace` span per
batch-level call (``update_many``/``merge``/``merge_many``/
``to_bytes``/``from_bytes``) when tracing is enabled, nesting under
whatever span the caller has open.  When both subsystems are disabled
(the default) the shim is a single attribute check (the shared
``HOT`` flag), benchmarked at <2% ``update_many`` overhead (A7/A8).
The raw kernel stays reachable as the wrapper's ``__wrapped__``
attribute.
"""

from __future__ import annotations

import functools
import time
import types
from abc import ABC, abstractmethod
from contextlib import nullcontext

from ..obs.registry import HOT as _HOT
from ..obs.registry import STATE as _OBS
from ..obs.registry import get_registry as _get_registry
from ..obs.trace import TRACE as _TRACE
from ..obs.trace import get_tracer as _get_tracer
from .exceptions import DeserializationError, IncompatibleSketchError
from .serde import blob_nbytes, dump_sketch, load_header

__all__ = [
    "Sketch",
    "MergeableSketch",
    "sketch_registry",
    "from_bytes_any",
]

sketch_registry: dict[str, type] = {}


def _instrument(op: str, fn):
    """Wrap one sketch method with the no-op-when-disabled obs shim.

    The disabled path is one attribute load (``HOT.flag``, the union
    of the metrics and tracing switches).  Per-item ``update`` is
    counted but neither timed nor traced (two clock reads per
    nanosecond-scale call would distort the path being measured);
    batch-level ops record wall time into the registry's KLL latency
    histograms and, when tracing is on, emit one nestable span per
    call into the active :class:`~repro.obs.Tracer`.
    """
    if op == "update":

        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            if not _HOT.flag:
                return fn(self, *args, **kwargs)
            result = fn(self, *args, **kwargs)
            if _OBS.enabled:
                self._observe("update", 1)
            return result

    elif op == "update_many":

        @functools.wraps(fn)
        def wrapper(self, items, *args, **kwargs):
            if not _HOT.flag:
                return fn(self, items, *args, **kwargs)
            try:
                n = len(items)
            except TypeError:
                items = list(items)
                n = len(items)
            if _TRACE.enabled:
                with _get_tracer().span(
                    f"{type(self).__name__}.update_many", items=n
                ) as span:
                    result = fn(self, items, *args, **kwargs)
                elapsed = span.duration
            else:
                start = time.perf_counter()
                result = fn(self, items, *args, **kwargs)
                elapsed = time.perf_counter() - start
            if _OBS.enabled:
                self._observe("update_many", n, elapsed)
            return result

    else:  # merge

        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            if not _HOT.flag:
                return fn(self, *args, **kwargs)
            if _TRACE.enabled:
                with _get_tracer().span(f"{type(self).__name__}.{op}") as span:
                    result = fn(self, *args, **kwargs)
                elapsed = span.duration
            else:
                start = time.perf_counter()
                result = fn(self, *args, **kwargs)
                elapsed = time.perf_counter() - start
            if _OBS.enabled:
                self._observe(op, 1, elapsed)
            return result

    wrapper.__obs_instrumented__ = True
    return wrapper


_INSTRUMENTED_OPS = ("update", "update_many", "merge")


class Sketch(ABC):
    """Base interface: update with items, query, serialize."""

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # Register concrete classes only; ABCs stay out of the registry.
        # Note: __init_subclass__ runs before ABCMeta computes the new
        # class's __abstractmethods__, so we resolve abstractness by
        # hand: a name is abstract iff the attribute the class actually
        # resolves to is still marked __isabstractmethod__.
        names = {name for base in cls.__mro__ for name in vars(base)}
        is_abstract = any(
            getattr(getattr(cls, name, None), "__isabstractmethod__", False)
            for name in names
        )
        if not is_abstract:
            sketch_registry[cls.__name__] = cls
        # Thread the obs shim through this class's own kernel
        # definitions (inherited methods were wrapped where defined).
        for op in _INSTRUMENTED_OPS:
            fn = cls.__dict__.get(op)
            if (
                isinstance(fn, types.FunctionType)
                and not getattr(fn, "__isabstractmethod__", False)
                and not getattr(fn, "__obs_instrumented__", False)
            ):
                setattr(cls, op, _instrument(op, fn))

    @abstractmethod
    def update(self, item: object) -> None:
        """Process one input item."""

    def update_many(self, items) -> None:
        """Process an iterable of items (override for vectorized paths)."""
        for item in items:
            self.update(item)

    @classmethod
    def update_grouped(cls, sketches: list, items, bounds) -> None:
        """GROUP BY batch update: ``sketches[i]`` takes ``items[bounds[i]:bounds[i + 1]]``.

        Dispatches on the first sketch's class, like :meth:`MergeableSketch.merge_many`.
        The default runs each sketch's own ``update_many`` on its slice (so
        also non-:class:`Sketch` objects that have one); a family kernel
        overriding :meth:`_update_grouped_impl` counts as one ``update_many``
        op over all the items, traced as one ``<Class>.update_grouped`` span.
        """
        first = sketches[0]
        kernel = getattr(type(first), "_update_grouped_impl", Sketch._update_grouped_impl)
        if not _HOT.flag or kernel.__func__ is Sketch._update_grouped_impl.__func__:
            kernel(sketches, items, bounds)
            return
        n, ctx = len(items), nullcontext()
        if _TRACE.enabled:
            name = f"{type(first).__name__}.update_grouped"
            ctx = _get_tracer().span(name, items=n, groups=len(sketches))
        start = time.perf_counter()
        with ctx:
            kernel(sketches, items, bounds)
        if _OBS.enabled:
            first._observe("update_many", n, time.perf_counter() - start)

    @classmethod
    def _update_grouped_impl(cls, sketches: list, items, bounds) -> None:
        """Kernel behind :meth:`update_grouped` (override me): per-slice ``update_many``."""
        for sketch, lo, hi in zip(sketches, bounds, bounds[1:]):
            sketch.update_many(items[lo:hi])

    @abstractmethod
    def state_dict(self) -> dict:
        """Return the complete serializable state of the sketch."""

    @classmethod
    @abstractmethod
    def from_state_dict(cls, state: dict) -> "Sketch":
        """Rebuild a sketch from :meth:`state_dict` output."""

    def _observe(
        self,
        op: str,
        items: int = 0,
        seconds: float | None = None,
        nbytes: int | None = None,
    ) -> None:
        """Record one operation into this sketch's metrics registry.

        The sink is the injected per-component registry when one was
        bound (:func:`repro.obs.bind_registry`), else the process-global
        default.  Callers guard on ``repro.obs`` being enabled.
        """
        registry = getattr(self, "_obs_registry", None)
        if registry is None:
            registry = _get_registry()
        registry.observe_sketch_op(type(self).__name__, op, items, seconds, nbytes)

    def _count_error(self, kind: str) -> None:
        """Increment an error counter (enabled-guarded by callers)."""
        registry = getattr(self, "_obs_registry", None)
        if registry is None:
            registry = _get_registry()
        registry.count_error(kind, type(self).__name__)

    def memory_footprint(self) -> int:
        """Resident state size of this sketch, in bytes.

        The number a capacity plan or a ``repro_sketch_state_bytes``
        gauge should report: the sketch's *state payload* — register
        files, counter tables, retained samples, RNG state — excluding
        Python object overhead, and therefore within a small constant
        of ``len(self.to_bytes())`` (the unit tests hold every family
        to 2x).  The base implementation prices the serialized form
        exactly, without serializing (``blob_nbytes`` walks the state
        dict and charges ndarrays off their live buffers); array-backed
        families override it with O(1) arithmetic on their live state
        so a metrics scrape never materializes a state dict.
        """
        return blob_nbytes(type(self).__name__, self.state_dict())

    def to_bytes(self) -> bytes:
        """Serialize to the versioned binary wire format."""
        if not _HOT.flag:
            return dump_sketch(type(self).__name__, self.state_dict())
        name = type(self).__name__
        if _TRACE.enabled:
            with _get_tracer().span(f"{name}.to_bytes") as span:
                blob = dump_sketch(name, self.state_dict())
                span.attributes["nbytes"] = len(blob)
            elapsed = span.duration
        else:
            start = time.perf_counter()
            blob = dump_sketch(name, self.state_dict())
            elapsed = time.perf_counter() - start
        if _OBS.enabled:
            self._observe("to_bytes", 1, elapsed, nbytes=len(blob))
        return blob

    @classmethod
    def from_bytes(cls, data: bytes) -> "Sketch":
        """Deserialize a sketch of exactly this class."""
        start = time.perf_counter() if _HOT.flag else 0.0
        ctx = (
            _get_tracer().span(f"{cls.__name__}.from_bytes", nbytes=len(data))
            if _TRACE.enabled
            else nullcontext()
        )
        try:
            with ctx:
                class_name, state = load_header(data)
                if class_name != cls.__name__:
                    raise DeserializationError(
                        f"blob contains a {class_name}, not a {cls.__name__}; "
                        "use repro.from_bytes_any for polymorphic loading"
                    )
                sketch = _revive(cls, state)
        except DeserializationError:
            if _OBS.enabled:
                _get_registry().count_error("deserialization", cls.__name__)
            raise
        if _OBS.enabled:
            sketch._observe(
                "from_bytes", 1, time.perf_counter() - start, nbytes=len(data)
            )
        return sketch


class MergeableSketch(Sketch):
    """A sketch supporting the mergeable-summaries contract.

    ``a.merge(b)`` must leave ``a`` equivalent (exactly, or in
    distribution for randomized sketches) to a sketch built over the
    concatenation of both inputs.  Implementations must call
    :meth:`_check_mergeable` first.

    The k-way form is :meth:`merge_many`: given ``k`` compatible
    sketches it returns a **new** sketch equivalent to folding them all
    together.  The base implementation is the pairwise left fold;
    families override :meth:`_merge_many_impl` with a single vectorized
    reduction (e.g. one ``np.maximum.reduce`` over stacked HLL register
    files instead of ``k − 1`` pairwise maxima).  Exactness classes:

    - register/linear/bit sketches (HLL, LogLog, Count-Min, Count
      Sketch, AMS, Bloom, counting Bloom, KMV) — bitwise identical to
      the pairwise fold for any ``k`` and any grouping;
    - counter summaries (SpaceSaving, Misra–Gries) — a single combined
      counter pass; identical to the fold while every part is under
      capacity, otherwise it trims once instead of ``k − 1`` times and
      never loosens the family's error guarantee;
    - randomized compactors (KLL, REQ) — one concat-then-compress per
      level; equal to the fold in distribution (deterministic given the
      inputs' seeds), not bitwise;
    - samplers — the weighted reservoir merges by deterministic key
      competition, so one pooled top-k selection is bitwise identical
      to the fold; the uniform reservoir redraws each output slot
      across all parts in one pass, equal to the fold in distribution
      only (deterministic given the inputs' states).
    """

    @abstractmethod
    def merge(self, other: "MergeableSketch") -> None:
        """Fold ``other`` into ``self`` in place."""

    @classmethod
    def merge_many(cls, sketches) -> "MergeableSketch":
        """k-way merge: a new sketch equivalent to merging all inputs.

        Dispatches on the concrete class of the first sketch, so
        ``MergeableSketch.merge_many(parts)`` and
        ``ConcreteClass.merge_many(parts)`` are interchangeable.  The
        input sketches are never mutated.  Raises ``ValueError`` on an
        empty list and ``IncompatibleSketchError`` on mixed classes or
        mismatched parameters.
        """
        parts = list(sketches)
        if not parts:
            raise ValueError("merge_many requires at least one sketch")
        first = parts[0]
        if not isinstance(first, cls):
            raise IncompatibleSketchError(
                f"cannot merge_many {type(first).__name__} via {cls.__name__}"
            )
        if not _HOT.flag:
            return type(first)._merge_many_impl(parts)
        if _TRACE.enabled:
            with _get_tracer().span(
                f"{type(first).__name__}.merge_many", parts=len(parts)
            ) as span:
                merged = type(first)._merge_many_impl(parts)
            elapsed = span.duration
        else:
            start = time.perf_counter()
            merged = type(first)._merge_many_impl(parts)
            elapsed = time.perf_counter() - start
        if _OBS.enabled:
            merged._observe("merge_many", len(parts), elapsed)
        return merged

    @classmethod
    def _merge_many_impl(cls, parts: list) -> "MergeableSketch":
        """Reduction kernel behind :meth:`merge_many` (override me).

        The default is the pairwise left fold over a clone of the first
        part.  Overrides may assume ``parts`` is a non-empty list whose
        first element is an instance of ``cls``; they must validate the
        remaining parts (``_check_mergeable``) and leave every input
        untouched.
        """
        merged = cls.from_state_dict(parts[0].state_dict())
        for other in parts[1:]:
            merged.merge(other)
        return merged

    def _check_mergeable(self, other: object, *fields: str) -> None:
        """Raise unless ``other`` has this type and equal named fields."""
        if type(other) is not type(self):
            if _OBS.enabled:
                self._count_error("merge_incompatible")
            raise IncompatibleSketchError(
                f"cannot merge {type(other).__name__} into {type(self).__name__}"
            )
        for field in fields:
            mine = getattr(self, field)
            theirs = getattr(other, field)
            if mine != theirs:
                if _OBS.enabled:
                    self._count_error("merge_incompatible")
                raise IncompatibleSketchError(
                    f"cannot merge {type(self).__name__}: parameter {field!r} "
                    f"differs ({mine!r} != {theirs!r})"
                )

    def __or__(self, other: "MergeableSketch") -> "MergeableSketch":
        """Non-destructive merge: returns a new sketch ``self ∪ other``."""
        merged = type(self).from_state_dict(self.state_dict())
        merged.merge(other)
        return merged


# The base classes' own concrete methods don't pass through
# __init_subclass__; wrap the default update_many loop here so classes
# that rely on it (no vectorized kernel) are still observable.
Sketch.update_many = _instrument("update_many", Sketch.update_many)


def _revive(cls: type, state: dict) -> Sketch:
    """Run ``from_state_dict`` mapping corruption to ``DeserializationError``.

    The typed decoder guarantees well-formed *values*, but a bit flip
    inside a key string or a parameter still decodes cleanly and only
    blows up inside the sketch's own ``from_state_dict`` (``KeyError``
    on a mangled key, ``ValueError`` from constructor validation).
    Deserializing untrusted bytes must present a single failure type.
    """
    try:
        return cls.from_state_dict(state)
    except DeserializationError:
        raise
    except Exception as exc:
        raise DeserializationError(
            f"corrupt {cls.__name__} state: {type(exc).__name__}: {exc}"
        ) from exc


def from_bytes_any(data: bytes) -> Sketch:
    """Deserialize any registered sketch, dispatching on the header."""
    start = time.perf_counter() if _HOT.flag else 0.0
    ctx = (
        _get_tracer().span("from_bytes_any", nbytes=len(data))
        if _TRACE.enabled
        else nullcontext()
    )
    try:
        with ctx:
            class_name, state = load_header(data)
            cls = sketch_registry.get(class_name)
            if cls is None:
                raise DeserializationError(f"unknown sketch class {class_name!r}")
            sketch = _revive(cls, state)
    except DeserializationError:
        if _OBS.enabled:
            _get_registry().count_error("deserialization", "any")
        raise
    if _OBS.enabled:
        sketch._observe("from_bytes", 1, time.perf_counter() - start, nbytes=len(data))
    return sketch
