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
free.  Every batch-level op (``update_many``/``merge``/``merge_many``/
``update_grouped``/``to_bytes``/``from_bytes``/:func:`from_bytes_any`)
runs its body once, inside :func:`repro.obs.trace.op_span`: a span
nesting under whatever span the caller has open when tracing is on, a
plain timer otherwise, whose ``duration`` is what the registry
records.  When both subsystems are disabled (the default) each op
first checks a single attribute (the shared ``HOT`` flag) and runs
bare, benchmarked at <2% ``update_many`` overhead (A7/A8).  The raw
kernel stays reachable as the wrapper's ``__wrapped__`` attribute.
"""

from __future__ import annotations

import copy
import functools
import types
from abc import ABC, abstractmethod

import numpy as np

from ..obs.registry import HOT as _HOT
from ..obs.registry import STATE as _OBS
from ..obs.registry import get_registry as _get_registry
from ..obs.trace import op_span
from .batch import group_slices
from .exceptions import DeserializationError, IncompatibleSketchError
from .serde import LAYOUTS, blob_nbytes, dump_sketch, load_header

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
    batch-level ops run inside :func:`~repro.obs.trace.op_span` and
    record its duration into the registry's KLL latency histograms.
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
            with op_span(f"{type(self).__name__}.update_many", items=n) as span:
                result = fn(self, items, *args, **kwargs)
            if _OBS.enabled:
                self._observe("update_many", n, span.duration)
            return result

    else:  # merge

        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            if not _HOT.flag:
                return fn(self, *args, **kwargs)
            with op_span(f"{type(self).__name__}.{op}") as span:
                result = fn(self, *args, **kwargs)
            if _OBS.enabled:
                self._observe(op, 1, span.duration)
            return result

    wrapper.__obs_instrumented__ = True
    return wrapper


_INSTRUMENTED_OPS = ("update", "update_many", "merge")


def _copy_attrs(sketch) -> dict:
    """A deep copy of ``sketch``'s attributes; a bound metrics registry stays shared."""
    attrs = vars(sketch)
    registry = attrs.get("_obs_registry")
    return copy.deepcopy(attrs, {id(registry): registry})


class Sketch(ABC):
    """Base interface: update with items, query, serialize."""

    #: the family's fixed wire layout (:class:`repro.core.serde.Layout`),
    #: taken only from the class body that declares it.
    wire_layout = None

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
        # A fixed wire layout belongs to the class that declares it in
        # its own body; subclasses (HLL++ under HLL) stay generic.
        layout = cls.__dict__.get("wire_layout")
        if layout is not None:
            LAYOUTS[cls.__name__] = layout
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

    #: how ``update_many`` reads a batch, or None: a function of a list
    #: of items that raises what ``update_many`` would raise for them and
    #: returns a batch it then takes, with the same effect, without
    #: raising (:class:`~repro.core.batch.KeyedBatch`,
    #: :func:`~repro.core.batch.float_batch`, ...).
    batch_form = None

    @abstractmethod
    def update(self, item: object) -> None:
        """Process one input item."""

    def update_many(self, items) -> None:
        """Process an iterable of items (override for vectorized paths)."""
        for item in items:
            self.update(item)

    @classmethod
    def update_grouped(cls, sketches: list, items, gids) -> None:
        """GROUP BY batch update: ``sketches[gids[i]]`` takes ``items[i]``.

        ``items`` is one batch in stream order and ``gids`` an integer
        array of the same length indexing ``sketches``.  Each sketch ends
        as its ``update_many`` over its own items, in stream order, would
        leave it; a sketch given no items is untouched.  If an update
        raises, no :class:`Sketch` is left changed.  Dispatches on the
        first sketch's class, like :meth:`MergeableSketch.merge_many`.  The
        default regroups the items and runs each sketch's own
        ``update_many`` (so also non-:class:`Sketch` objects that have
        one); a family kernel overriding :meth:`_update_grouped_impl`
        counts as one ``update_many`` op over all the items, traced as one
        ``<Class>.update_grouped`` span.  Raises ``ValueError`` before any
        update when ``gids`` does not index ``sketches`` item by item.
        """
        gids = np.asarray(gids)
        if gids.shape != (len(items),) or not np.can_cast(gids.dtype, np.intp):
            raise ValueError(
                f"gids must be {len(items)} integers, got {gids.dtype} {gids.shape}"
            )
        if len(gids) and (int(gids.min()) < 0 or int(gids.max()) >= len(sketches)):
            raise ValueError(f"gids must lie in [0, {len(sketches)})")
        first = sketches[0]
        kernel = getattr(type(first), "_update_grouped_impl", Sketch._update_grouped_impl)
        if not _HOT.flag or kernel.__func__ is Sketch._update_grouped_impl.__func__:
            kernel(sketches, items, gids)
            return
        name, n = f"{type(first).__name__}.update_grouped", len(items)
        with op_span(name, items=n, groups=len(sketches)) as span:
            kernel(sketches, items, gids)
        if _OBS.enabled:
            first._observe("update_many", n, span.duration)

    @classmethod
    def _update_grouped_impl(cls, sketches: list, items, gids) -> None:
        """Kernel behind :meth:`update_grouped` (override me): per-group ``update_many``.

        The one place that regroups records: a stable sort of ``gids``
        reorders the items (each group keeps its stream order, which
        order-dependent families need), and every sketch given items
        runs ``update_many`` on its slice.  All or nothing: a family with
        a :attr:`batch_form` has the whole batch checked by it before any
        update; otherwise each :class:`Sketch` given items has its
        attributes copied first and restored if an update raises.
        """
        order, slices = group_slices(gids, len(sketches))
        ordered = np.fromiter(items, dtype=object, count=len(items))[order].tolist()
        form = getattr(type(sketches[0]), "batch_form", None)
        if form is not None:
            ordered = form(ordered)
        work = [(sk, ordered[lo:hi]) for sk, (lo, hi) in zip(sketches, slices) if hi > lo]
        saved = [] if form is not None else [
            (sk, _copy_attrs(sk)) for sk, _ in work if isinstance(sk, Sketch)
        ]
        try:
            for sketch, part in work:
                sketch.update_many(part)
        except BaseException:
            for sketch, attrs in saved:
                vars(sketch).clear()
                vars(sketch).update(attrs)
            raise

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
        name = type(self).__name__
        if not _HOT.flag:
            return dump_sketch(name, self.state_dict())
        with op_span(f"{name}.to_bytes") as span:
            blob = dump_sketch(name, self.state_dict())
            span.attributes["nbytes"] = len(blob)
        if _OBS.enabled:
            self._observe("to_bytes", 1, span.duration, nbytes=len(blob))
        return blob

    @classmethod
    def from_bytes(cls, data: bytes) -> "Sketch":
        """Deserialize a sketch of exactly this class."""
        return _load(data, cls)


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
        with op_span(f"{type(first).__name__}.merge_many", parts=len(parts)) as span:
            merged = type(first)._merge_many_impl(parts)
        if _OBS.enabled:
            merged._observe("merge_many", len(parts), span.duration)
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


def _decode(data: bytes, cls: type | None) -> Sketch:
    """Revive ``data`` as ``cls``, or (None) as the class its header names."""
    class_name, state = load_header(data)
    if cls is None:
        cls = sketch_registry.get(class_name)
        if cls is None:
            raise DeserializationError(f"unknown sketch class {class_name!r}")
    elif class_name != cls.__name__:
        raise DeserializationError(
            f"blob contains a {class_name}, not a {cls.__name__}; "
            "use repro.from_bytes_any for polymorphic loading"
        )
    return _revive(cls, state)


def _load(data: bytes, cls: type | None) -> Sketch:
    """The observed deserialization behind ``from_bytes``/:func:`from_bytes_any`.

    Traced as ``<Class>.from_bytes`` (``from_bytes_any`` when ``cls`` is
    None), counted as a ``from_bytes`` op of the revived class, and a
    :class:`DeserializationError` counted under ``cls``'s name (``any``).
    """
    if not _HOT.flag:
        return _decode(data, cls)
    name = "from_bytes_any" if cls is None else f"{cls.__name__}.from_bytes"
    try:
        with op_span(name, nbytes=len(data)) as span:
            sketch = _decode(data, cls)
    except DeserializationError:
        if _OBS.enabled:
            label = "any" if cls is None else cls.__name__
            _get_registry().count_error("deserialization", label)
        raise
    if _OBS.enabled:
        sketch._observe("from_bytes", 1, span.duration, nbytes=len(data))
    return sketch


def from_bytes_any(data: bytes) -> Sketch:
    """Deserialize any registered sketch, dispatching on the header."""
    return _load(data, None)
