"""GROUP BY sketch aggregation.

The paper's hook (§3): *"the need was often not to build one sketch,
but to maintain huge numbers of sketches in parallel (i.e., to support
GROUP BY aggregate queries over many groups)"* — the Gigascope/CMON
workload.

:class:`GroupBySketcher` maintains one sketch per group key, created on
demand from a factory.  Memory is #groups × sketch size — bounded and
predictable, versus #groups × #distinct-values for exact GROUP BY
(experiment E9 measures that gap).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from typing import Any

import numpy as np

from ..core import MergeableSketch, Sketch

__all__ = ["GroupBySketcher"]


class GroupBySketcher:
    """One sketch per group, updated from records.

    Parameters
    ----------
    group_fn:
        Record → group key.
    sketch_factory:
        () → fresh sketch for a new group.  For mergeable results across
        shards the factory must produce identically-parameterized
        sketches (same seeds).
    update_fn:
        (sketch, record) → None.  Defaults to ``sketch.update(record)``.
    """

    def __init__(
        self,
        group_fn: Callable[[Any], Any],
        sketch_factory: Callable[[], Any],
        update_fn: Callable[[Any, Any], None] | None = None,
    ) -> None:
        self.group_fn = group_fn
        self.sketch_factory = sketch_factory
        self._default_update = update_fn is None
        self.update_fn = update_fn or (lambda sketch, record: sketch.update(record))
        self._groups: dict[Any, Any] = {}
        self.n_records = 0

    def process(self, record: Any) -> None:
        """Route one record to its group's sketch."""
        key = self.group_fn(record)
        sketch = self._groups.get(key)
        if sketch is None:
            sketch = self.sketch_factory()
            self._groups[key] = sketch
        self.update_fn(sketch, record)
        self.n_records += 1

    def process_many(self, records: list) -> None:
        """Batched dispatch: group ids for the batch, then one grouped update.

        With the default update function, records map to group ids in
        first-appearance order (new sketches are created in that order),
        and one :meth:`~repro.core.Sketch.update_grouped` call takes the
        records in stream order plus their group ids; no records are
        reordered here.  Each group ends as per-record :meth:`process`
        would leave it.  A batch that raises changes nothing: no group is
        created and no sketch is updated.  Custom update functions take
        the per-record path.
        """
        if not self._default_update:
            for record in records:
                self.process(record)
            return
        if not len(records):
            return
        group_keys = list(map(self.group_fn, records))
        ids = {key: gid for gid, key in enumerate(dict.fromkeys(group_keys))}
        # The narrowest unsigned dtype lets the kernels' stable sort use radix sort.
        gids = np.fromiter(
            map(ids.__getitem__, group_keys),
            dtype=np.min_scalar_type(len(ids)),
            count=len(group_keys),
        )
        sketches, created = [], {}
        for key in ids:
            sketch = self._groups.get(key)
            if sketch is None:
                sketch = created[key] = self.sketch_factory()
            sketches.append(sketch)
        Sketch.update_grouped(sketches, records, gids)
        self._groups.update(created)
        self.n_records += len(records)

    def get(self, key: Any) -> Any | None:
        """The sketch for ``key``, or None."""
        return self._groups.get(key)

    def __getitem__(self, key: Any) -> Any:
        return self._groups[key]

    def __contains__(self, key: Any) -> bool:
        return key in self._groups

    def __len__(self) -> int:
        return len(self._groups)

    def keys(self) -> list[Any]:
        """All group keys."""
        return list(self._groups)

    def items(self) -> list[tuple[Any, Any]]:
        """(group, sketch) pairs."""
        return list(self._groups.items())

    def query(self, fn: Callable[[Any], Any]) -> dict[Any, Any]:
        """Apply ``fn`` to every group's sketch: {group: fn(sketch)}."""
        return {key: fn(sketch) for key, sketch in self._groups.items()}

    def top_groups(
        self, fn: Callable[[Any], float], limit: int = 10
    ) -> list[tuple[Any, float]]:
        """Groups ranked descending by ``fn(sketch)``."""
        scored = [(key, float(fn(sketch))) for key, sketch in self._groups.items()]
        scored.sort(key=lambda ks: -ks[1])
        return scored[:limit]

    def flush_to_store(
        self,
        store,
        metric: str,
        start: float,
        end: float,
        group_label: str = "group",
        labels: dict[str, str] | None = None,
        reset: bool = True,
    ) -> int:
        """Persist the current per-group sketches as one store window.

        Each group lands in ``store`` (a
        :class:`~repro.store.SketchStore`) as a ``metric`` series whose
        labels are ``{**labels, group_label: str(group_key)}`` — so
        ``store.query(metric, group_by=group_label)`` later recovers
        the per-group aggregates, and a plain range query folds the
        groups back together.  With ``reset`` (the default) the
        aggregator starts a fresh window afterwards: the persisted
        sketches become *window partials*, and successive flushes tile
        the stream into mergeable time slices (``n_records`` stays
        cumulative).  Returns the number of groups written.
        """
        base = dict(labels or {})
        series = [
            {
                "name": metric,
                "labels": {**base, group_label: str(key)},
                "kind": "sketch",
                "sketch": sketch,
            }
            for key, sketch in sorted(self._groups.items(), key=lambda kv: str(kv[0]))
        ]
        if series:
            store.append(start, end, series)
            store.flush()
        if reset:
            self._groups = {}
        return len(series)

    def merge(self, other: "GroupBySketcher") -> None:
        """Merge another sharded aggregator (group-wise sketch merge)."""
        for key, sketch in other._groups.items():
            mine = self._groups.get(key)
            if mine is None:
                self._groups[key] = sketch
            else:
                mine.merge(sketch)
        self.n_records += other.n_records

    @staticmethod
    def combine(sketchers: Iterable["GroupBySketcher"]) -> "GroupBySketcher":
        """Collapse sharded aggregators into one via per-group ``merge_many``.

        Gathers every shard's sketch for each group key, then reduces
        each group's partials with one k-way
        :meth:`~repro.core.MergeableSketch.merge_many` call instead of
        pairwise folds — the GROUP BY instance of the shard/reduce
        architecture.  The combined sketcher adopts shard sketches
        (same ownership semantics as :meth:`merge`): single-shard
        groups share their sketch with the input, and non-``merge_many``
        sketches fold pairwise into the first shard's copy.
        """
        shards = list(sketchers)
        if not shards:
            raise ValueError("combine requires at least one GroupBySketcher")
        first = shards[0]
        result = GroupBySketcher(
            first.group_fn,
            first.sketch_factory,
            None if first._default_update else first.update_fn,
        )
        per_key: dict[Any, list] = {}
        for gb in shards:
            for key, sketch in gb._groups.items():
                per_key.setdefault(key, []).append(sketch)
        for key, parts in per_key.items():
            if len(parts) == 1:
                result._groups[key] = parts[0]
            elif isinstance(parts[0], MergeableSketch):
                result._groups[key] = type(parts[0]).merge_many(parts)
            else:
                merged = parts[0]
                for other in parts[1:]:
                    merged.merge(other)
                result._groups[key] = merged
        result.n_records = sum(gb.n_records for gb in shards)
        return result
