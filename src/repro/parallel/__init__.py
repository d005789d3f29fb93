"""Parallel sketch building: shard → build partials → k-way merge.

Mergeability (Agarwal et al., PODS 2012) is the property the paper
credits for every distributed sketch deployment it surveys, and this
package is that architecture in-process: cut a stream into shards
(:func:`partition_items`), fan each shard out to a worker that builds a
partial sketch through the vectorized ``update_many`` batch kernels,
then collapse the partials with **one** k-way reduction instead of
``k − 1`` pairwise merges.

k-way merge protocol
--------------------

- ``Class.merge_many(sketches)`` (on every
  :class:`~repro.core.MergeableSketch`) returns a **new** sketch
  equivalent to folding all inputs pairwise; the inputs are never
  mutated.  It raises ``ValueError`` on an empty list and
  ``IncompatibleSketchError`` on mixed classes or mismatched
  parameters/seeds.
- The base implementation is the pairwise left fold; families override
  the ``_merge_many_impl`` kernel with a single vectorized reduction
  (e.g. one ``np.maximum.reduce`` over stacked HLL register files, one
  pooled top-k selection for KMV and the weighted reservoir, one
  combined counter pass for SpaceSaving/Misra–Gries).
- Exactness classes: register/linear/bit families are **bitwise
  identical** to the fold for any ``k``; counter summaries are
  identical under capacity and never loosen their error bound beyond
  it; randomized compactors (KLL, REQ) and the uniform reservoir are
  **distribution-equal** (deterministic given the inputs' states, but
  they consume the RNG differently from a cascade).
  ``scripts/check_merge_parity.py`` and
  ``tests/core/test_merge_many.py`` enforce all three classes.

Fan-out/reduce pipeline
-----------------------

:func:`parallel_build` (and its accumulating wrapper
:class:`ShardedBuilder`) runs the full shard → build → reduce path.
Backends: ``"process"`` (the serde wire path: workers return partials
through the versioned ``to_bytes`` format — exactly what a multi-node
aggregation tier would put on the network — on one warm pool that
outlives each build), ``"thread"`` (cheap, shares memory),
``"serial"`` (same code path, no pool), and ``"auto"``, which picks
``serial`` for one worker, ``thread`` for small inputs or an
unpicklable factory (warning once per process per reason), and
``process`` otherwise.
Streaming integration:
``StreamPipeline.feed_parallel`` shards a record batch through the
pipeline's transform chain, and ``GroupBySketcher.combine`` reduces a
list of per-worker group-by maps with one ``merge_many`` per group.

Telemetry: every build assembles a :class:`~repro.obs.BuildReport`
(one :class:`~repro.obs.ShardSpan` per shard — worker pid, item count,
build/serde durations, wire bytes).  Get it with
``parallel_build(..., return_report=True)`` or
``ShardedBuilder.last_report``; with :mod:`repro.obs` enabled the same
spans also land in the metrics registry.
"""

from ..obs.report import BuildReport, ShardSpan
from .sharded import ShardedBuilder, SketchSpec, parallel_build, partition_items

__all__ = [
    "BuildReport",
    "ShardSpan",
    "ShardedBuilder",
    "SketchSpec",
    "parallel_build",
    "partition_items",
]
