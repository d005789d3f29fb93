"""Compactor-stack state pinned to recorded blob digests.

``KLLSketch`` and ``ReqSketch`` compact with one shared loop that stops
at the first level it leaves under capacity, unless the last pass grew
the stack or the levels were assigned outright (``merge``,
``merge_many``, ``from_bytes``), and their coins come from a buffered
splitmix64 stream.  None of that may change one bit of any state: each
seeded stream below mixes scalar ``update`` with ``update_many`` of
random batch sizes (lists and arrays), ``merge`` of multi-level
sketches, ``merge_many`` folds and ``from_bytes`` reloads, some of them
from a state whose levels sit at or over their capacity, and hashes the
blob after every step.  ``tests/fixtures/compaction_digests_v1.json``
holds the digests the list-walking implementation (a full rescan of
every level on every pass, one scalar coin per compaction) produced for
the same streams.

Regenerate only for an intended format change::

    PYTHONPATH=src python -m tests.quantiles.test_compaction_parity
"""

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from repro.quantiles import KLLSketch, ReqSketch

FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "compaction_digests_v1.json"

CLASSES = {"kll": KLLSketch, "req": ReqSketch}
#: (family, k, seed, rounds, n): each round grows a fresh sketch to ``n``
STREAMS = [
    (name, k, seed, rounds, n)
    for name in CLASSES
    for k, seeds, rounds, n in ((8, (0, 1, 2), 8, 20_000), (12, (0, 1, 2), 6, 30_000),
                                (50, (0, 1), 4, 60_000), (200, (0, 1), 3, 420_000))
    for seed in seeds
]


def capacities(sketch) -> list:
    """Each level's capacity at the sketch's current height."""
    height = len(sketch._compactors) - 1
    if isinstance(sketch, ReqSketch):
        return [sketch.k] * (height + 1)
    return [max(2, int(sketch.k * (2.0 / 3.0) ** (height - level)))
            for level in range(height + 1)]


def over_capacity(sketch) -> bool:
    """Whether some level holds at least its capacity (the next pass compacts it)."""
    return any(len(buf) >= cap for buf, cap in zip(sketch._compactors, capacities(sketch)))


def run_stream(name, k, seed, rounds, n):
    """``(sha256 over the blob after every step, coverage counts)`` of one stream."""
    cls = CLASSES[name]
    rng = np.random.default_rng([seed, k, len(name)])
    seeds = itertools.count(seed * 1000)
    digest = hashlib.sha256()
    stats = dict.fromkeys(("steps", "merges", "folds", "reloads", "over_capacity",
                           "reloads_over_capacity", "levels"), 0)

    def part(most):
        sketch = cls(k=k, seed=next(seeds))
        sketch.update_many(rng.lognormal(size=int(rng.uniform(0.05, 1.0) * most) + 1))
        return sketch

    for _ in range(rounds):
        sketch = cls(k=k, seed=next(seeds))
        while sketch.n < n:
            # parts up to the sketch's size, so a merge or fold can grow the stack
            most = min(sketch.n + 4 * k, n // 8)
            step = int(rng.integers(0, 12))
            if step < 5:
                values = rng.normal(size=int(rng.integers(1, 4 * k + 100)))
                sketch.update_many(values if step % 2 else values.tolist())
            elif step < 8:
                for value in rng.exponential(size=int(rng.integers(1, 3 * k))):
                    sketch.update(value)
            elif step < 10:
                sketch.merge(part(most))
                stats["merges"] += 1
            elif step == 10:
                parts = [part(most // 4) for _ in range(int(rng.integers(1, 24)))]
                sketch = cls.merge_many([sketch] + parts)
                stats["folds"] += 1
            over = over_capacity(sketch)
            stats["over_capacity"] += over
            if step == 11 or (over and rng.random() < 0.5):
                stats["reloads_over_capacity"] += over
                sketch = cls.from_bytes(sketch.to_bytes())
                stats["reloads"] += 1
            digest.update(sketch.to_bytes())
            stats["steps"] += 1
        stats["levels"] = max(stats["levels"], len(sketch._compactors))
    return digest.hexdigest(), stats


def stream_id(stream):
    name, k, seed, _, _ = stream
    return f"{name}-k{k}-s{seed}"


@pytest.fixture(scope="module")
def recorded():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("stream", STREAMS, ids=stream_id)
def test_blobs_match_the_recorded_digests(stream, recorded):
    digest, stats = run_stream(*stream)
    assert digest == recorded[stream_id(stream)]
    # the stream exercised what the digest is meant to pin
    assert stats["merges"] and stats["folds"] and stats["reloads_over_capacity"]
    assert stats["over_capacity"] > stats["reloads_over_capacity"]
    assert stats["levels"] >= (11 if stream[1] == 200 else 8)


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps({stream_id(s): run_stream(*s)[0] for s in STREAMS},
                                  indent=1, sort_keys=True) + "\n")
