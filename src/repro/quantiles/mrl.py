"""Munro–Paterson / MRL buffer-collapse quantile summary.

The paper's hooks (§2): *"the Munro-Paterson approach to finding
quantiles in sublinear space (1980)"* and *"Manku, Rajagopalan and
Lindsay adapted the Munro-Paterson algorithm to the streaming setting"*
(SIGMOD 1998).

Deterministic multilevel buffers: at most ``b`` buffers of exactly
``k`` items, each buffer carrying an integer *weight* (how many stream
items each stored element represents).  New items fill a weight-1
buffer; when the budget is exceeded, the two smallest-weight buffers
COLLAPSE: their weight-expanded merge is resampled down to ``k``
elements at the combined weight.  Rank error is O(n log(n/k)/k) — the
log factor worse than GK/KLL that experiment E6's frontier shows.

This deterministic summary is the historical baseline of the entire
quantile line; KLL is this plus randomized parity and geometric
capacities.
"""

from __future__ import annotations

from ..core.batch import float_batch
from .base import QuantileSketch

__all__ = ["MRLSketch"]


class MRLSketch(QuantileSketch):
    """MRL deterministic quantile summary: ``b`` buffers × ``k`` items."""

    batch_form = staticmethod(float_batch)

    def __init__(self, k: int = 128, b: int = 8) -> None:
        if k < 2:
            raise ValueError(f"buffer size k must be >= 2, got {k}")
        if b < 2:
            raise ValueError(f"buffer count b must be >= 2, got {b}")
        self.k = k
        self.b = b
        self._buffers: list[tuple[int, list[float]]] = []  # (weight, sorted items)
        self._input: list[float] = []
        self.n = 0
        self._collapse_parity = 0

    def update(self, value: float) -> None:
        """Insert one value."""
        self._input.append(float(value))
        self.n += 1
        if len(self._input) == self.k:
            self._buffers.append((1, sorted(self._input)))
            self._input = []
            while len(self._buffers) > self.b:
                self._collapse()

    def _collapse(self) -> None:
        """Collapse the two smallest-weight buffers into one."""
        self._buffers.sort(key=lambda wb: wb[0])
        (w1, b1), (w2, b2) = self._buffers[0], self._buffers[1]
        rest = self._buffers[2:]
        w_out = w1 + w2
        merged = [(v, w1) for v in b1] + [(v, w2) for v in b2]
        merged.sort(key=lambda vw: vw[0])
        # Select the elements at weighted positions offset, offset+w_out,
        # offset+2·w_out, ... in the weight-expanded merged sequence.
        self._collapse_parity ^= 1
        if w_out % 2 == 0:
            offset = w_out // 2 + self._collapse_parity
        else:
            offset = (w_out + 1) // 2
        picks: list[float] = []
        acc = 0
        target = offset
        for v, w in merged:
            acc += w
            while acc >= target and len(picks) < self.k:
                picks.append(v)
                target += w_out
        # Guard against arithmetic edge cases: pad with the max element.
        while len(picks) < self.k:
            picks.append(merged[-1][0])
        self._buffers = rest
        self._buffers.append((w_out, picks))

    def _weighted_items(self) -> list[tuple[float, int]]:
        items: list[tuple[float, int]] = []
        for weight, buf in self._buffers:
            items.extend((v, weight) for v in buf)
        items.extend((v, 1) for v in self._input)
        items.sort(key=lambda vw: vw[0])
        return items

    def rank(self, value: float) -> float:
        """Estimated number of items ≤ value."""
        self._require_data()
        items = self._weighted_items()
        total_weight = sum(w for _, w in items)
        covered = sum(w for v, w in items if v <= value)
        if total_weight == 0:
            return 0.0
        return covered / total_weight * self.n

    def quantile(self, q: float) -> float:
        """Value at normalized rank q."""
        self._check_q(q)
        self._require_data()
        items = self._weighted_items()
        total = sum(w for _, w in items)
        target = q * total
        acc = 0
        for v, w in items:
            acc += w
            if acc >= target:
                return v
        return items[-1][0]

    @property
    def size(self) -> int:
        """Total retained items."""
        return sum(len(buf) for _, buf in self._buffers) + len(self._input)

    def merge(self, other: "MRLSketch") -> None:
        """Merge by pooling buffers, then collapsing back to budget."""
        self._check_mergeable(other, "k", "b")
        self._buffers.extend((w, list(buf)) for w, buf in other._buffers)
        self.n += other.n - len(other._input)
        for value in other._input:
            self.update(value)
        while len(self._buffers) > self.b:
            self._collapse()

    def state_dict(self) -> dict:
        return {
            "k": self.k,
            "b": self.b,
            "n": self.n,
            "parity": self._collapse_parity,
            "buffers": [[w, list(buf)] for w, buf in self._buffers],
            "input": list(self._input),
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "MRLSketch":
        sk = cls(k=state["k"], b=state["b"])
        sk.n = state["n"]
        sk._collapse_parity = state["parity"]
        sk._buffers = [(w, list(buf)) for w, buf in state["buffers"]]
        sk._input = list(state["input"])
        return sk
