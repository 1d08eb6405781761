"""Importance-retention metrics over per-layer token scores.

The central quantity is the retention ratio: the fraction of a layer's total
score mass preserved by keeping its ``n`` highest-scoring tokens. On top of
it sits the cross-layer average that drives allocation.

Every function takes a ``ScoreVector``, which was checked when it was built,
or a raw array, which becomes one on the way in (``layer`` 0), so it is
checked there. A vector keeps its read-only retention curve from first read
for its lifetime (8 bytes per token more), and ``retention_curve`` returns
that shared array; a raw array's is as read-only, and built afresh per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .attnproc import ScoreVector
from .trace import checked_integer, checked_real


@dataclass(frozen=True, slots=True)
class RetentionPoint:
    """One (layer, cache size, retention ratio) sample of a retention curve."""

    layer: int
    n: int
    r: float


class _RetentionTable(Sequence[RetentionPoint]):
    """Read-only points, layer-major, built on read from one ``(layers, len(sizes))`` array of ratios."""

    def __init__(self, layers: tuple[int, ...], sizes: list[int], ratios: np.ndarray) -> None:
        self._layers, self._sizes, self._ratios = layers, sizes, ratios

    def __len__(self) -> int:
        return self._ratios.size

    def __getitem__(self, index: int | slice) -> RetentionPoint | list[RetentionPoint]:
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        row, col = divmod(range(len(self))[index], len(self._sizes))
        return RetentionPoint(layer=self._layers[row], n=self._sizes[col], r=float(self._ratios[row, col]))


def _vector(w: ScoreVector | np.ndarray | Sequence[float]) -> ScoreVector:
    """``w`` itself if it is a ``ScoreVector``, else its scores checked into one."""
    return w if isinstance(w, ScoreVector) else ScoreVector(layer=0, scores=w)


def topk_indices(w: ScoreVector | np.ndarray | Sequence[float], n: int) -> np.ndarray:
    """Indices of the ``n`` largest scores, ties broken toward lower index."""
    scores = _vector(w).scores
    n = checked_integer("n", n, 0, scores.size)
    # Eviction keeps the lower index of a tie, so this sorts indices, stably; a curve sorts values.
    return np.argsort(-scores, kind="stable")[:n]


def retention_curve(w: ScoreVector | np.ndarray | Sequence[float]) -> np.ndarray:
    """Retention ratio for every cache size ``n = 0 .. len(w)``.

    Entry ``n`` is the mass of the n largest scores over the total mass,
    summed left-to-right over the values sorted largest first: ties are equal
    values, and -0.0 and 0.0 sort last, where they leave a positive sum as it
    is, so the sums have the bits of a stable index sort and repeat exactly.
    The final entry is exactly 1.0. An all-zero vector has nothing to keep:
    its curve is all ones, every size retains everything, no slot gains.
    This is the vector's kept, read-only ``curve``, the one array every
    caller shares; a raw array is checked into a vector and gets its curve.
    """
    return _vector(w).curve


def retention(w: ScoreVector | np.ndarray | Sequence[float], n: int) -> float:
    """Fraction of total score mass kept by the ``n`` largest scores."""
    curve = retention_curve(w)
    return float(curve[checked_integer("n", n, 0, curve.size - 1)])


def r_avg(values: Iterable[float]) -> float:
    """Arithmetic mean of per-layer retention values, added left to right as the exact oracle adds them."""
    vals = list(values)
    if not vals:
        raise ValueError("r_avg of an empty list is undefined")
    total = 0.0
    for v in vals:  # not sum(), which compensates float sums from Python 3.12 on
        total += float(v)
    return total / len(vals)


def retention_table(score_vectors: list[ScoreVector], sizes: Iterable[int]) -> Sequence[RetentionPoint]:
    """Each layer's retention at each size: read-only points over one float64 array of ratios."""
    sizes = list(sizes)
    ratios = np.empty((len(score_vectors), len(sizes)))
    for row, sv in zip(ratios, score_vectors):
        row[:] = [retention(sv, n) for n in sizes]
    return _RetentionTable(tuple(sv.layer for sv in score_vectors), sizes, ratios)


def min_size_table_csv(score_vectors: list[ScoreVector], targets: Iterable[float]) -> str:
    """``layer,r_target,n_min`` CSV: minimal cache size reaching each target (no field needs quoting)."""
    targets = [checked_real("target retention", t, 0.0, 1.0) for t in targets]
    lines = ["layer,r_target,n_min\n"]
    for sv in score_vectors:
        # A curve never decreases and ends at 1.0: the left insertion point is the smallest size reaching a target.
        curve = retention_curve(sv)
        lines += [f"{sv.layer},{t!r},{int(np.searchsorted(curve, t, side='left'))}\n" for t in targets]
    return "".join(lines)
