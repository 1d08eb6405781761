"""Importance-retention metrics over per-layer token scores.

The central quantity is the retention ratio: the fraction of a layer's total
score mass preserved by keeping its ``n`` highest-scoring tokens. On top of
it sits the cross-layer average that drives allocation.

Every function takes a ``ScoreVector``, which was checked when it was built,
or a raw array, which ``attnproc.checked_scores`` checks on the way in.
"""

from __future__ import annotations

import csv
import io
import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .attnproc import ScoreVector, checked_scores, is_cache_size


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


def _as_scores(w: ScoreVector | np.ndarray | Sequence[float]) -> np.ndarray:
    return w.scores if isinstance(w, ScoreVector) else checked_scores(w)


def topk_indices(w: ScoreVector | np.ndarray | Sequence[float], n: int) -> np.ndarray:
    """Indices of the ``n`` largest scores, ties broken toward lower index."""
    scores = _as_scores(w)
    if not is_cache_size(n) or n > scores.size:
        raise ValueError(f"n must be in [0, {scores.size}], got {n!r}")
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
    """
    scores = _as_scores(w)
    if scores.size == 0:
        raise ValueError("empty score vector")
    cum = np.cumsum(np.sort(scores)[::-1])
    total = cum[-1]
    if total == 0:
        return np.ones(scores.size + 1)
    curve = np.empty(scores.size + 1, dtype=np.float64)
    curve[0] = 0.0
    curve[1:] = cum / total
    return curve


def retention(w: ScoreVector | np.ndarray | Sequence[float], n: int) -> float:
    """Fraction of total score mass kept by the ``n`` largest scores."""
    curve = retention_curve(w)
    if not is_cache_size(n) or n >= curve.size:
        raise ValueError(f"n must be in [0, {curve.size - 1}], got {n!r}")
    return float(curve[n])


def r_avg(values: Iterable[float]) -> float:
    """Arithmetic mean of per-layer retention values, added left to right as the exact oracle adds them."""
    vals = list(values)
    if not vals:
        raise ValueError("r_avg of an empty list is undefined")
    total = 0.0
    for v in vals:  # not sum(), which compensates float sums from Python 3.12 on
        total += float(v)
    return total / len(vals)


def _first_reaching(curve: np.ndarray, target_r: float) -> int:
    # The curve never decreases and ends at 1.0: the left insertion point is the answer.
    if not isinstance(target_r, numbers.Real) or isinstance(target_r, bool) or not 0 <= target_r <= 1:
        raise ValueError(f"target retention must be in [0, 1], got {target_r!r}")
    return int(np.searchsorted(curve, target_r, side="left"))


def retention_table(score_vectors: list[ScoreVector], sizes: Iterable[int]) -> Sequence[RetentionPoint]:
    """Each layer's retention at each size: read-only points over one float64 array of ratios."""
    sizes = list(sizes)
    ratios = np.empty((len(score_vectors), len(sizes)))
    for row, sv in zip(ratios, score_vectors):
        curve = retention_curve(sv)
        for n in sizes:
            if not is_cache_size(n) or n >= curve.size:
                raise ValueError(f"n must be in [0, {curve.size - 1}], got {n!r}")
        row[:] = curve[sizes]
    return _RetentionTable(tuple(sv.layer for sv in score_vectors), sizes, ratios)


def min_size_table_csv(score_vectors: list[ScoreVector], targets: Iterable[float]) -> str:
    """``layer,r_target,n_min`` CSV: minimal cache size reaching each target."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["layer", "r_target", "n_min"])
    targets = list(targets)
    for sv in score_vectors:
        curve = retention_curve(sv)
        for target in targets:
            n_min = _first_reaching(curve, target)
            writer.writerow([sv.layer, repr(float(target)), n_min])
    return buf.getvalue()
