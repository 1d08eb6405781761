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
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .attnproc import ScoreVector, checked_scores


@dataclass(frozen=True, slots=True)
class RetentionPoint:
    """One (layer, cache size, retention ratio) sample of a retention curve."""

    layer: int
    n: int
    r: float


def _as_scores(w: ScoreVector | np.ndarray | Sequence[float]) -> np.ndarray:
    return w.scores if isinstance(w, ScoreVector) else checked_scores(w)


def topk_indices(w: ScoreVector | np.ndarray | Sequence[float], n: int) -> np.ndarray:
    """Indices of the ``n`` largest scores, ties broken toward lower index."""
    scores = _as_scores(w)
    if not 0 <= n <= scores.size:
        raise ValueError(f"n must be in [0, {scores.size}], got {n}")
    return np.argsort(-scores, kind="stable")[:n]


def retention_curve(w: ScoreVector | np.ndarray | Sequence[float]) -> np.ndarray:
    """Retention ratio for every cache size ``n = 0 .. len(w)``.

    Entry ``n`` is the mass of the n largest scores over the total mass,
    accumulated left-to-right over the descending sort so repeated runs are
    bit-identical. The final entry is exactly 1.0. An all-zero vector has
    nothing to keep: its curve is all ones, so every size retains everything
    and no slot gains anything.
    """
    scores = _as_scores(w)
    if scores.size == 0:
        raise ValueError("empty score vector")
    ordered = scores[np.argsort(-scores, kind="stable")]
    cum = np.cumsum(ordered)
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
    if not 0 <= n < curve.size:
        raise ValueError(f"n must be in [0, {curve.size - 1}], got {n}")
    return float(curve[n])


def r_avg(values: Iterable[float]) -> float:
    """Arithmetic mean of per-layer retention values."""
    vals = list(values)
    if not vals:
        raise ValueError("r_avg of an empty list is undefined")
    return sum(float(v) for v in vals) / len(vals)


def min_cache_size(w: ScoreVector | np.ndarray | Sequence[float], target_r: float) -> int:
    """Smallest ``n`` whose retention reaches ``target_r``."""
    return _first_reaching(retention_curve(w), target_r)


def _first_reaching(curve: np.ndarray, target_r: float) -> int:
    # The curve never decreases and ends at 1.0: the left insertion point is the answer.
    if not 0 <= target_r <= 1:
        raise ValueError(f"target retention must be in [0, 1], got {target_r}")
    return int(np.searchsorted(curve, target_r, side="left"))


def compression_ratio(sizes: Sequence[int], seq_len: int, ows: int) -> float:
    """Retained share of cache capacity: ``sum(n_i + ows) / (layers * seq_len)``.

    Observation-window tokens are always retained, so they count toward the
    compressed footprint.
    """
    sizes = list(sizes)
    if not sizes:
        raise ValueError("empty allocation")
    retained = sum(int(n) + ows for n in sizes)
    return retained / (len(sizes) * seq_len)


def retention_table(
    score_vectors: list[ScoreVector], sizes: Iterable[int]
) -> list[RetentionPoint]:
    """Sample each layer's retention curve at the given cache sizes."""
    sizes = list(sizes)
    points = []
    for sv in score_vectors:
        curve = retention_curve(sv)
        for n in sizes:
            if not 0 <= n < curve.size:
                raise ValueError(f"n must be in [0, {curve.size - 1}], got {n}")
            points.append(RetentionPoint(layer=sv.layer, n=int(n), r=float(curve[n])))
    return points


def min_size_table_csv(score_vectors: list[ScoreVector], targets: Iterable[float]) -> str:
    """``layer,r_target,n_min`` CSV: minimal cache size reaching each target."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["layer", "r_target", "n_min"])
    targets = [float(t) for t in targets]
    for sv in score_vectors:
        curve = retention_curve(sv)
        for target in targets:
            writer.writerow([sv.layer, repr(target), _first_reaching(curve, target)])
    return buf.getvalue()
