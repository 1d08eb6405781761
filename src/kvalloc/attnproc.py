"""Attention processing: turn raw attention weights into per-layer token scores.

The pipeline takes the rows of the observation window (the last ``ows``
positions) of one layer's ``t x t`` attention matrix, drops the window's own
columns, averages over the rows, and smooths the result. The output is one
nonnegative score per non-window token; higher means the token matters more
to the window and therefore to the first generated token.

Scoring reads only those ``ows`` window rows: ``score_window`` is the one
implementation, and every caller slices the window rows out before any
float64 cast or head reduction, so no whole-matrix copy is made.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np

from .trace import AttentionTrace


@dataclass(frozen=True)
class ProcSettings:
    """Observation-window size and smoothing-kernel width.

    ``pool_size`` must be odd so the smoothing window is symmetric; the
    window size is validated against a concrete sequence length at apply
    time.
    """

    ows: int = 8
    pool_size: int = 7

    def __post_init__(self) -> None:
        if self.ows < 1:
            raise ValueError(f"ows must be >= 1, got {self.ows}")
        if self.pool_size < 1:
            raise ValueError(f"pool_size must be >= 1, got {self.pool_size}")
        if self.pool_size % 2 == 0:
            raise ValueError(f"pool_size must be odd, got {self.pool_size}")

    def check_seq_len(self, seq_len: int) -> None:
        if self.ows >= seq_len:
            raise ValueError(f"ows {self.ows} must be < seq_len {seq_len}")
        if self.pool_size > seq_len - self.ows:
            raise ValueError(
                f"pool_size {self.pool_size} exceeds non-window length {seq_len - self.ows}"
            )


@dataclass(frozen=True)
class ScoreVector:
    """Per-layer attention-score distribution over non-window tokens."""

    layer: int
    scores: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        s = np.ascontiguousarray(self.scores, dtype=np.float64)
        if s.ndim != 1:
            raise ValueError(f"scores must be a vector, got shape {s.shape}")
        if s.size and s.min() < 0:
            raise ValueError("scores must be nonnegative")
        s.setflags(write=False)
        object.__setattr__(self, "scores", s)

    def __len__(self) -> int:
        return int(self.scores.size)


def causal_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax over the causal part of the last rows of a square matrix.

    An ``(r, t)`` input with ``1 <= r <= t`` is read as the last ``r`` rows
    of a ``t x t`` causal matrix, so row ``i`` attends to columns up to
    ``t - r + i``; a square input is the whole matrix. Masked entries come
    out exactly zero; rows sum to 1. Uses max-subtraction for numerical
    stability.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2 or not 1 <= logits.shape[0] <= logits.shape[1]:
        raise ValueError(f"expected an (r, t) matrix with 1 <= r <= t, got shape {logits.shape}")
    r, t = logits.shape
    masked = np.where(np.tri(r, t, k=t - r, dtype=bool), logits, -np.inf)
    shifted = masked - masked.max(axis=1, keepdims=True)
    weights = np.exp(shifted)
    weights /= weights.sum(axis=1, keepdims=True)
    return weights


def smooth(values: np.ndarray, pool_size: int) -> np.ndarray:
    """Stride-1, length-preserving average smoothing with zero padding.

    Each output position is the mean over a centered window of ``pool_size``
    entries, with ``(pool_size - 1) / 2`` zeros padded at each end; the
    divisor is always ``pool_size``.
    """
    if pool_size == 1:
        return np.asarray(values, dtype=np.float64).copy()
    return np.convolve(np.asarray(values, dtype=np.float64), np.ones(pool_size), mode="same") / pool_size


def score_window(rows: np.ndarray, settings: ProcSettings, layer: int = 0) -> ScoreVector:
    """Score the non-window tokens from the observation window's rows.

    ``rows`` holds the last ``ows`` rows of one layer's ``t x t`` causal
    row-stochastic matrix, shape ``(ows, t)``. Drops the window columns,
    averages the rows, then smooths; the result has exactly ``t - ows``
    entries regardless of pool_size.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] != settings.ows:
        raise ValueError(f"expected {settings.ows} window rows of shape (ows, t), got shape {rows.shape}")
    t = rows.shape[1]
    settings.check_seq_len(t)
    merged = rows[:, : t - settings.ows].mean(axis=0)
    return ScoreVector(layer=layer, scores=smooth(merged, settings.pool_size))


def process_layer(weights: np.ndarray, settings: ProcSettings, layer: int = 0) -> ScoreVector:
    """Score one layer's ``t x t`` causal row-stochastic matrix.

    Only the last ``ows`` rows are read; see ``score_window``.
    """
    weights = np.asarray(weights)
    if weights.ndim != 2 or weights.shape[0] != weights.shape[1]:
        raise ValueError(f"expected a square attention matrix, got shape {weights.shape}")
    t = weights.shape[0]
    settings.check_seq_len(t)
    return score_window(weights[t - settings.ows :], settings, layer=layer)


def process_trace(trace: AttentionTrace, settings: ProcSettings) -> list[ScoreVector]:
    """Score every layer of a trace from the mean of its heads' window rows.

    A layer's window rows are averaged over heads, then scored by
    ``score_window``. Only those rows are cast to float64, which gives the
    same scores, bit for bit, as averaging the whole matrices.
    """
    t = trace.seq_len
    settings.check_seq_len(t)
    out = []
    for layer in range(trace.layers):
        rows = trace.weights[layer, :, t - settings.ows :].astype(np.float64).mean(axis=0)
        out.append(score_window(rows, settings, layer=layer))
    return out


def scores_to_csv(score_vectors: list[ScoreVector]) -> str:
    """Serialize score vectors as ``layer,position,score`` CSV."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["layer", "position", "score"])
    for sv in score_vectors:
        for pos, score in enumerate(sv.scores):
            writer.writerow([sv.layer, pos, repr(float(score))])
    return buf.getvalue()


def scores_to_json(score_vectors: list[ScoreVector]) -> str:
    """Serialize score vectors as a JSON list of per-layer objects."""
    payload = [
        {"layer": sv.layer, "scores": [float(x) for x in sv.scores]} for sv in score_vectors
    ]
    return json.dumps(payload, separators=(",", ":"))
