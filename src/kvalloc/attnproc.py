"""Attention processing: turn raw attention weights into per-layer token scores.

The pipeline takes the rows of the observation window (the last ``ows``
positions) of one layer's ``t x t`` attention matrix, drops the window's own
columns, averages over the rows, and smooths the result. The output is one
nonnegative score per non-window token; higher means the token matters more
to the window and therefore to the first generated token.

Scoring reads only those ``ows`` window rows. ``score_window`` is the one
implementation; ``process_trace`` feeds it each layer's window rows of a
trace or a toy-model prefill, averaged over heads, and the eviction simulator
scores through ``process_trace``. The rows are sliced out before any float64
cast or head reduction, so no whole-matrix copy is made.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .toymodel import PrefillResult
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


def checked_scores(values) -> np.ndarray:
    """``values`` as a contiguous float64 vector, nonnegative with a finite sum.

    NaN fails the sign test; an infinity, or finite scores whose sum
    overflows, fail the sum test. Raises ValueError.
    """
    s = np.ascontiguousarray(values, dtype=np.float64)
    if s.ndim != 1:
        raise ValueError(f"scores must be a vector, got shape {s.shape}")
    if s.size and not s.min() >= 0:
        raise ValueError("scores must be nonnegative")
    with np.errstate(over="ignore"):
        if not np.isfinite(s.sum()):
            raise ValueError("scores must have a finite sum")
    return s


@dataclass(frozen=True)
class ScoreVector:
    """Per-layer attention-score distribution over non-window tokens, checked by ``checked_scores``."""

    layer: int
    scores: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        s = checked_scores(self.scores)
        s.setflags(write=False)
        object.__setattr__(self, "scores", s)

    def __len__(self) -> int:
        return int(self.scores.size)


def smooth(values: np.ndarray, pool_size: int) -> np.ndarray:
    """Stride-1, length-preserving average smoothing with zero padding.

    Each output position is the mean over a centered window of ``pool_size``
    entries, with ``(pool_size - 1) / 2`` zeros padded at each end; the
    divisor is always ``pool_size``.
    """
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


def process_trace(source: AttentionTrace | PrefillResult, settings: ProcSettings) -> list[ScoreVector]:
    """Score every layer of a trace or a prefill from the mean of its heads' window rows.

    A trace is read from its float32 weights, a prefill from its own float64
    attention. A layer's window rows are averaged over heads, then scored by
    ``score_window``. Only those rows are cast to float64, which gives the
    same scores, bit for bit, as averaging the whole matrices.
    """
    if isinstance(source, AttentionTrace):
        attn = source.weights
    elif isinstance(source, PrefillResult):
        attn = source.per_layer_attention
    else:
        raise TypeError(f"expected an AttentionTrace or a PrefillResult, got {type(source).__name__}")
    t = attn.shape[-1]
    settings.check_seq_len(t)
    return [
        score_window(layer_attn[:, t - settings.ows :].astype(np.float64).mean(axis=0), settings, layer=layer)
        for layer, layer_attn in enumerate(attn)
    ]
