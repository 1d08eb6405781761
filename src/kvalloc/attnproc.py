"""Attention processing: turn raw attention weights into per-layer token scores.

The pipeline takes the rows of the observation window (the last ``ows``
positions) of one layer's ``t x t`` attention matrix, drops the window's own
columns, averages over the rows, and smooths the result. The output is one
nonnegative score per non-window token; higher means the token matters more
to the window and therefore to the first generated token.

Scoring reads only those ``ows`` window rows. ``score_window`` is the one
implementation; ``process_trace`` feeds it each layer's window rows of a
trace, whole or windowed, a toy prefill's included, averaged over heads, and
the eviction simulator scores through ``process_trace``. The rows are sliced
out before any float64 cast or head reduction, so no whole-matrix copy is
made. ``_causal_softmax_inplace`` makes such rows from logits, for the toy
model's heads and the simulator's recomputed windows. A ``ScoreVector`` is
the one checked form of scores and holds the one retention curve;
``metrics`` makes a raw array into one on the way in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .trace import AttentionTrace, is_integer, set_integers

# The observation window: the last rows of each matrix that scoring reads by default and a toy prefill keeps.
DEFAULT_OWS = 8


@dataclass(frozen=True)
class ProcSettings:
    """Observation-window size and smoothing-kernel width: integers >= 1, kept as Python ints.

    ``pool_size`` must be odd so the smoothing window is symmetric; the
    window size is validated against a concrete sequence length at apply
    time.
    """

    ows: int = DEFAULT_OWS
    pool_size: int = 7

    def __post_init__(self) -> None:
        set_integers(self, ows=1, pool_size=1)
        if self.pool_size % 2 == 0:
            raise ValueError(f"pool_size must be odd, got {self.pool_size}")

    def check_seq_len(self, seq_len: int) -> None:
        if self.ows >= seq_len:
            raise ValueError(f"ows {self.ows} must be < seq_len {seq_len}")
        if self.pool_size > seq_len - self.ows:
            raise ValueError(
                f"pool_size {self.pool_size} exceeds non-window length {seq_len - self.ows}"
            )


_BLOCK = 128
_STRICT_UPPER = ~np.tri(_BLOCK, dtype=bool)


def _causal_softmax_inplace(a: np.ndarray, scale: float = 1.0) -> None:
    # ``a`` holds the last rows of a (t, t) matrix of logits. Each block of
    # rows touches only the columns its rows see, so exp skips the masked
    # part. Every step is elementwise or exact and the sum still reduces
    # whole rows, so the bits equal a where/exp/divide on the square.
    r, t = a.shape
    scale = float(scale)  # a numpy float64 scale would run a float32 block through float64
    for i0 in range(0, r, _BLOCK):
        i1 = min(i0 + _BLOCK, r)
        rows, block = a[i0:i1], a[i0:i1, : t - r + i1]
        block /= scale
        np.copyto(block[:, t - r + i0 :], -np.inf, where=_STRICT_UPPER[: i1 - i0, : i1 - i0])
        block -= block.max(axis=1, keepdims=True)
        np.exp(block, out=block)
        rows[:, t - r + i1 :] = 0.0
        block /= rows.sum(axis=1, keepdims=True)


def is_cache_size(n: object) -> bool:
    """A cache size is an integer or numpy integer, never a bool, at least 0."""
    return is_integer(n) and n >= 0


@dataclass(frozen=True, eq=False)
class ScoreVector:
    """Per-layer attention-score distribution over non-window tokens, the one checked form of scores.

    ``scores`` is kept as a read-only float64 copy, nonnegative with a finite
    sum: NaN fails the sign test; an infinity, or finite scores whose sum
    overflows, fail the sum test. Raises ValueError. Vectors compare and hash
    by identity.
    """

    layer: int
    scores: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        s = np.array(self.scores, dtype=np.float64, ndmin=1)
        if s.ndim != 1:
            raise ValueError(f"scores must be a vector, got shape {s.shape}")
        if s.size and not s.min() >= 0:
            raise ValueError("scores must be nonnegative")
        with np.errstate(over="ignore"):
            if not np.isfinite(s.sum()):
                raise ValueError("scores must have a finite sum")
        s.setflags(write=False)
        object.__setattr__(self, "scores", s)

    def __len__(self) -> int:
        return int(self.scores.size)

    @cached_property
    def curve(self) -> np.ndarray:
        """The one retention curve, as ``metrics.retention_curve`` describes it; read-only, kept: 8 bytes a token."""
        if self.scores.size == 0:
            raise ValueError("empty score vector")
        cum = np.cumsum(np.sort(self.scores)[::-1])
        curve = np.ones(self.scores.size + 1) if cum[-1] == 0 else np.concatenate(([0.0], cum / cum[-1]))
        curve.setflags(write=False)
        return curve


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


def process_trace(source: AttentionTrace, settings: ProcSettings) -> list[ScoreVector]:
    """Score every layer of a trace from the mean of its heads' window rows.

    The trace, a toy prefill included, must hold at least ``ows`` rows per
    matrix. A layer's window rows are averaged over heads, then scored by
    ``score_window``. Only those rows are cast to float64, which gives the
    same scores, bit for bit, as averaging the whole matrices.
    """
    if not isinstance(source, AttentionTrace):
        raise TypeError(f"expected an AttentionTrace or a PrefillResult, got {type(source).__name__}")
    r, t = source.weights.shape[-2:]
    settings.check_seq_len(t)
    if r < settings.ows:
        raise ValueError(f"ows {settings.ows} needs {settings.ows} window rows; the source holds {r}")
    return [
        score_window(layer_attn[:, r - settings.ows :].astype(np.float64).mean(axis=0), settings, layer=layer)
        for layer, layer_attn in enumerate(source.weights)
    ]
