import numpy as np
import pytest

from kvalloc.attnproc import ProcSettings
from kvalloc.trace import AttentionTrace


def where_exp_softmax(logits: np.ndarray) -> np.ndarray:
    """Reference causal softmax of the last ``r`` rows of a ``t x t`` matrix.

    Row ``i`` sees columns up to ``t - r + i``: mask the rest with np.where,
    then exp and divide, one new array per step, in the logits' own dtype."""
    logits = np.asarray(logits)
    r, t = logits.shape
    masked = np.where(np.tri(r, t, k=t - r, dtype=bool), logits, -np.inf)
    shifted = masked - masked.max(axis=1, keepdims=True)
    weights = np.exp(shifted)
    weights /= weights.sum(axis=1, keepdims=True)
    return weights


def make_trace(per_layer_rows: list[list[list[float]]], heads: int = 1) -> AttentionTrace:
    """Build a single-head trace from explicit per-layer row lists."""
    weights = np.asarray(per_layer_rows, dtype=np.float32)[:, None, :, :]
    weights = np.repeat(weights, heads, axis=1)
    return AttentionTrace(weights)


# Causal row-stochastic 5x5 matrices whose window-row scores (ows=2, ps=1)
# come out proportional to [0.5, 0.3, 0.2] and [0.9, 0.05, 0.05].
TWO_LAYER_ROWS = [
    [
        [1.0, 0.0, 0.0, 0.0, 0.0],
        [0.5, 0.5, 0.0, 0.0, 0.0],
        [0.4, 0.3, 0.3, 0.0, 0.0],
        [0.25, 0.15, 0.10, 0.5, 0.0],
        [0.25, 0.15, 0.10, 0.0, 0.5],
    ],
    [
        [1.0, 0.0, 0.0, 0.0, 0.0],
        [0.5, 0.5, 0.0, 0.0, 0.0],
        [0.4, 0.3, 0.3, 0.0, 0.0],
        [0.45, 0.025, 0.025, 0.5, 0.0],
        [0.45, 0.025, 0.025, 0.0, 0.5],
    ],
]


@pytest.fixture
def two_layer_trace() -> AttentionTrace:
    return make_trace(TWO_LAYER_ROWS)


@pytest.fixture
def plain_settings() -> ProcSettings:
    return ProcSettings(ows=2, pool_size=1)
