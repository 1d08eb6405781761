"""A deterministic toy transformer for desk-scale prefill experiments.

Two forward passes share one arithmetic path: ``full_prefill`` runs every
layer end to end, records the last ``rows`` rows of each head's attention
weights (by default the ``DEFAULT_OWS`` rows scoring reads), and keeps the
key/value projections in one K/V cache array (the cache a real inference run
would hold); ``mini_prefill`` runs the same layers but caches nothing and
terminates the moment the last layer's attention weights exist. Their rows
are elementwise equal, which is what lets allocation decisions computed on
the cheap pass apply to the real one. Both return a ``PrefillResult``, an
``AttentionTrace`` of ``<f4`` rows like a trace file's, scored, saved and
evicted as any trace is.

Weights are a pure function of the seed, drawn once per config in float64,
rounded to float32 and read-only: identical configs give bit-identical results
under one BLAS thread setting (the benchmark pins BLAS to one thread). All
arithmetic is float32. A head's attention is computed one 128-row band at a
time, bands anchored at row 0, in one contiguous buffer holding the band for
all heads: the band's rows of ``q @ k.T`` up to its last column (``q`` scaled
by ``1/sqrt(proj_dim)``), masked, shifted by the row max and exponentiated in
place. The kept rows are those divided by their row sums, and the contexts
``(exp @ v) / sums``, normalized after the product. The last layer computes
only the bands holding the kept rows and the last two rows, and runs only the
last row's band through the MLP, for the logits. The steps after the heads
(output projection, MLP and the next layer's norm) run band by band too, so
every product has the same shape whatever ``rows`` is (BLAS can give a row
other last bits in a product of another height), and ``rows`` changes no bit.
A prefill runs on the calling thread, and the caller's input is only read.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .attnproc import DEFAULT_OWS
from .trace import AttentionTrace, checked_integer, set_integers


@dataclass(frozen=True)
class ToyModelConfig:
    """Dimensions (integers >= 1, ``seq_len`` >= 2 as in a trace) and seed (an integer >= 0), kept as Python ints."""

    layers: int = 2
    heads: int = 1
    model_dim: int = 16
    proj_dim: int = 8
    seq_len: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        set_integers(self, layers=1, heads=1, model_dim=1, proj_dim=1, seq_len=2, seed=0)


@dataclass(frozen=True, eq=False)
class PrefillResult(AttentionTrace):
    """Output of a prefill pass: a trace of the kept attention rows, stored as float32.

    ``weights`` is ``(layers, heads, min(rows, seq_len), seq_len)``, checked
    when built like any trace's. A full prefill also carries the logits for
    the first output token and the K/V cache, one C-contiguous float32 array
    of shape ``(layers, 2, heads, seq_len, proj_dim)`` whose ``kv_pairs[layer]``
    unpacks into keys and values. A mini prefill carries neither: ``kv_pairs``
    is None, ``kv_bytes`` 0.
    """

    kv_pairs: np.ndarray | None = None
    first_token_logits: np.ndarray | None = None

    @property
    def per_layer_attention(self) -> np.ndarray:
        """``weights``, under the name the benchmark reads."""
        return self.weights

    @property
    def kv_bytes(self) -> int:
        """Bytes the K/V cache holds: 0 for a mini prefill."""
        return 0 if self.kv_pairs is None else self.kv_pairs.nbytes

    def attention_trace(self) -> AttentionTrace:
        """This prefill, under the name the benchmark reads: it already is a trace."""
        return self


def _rms_normalize(x: np.ndarray) -> np.ndarray:
    # Unit-gain RMS normalization; eps keeps zero rows finite.
    return x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + 1e-6)


@functools.lru_cache(maxsize=1)
class _Weights:
    """All model parameters, drawn once per config in a fixed order; only the last config's set is kept."""

    def __init__(self, config: ToyModelConfig):
        rng = np.random.default_rng(config.seed)
        scale = 1.0 / np.sqrt(config.model_dim)
        d, p, h = config.model_dim, config.proj_dim, config.heads

        def draw(*shape: int) -> np.ndarray:
            w = (rng.uniform(-1.0, 1.0, size=shape) * scale).astype(np.float32)
            w.flags.writeable = False
            return w

        shapes = dict(wq=(h, d, p), wk=(h, d, p), wv=(h, d, p), wo=(h * p, d), w1=(d, 4 * d), w2=(4 * d, d))
        self.layers = [{name: draw(*shape) for name, shape in shapes.items()} for _ in range(config.layers)]
        self.unembed = draw(d, d)


def default_input(config: ToyModelConfig) -> np.ndarray:
    """Seeded random token embeddings, shape (seq_len, model_dim), float32."""
    rng = np.random.default_rng([config.seed, 1])
    return rng.uniform(-1.0, 1.0, size=(config.seq_len, config.model_dim)).astype(np.float32)


def _check_input(config: ToyModelConfig, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (config.seq_len, config.model_dim):
        raise ValueError(
            f"input shape {x.shape} does not match config "
            f"({config.seq_len}, {config.model_dim})"
        )
    if not np.isfinite(x).all():
        raise ValueError("toy input x must be finite")
    # From this magnitude on, a row's float32 squares, summed in _rms_normalize, can overflow.
    limit = np.sqrt(float(np.finfo(np.float32).max) / config.model_dim)
    if np.abs(x).max() >= limit:
        raise ValueError(f"toy input x must be below {limit:.6g} in magnitude, so its float32 squares stay finite")
    return x.astype(np.float32)


def _allocated(what: str, nbytes: int, make):
    try:
        return make()
    except (MemoryError, ValueError) as exc:
        raise ValueError(f"a {nbytes}-byte toy {what} cannot be allocated") from exc


_BAND = 128
_ABOVE_DIAGONAL = ~np.tri(_BAND, dtype=bool)


def _band_weights(e: np.ndarray) -> np.ndarray:
    """Make a band of logits, its diagonal square last, causal ``exp(logit - row max)`` in place; return row sums."""
    n = e.shape[-2]
    np.copyto(e[..., -n:], -np.inf, where=_ABOVE_DIAGONAL[:n, :n])
    e -= e.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    return e.sum(axis=-1, keepdims=True)


def _forward(config: ToyModelConfig, x: np.ndarray | None, *, full: bool, rows: int) -> PrefillResult:
    """Run the layers; a full pass writes each head's K and V into one cache array, a mini one stops early.

    Every array is float32. A ``(t, t)`` square, never touched, is allocated first: a guard that refuses a
    shape too large to run before anything is drawn. The input is the pass's own copy.
    """
    l, t, d, p, h = config.layers, config.seq_len, config.model_dim, config.proj_dim, config.heads
    r = min(checked_integer("rows", rows, 1), t)
    _allocated("attention scratch", t * t * 4, lambda: np.empty((t, t), np.float32))
    attention = _allocated("attention array", l * h * r * t * 4, lambda: np.empty((l, h, r, t), "<f4"))
    x = _allocated("input", t * d * 4, lambda: default_input(config)) if x is None else _check_input(config, x)
    weights = _allocated("weight set", (l * (4 * h * d * p + 8 * d * d) + d * d) * 4, lambda: _Weights(config))
    kv = _allocated("K/V cache", l * 2 * h * t * p * 4, lambda: np.empty((l, 2, h, t, p), np.float32)) if full else None
    mini_kv = None if full else np.empty((2, h, t, p), np.float32)  # a mini pass keeps no K/V
    band = np.empty(h * _BAND * t, np.float32)
    # Head i's context fills columns [i*p, (i+1)*p): the heads side by side, as the output projection reads them.
    contexts = np.empty((t, h * p), np.float32)
    head_contexts = contexts.reshape(t, h, p).transpose(1, 0, 2)
    xn = _rms_normalize(x)
    # The last layer's result reads the kept rows and the last row; the last row's MLP band starts by row t - 2.
    last_first, last_band = (t - max(r, 2)) // _BAND * _BAND, (t - 2) // _BAND * _BAND
    for layer_idx, lw in enumerate(weights.layers):
        stop = not full and layer_idx == l - 1
        first = last_first if layer_idx == l - 1 else 0
        k, v = kv[layer_idx] if full else mini_kv
        np.matmul(xn, lw["wk"], out=k)
        np.matmul(xn, lw["wv"], out=v)
        q = (xn @ lw["wq"]) / float(np.sqrt(p))  # the (t, p) projection is scaled, not the logits
        for i0 in range(first, t, _BAND):
            i1 = min(i0 + _BAND, t)
            e = band[: h * (i1 - i0) * i1].reshape(h, i1 - i0, i1)
            sums = _band_weights(np.matmul(q[:, i0:i1], k[:, :i1].transpose(0, 2, 1), out=e))
            if (kept := max(i0, t - r)) < i1:
                kept_rows = attention[layer_idx, :, kept - (t - r) : i1 - (t - r)]
                np.divide(e[:, kept - i0 :], sums[:, kept - i0 :], out=kept_rows[..., :i1])
                kept_rows[..., i1:] = 0.0
            if not stop:  # normalized after the product: an (n, p) divide, not an (n, i1) one
                np.divide(e @ v[:, :i1], sums, out=head_contexts[:, i0:i1])
        if stop:
            break  # all attention statistics exist; the rest of the layer is dead weight for scoring
        # Every step after the heads is row-wise, but BLAS can give a row other last bits in a product of
        # another height. So they run band by band, a lone last row joining the band before it (a one-row
        # product is a matrix-vector one), and the bits do not depend on ``rows``.
        edges = [*range(last_band if layer_idx == l - 1 else 0, t - 1, _BAND), t]
        for i0, i1 in zip(edges, edges[1:]):
            out = x[i0:i1]
            out += contexts[i0:i1] @ lw["wo"]
            out += np.tanh(_rms_normalize(out) @ lw["w1"]) @ lw["w2"]
            xn[i0:i1] = _rms_normalize(out)
    logits = xn[-1] @ weights.unembed if full else None
    return PrefillResult(attention, kv_pairs=kv, first_token_logits=logits)


def full_prefill(config: ToyModelConfig, x: np.ndarray | None = None, *, rows: int = DEFAULT_OWS) -> PrefillResult:
    """Run every layer, keeping the last ``rows`` attention rows per head, the K/V cache, and logits.

    ``rows`` is an integer >= 1; from ``seq_len`` on every row is kept. The
    cache and logits do not depend on it.
    """
    return _forward(config, x, full=True, rows=rows)


def mini_prefill(config: ToyModelConfig, x: np.ndarray | None = None, *, rows: int = DEFAULT_OWS) -> PrefillResult:
    """Run the same layers cache-free, stopping after the last attention.

    The recorded rows equal ``full_prefill``'s at the same ``rows``
    elementwise; no K/V is ever stored, so the live cache footprint is zero
    bytes.
    """
    return _forward(config, x, full=False, rows=rows)
