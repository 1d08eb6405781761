"""A deterministic toy transformer for desk-scale prefill experiments.

A prefill computes what scoring and eviction read, and stops: the last
``rows`` rows of each head's attention weights (by default the
``DEFAULT_OWS`` rows scoring reads) and every layer's key/value projections.
It ends the moment the last layer's attention rows exist; nothing after
them (contexts, output projection, MLP, logits) is computed in the last
layer. ``full_prefill`` keeps the K/V in one cache array (the cache a real
inference run would hold); ``mini_prefill`` is the same pass keeping none.
Their rows are bit-equal, which is what lets allocation decisions computed
on the cheap pass apply to the real one. Both return a ``PrefillResult``, an
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
only the bands holding the kept rows. Every other layer runs the steps after
the heads (output projection, MLP and the next layer's norm) on all its rows,
band by band too, which bounds the MLP's scratch and keeps the pinned bits.
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
    when built like any trace's. A full prefill also carries the K/V cache,
    one C-contiguous float32 array of shape ``(layers, 2, heads, seq_len,
    proj_dim)`` whose ``kv_pairs[layer]`` unpacks into keys and values. A mini
    prefill carries none: ``kv_pairs`` is None, ``kv_bytes`` 0.
    """

    kv_pairs: np.ndarray | None = None

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


def default_input(config: ToyModelConfig) -> np.ndarray:
    """Seeded random token embeddings, shape (seq_len, model_dim), float32."""
    rng = np.random.default_rng([config.seed, 1])
    return rng.uniform(-1.0, 1.0, size=(config.seq_len, config.model_dim)).astype(np.float32)


@np.errstate(invalid="ignore")  # casting a float32 signalling NaN flags an invalid operation
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
    """Run the layers up to the last one's attention; a full pass keeps each layer's K and V in one cache array.

    Every array is float32. The caller's input is checked first; the pass runs on its own copy. Then every
    buffer the pass needs is allocated before its first layer, first a ``(t, t)`` square, never touched: a
    size limit, not memory the pass needs, so a shape too large to run is refused before anything is drawn.
    Whichever buffer cannot be allocated, the pass raises one ValueError naming the config and numpy's reason.
    """
    l, t, p, h = config.layers, config.seq_len, config.proj_dim, config.heads
    r = min(checked_integer("rows", rows, 1), t)
    x = None if x is None else _check_input(config, x)
    n = l if full else 1  # a mini pass reuses one layer's K/V buffer and keeps none
    try:
        np.empty((t, t), np.float32)
        attention = np.empty((l, h, r, t), "<f4")
        x = default_input(config) if x is None else x
        weights = _Weights(config)
        kv = np.empty((n, 2, h, t, p), np.float32)
        band = np.empty(h * _BAND * t, np.float32)
        # Head i's context fills columns [i*p, (i+1)*p): the heads side by side, as the output projection reads them.
        contexts = np.empty((t, h * p), np.float32)
    except (MemoryError, ValueError) as exc:  # numpy's ValueError: a shape whose size overflows
        raise ValueError(f"a toy pass of {config!r} cannot be allocated: {exc}") from exc
    head_contexts = contexts.reshape(t, h, p).transpose(1, 0, 2)
    xn = _rms_normalize(x)
    for layer_idx, lw in enumerate(weights.layers):
        last = layer_idx == l - 1
        k, v = kv[layer_idx if full else 0]
        np.matmul(xn, lw["wk"], out=k)
        np.matmul(xn, lw["wv"], out=v)
        q = (xn @ lw["wq"]) / float(np.sqrt(p))  # the (t, p) projection is scaled, not the logits
        # The last layer computes only the bands holding the kept rows.
        for i0 in range((t - r) // _BAND * _BAND if last else 0, t, _BAND):
            i1 = min(i0 + _BAND, t)
            e = band[: h * (i1 - i0) * i1].reshape(h, i1 - i0, i1)
            sums = _band_weights(np.matmul(q[:, i0:i1], k[:, :i1].transpose(0, 2, 1), out=e))
            if (kept := max(i0, t - r)) < i1:
                kept_rows = attention[layer_idx, :, kept - (t - r) : i1 - (t - r)]
                np.divide(e[:, kept - i0 :], sums[:, kept - i0 :], out=kept_rows[..., :i1])
                kept_rows[..., i1:] = 0.0
            if not last:  # normalized after the product: an (n, p) divide, not an (n, i1) one
                np.divide(e @ v[:, :i1], sums, out=head_contexts[:, i0:i1])
        if last:
            break  # the kept rows and every K/V exist; the rest of the layer feeds nothing they read
        # Row-wise steps on every row, in 128-row bands (a lone last row joins the band before it, as a one-row
        # product is a matrix-vector one): the MLP's scratch is (band, 4 * model_dim), and the bits stay the
        # pinned ones, where a whole-matrix product can give a row other last bits at some shapes.
        edges = [*range(0, t - 1, _BAND), t]
        for i0, i1 in zip(edges, edges[1:]):
            out = x[i0:i1]
            out += contexts[i0:i1] @ lw["wo"]
            out += np.tanh(_rms_normalize(out) @ lw["w1"]) @ lw["w2"]
            xn[i0:i1] = _rms_normalize(out)
    return PrefillResult(attention, kv_pairs=kv if full else None)


def full_prefill(config: ToyModelConfig, x: np.ndarray | None = None, *, rows: int = DEFAULT_OWS) -> PrefillResult:
    """Run every layer's attention, keeping the last ``rows`` rows per head and the K/V cache.

    ``rows`` is an integer >= 1; from ``seq_len`` on every row is kept. The
    cache does not depend on it.
    """
    return _forward(config, x, full=True, rows=rows)


def mini_prefill(config: ToyModelConfig, x: np.ndarray | None = None, *, rows: int = DEFAULT_OWS) -> PrefillResult:
    """Run the same layers cache-free: ``full_prefill``'s pass, keeping no K/V.

    The recorded rows equal ``full_prefill``'s at the same ``rows`` bit for
    bit; one layer's K/V buffer is reused and dropped, so the result holds
    zero cache bytes.
    """
    return _forward(config, x, full=False, rows=rows)
