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
rounded to float32 and read-only: identical configs give bit-identical
results under one BLAS thread setting (the matrix products' last bits can
change with numpy's BLAS pool, which the benchmark pins to one thread). All
arithmetic is float32, as in a real prefill: the input is cast once, and
each head computes its whole attention matrix in a ``(seq_len, seq_len)``
float32 scratch of the thread running it, with
``attnproc._causal_softmax_inplace``, then copies out the kept rows and
reads the context ``attn @ v`` from it: a prefill holds one square per
thread, not one per (layer, head). A prefill runs on ``min(heads, CPUs)``
threads (CPUs as ``os.sched_getaffinity`` counts them) once ``seq_len`` is
256 or more, where a layer's work outweighs the threads' overhead, and on
the calling thread below that. The threads start once per call and go
through the layers in lockstep: each runs its share of a layer's heads,
waits for the others, runs its band of rows through the output projection,
the MLP and the next layer's norm, and waits again. A head writes only its
own slots of the attention, the cache and one context array, and every step
after the heads is row-wise, with the same arithmetic on any thread, so the
bits do not depend on the prefill's thread count. The caller's input is
only read, and no thread outlives a call.
"""

from __future__ import annotations

import functools
import os
import threading
from dataclasses import dataclass

import numpy as np

from .attnproc import DEFAULT_OWS, _causal_softmax_inplace
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


# Below this sequence length a layer's numpy calls are too short to pay for
# handing the GIL between threads. Prefills at 8 layers, 4 heads, d=64, p=16 on
# 2 CPUs, threaded/single time (full, mini; medians of 6 noisy runs, 0.58-1.55
# each): 1.08, 1.31 at t=192; 1.02, 0.96 at t=224; 0.90, 0.95 at t=256; 0.74 at t=512.
_THREADED_SEQ_LEN = 256


def _head_workers(heads: int, seq_len: int) -> int:
    """``min(heads, CPUs)`` from ``_THREADED_SEQ_LEN`` tokens on, else 1."""
    if seq_len < _THREADED_SEQ_LEN:
        return 1
    # sched_getaffinity, which counts only the CPUs this process may run on, is Linux-only.
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else range(os.cpu_count() or 1)
    return min(heads, len(cpus))


def _in_lockstep(body, workers: int) -> None:
    """Call ``body(worker, sync)`` on ``workers`` threads, this one included; ``sync()`` waits for all of them.

    numpy releases the GIL in the matmuls, ufuncs and reductions, so the
    threads overlap. All are joined before this returns, and the first
    exception any raised is raised here; it breaks ``sync`` so that the
    others leave at their next call instead of waiting for it.
    """
    barrier, errors = threading.Barrier(workers), []

    def run(worker: int) -> None:
        try:
            body(worker, barrier.wait)
        except BaseException as exc:  # raised again below, in the calling thread
            errors.append(exc)
            barrier.abort()

    started: list[threading.Thread] = []
    try:
        for i in range(1, workers):
            started.append(threading.Thread(target=run, args=(i,)))
            started[-1].start()
        run(0)  # raises nothing: it keeps what it catches
    except BaseException:
        barrier.abort()  # a thread failed to start: the started ones would wait for it at the barrier
        raise
    finally:
        # Also when a thread cannot be started: the ones that were still write to the arrays.
        for thread in started:
            if thread.is_alive():
                thread.join()
    if errors:
        raise errors[0]


def _forward(config: ToyModelConfig, x: np.ndarray | None, *, full: bool, rows: int) -> PrefillResult:
    """Run the layers; a full pass writes each head's K and V into one cache array, a mini one stops early.

    Every array is float32. The scratch, one ``(t, t)`` square per thread, comes first, so a shape too
    large fails before anything is drawn; the K/V cache (full pass only) comes after the weight set.
    The input is the pass's own copy, and its rows become the residual stream.
    """
    l, t, d, p, h = config.layers, config.seq_len, config.model_dim, config.proj_dim, config.heads
    r, workers = min(checked_integer("rows", rows, 1), t), _head_workers(h, t)
    scratch = _allocated("attention scratch", workers * t * t * 4, lambda: np.empty((workers, t, t), np.float32))
    attention = _allocated("attention array", l * h * r * t * 4, lambda: np.empty((l, h, r, t), "<f4"))
    x = _allocated("input", t * d * 4, lambda: default_input(config)) if x is None else _check_input(config, x)
    weights = _allocated("weight set", (l * (4 * h * d * p + 8 * d * d) + d * d) * 4, lambda: _Weights(config))
    kv = _allocated("K/V cache", l * 2 * h * t * p * 4, lambda: np.empty((l, 2, h, t, p), np.float32)) if full else None
    # Head i's context fills columns [i*p, (i+1)*p): the heads side by side, as the output projection reads them.
    contexts = np.empty((t, h * p), np.float32)
    xn = _rms_normalize(x)

    def layers(worker: int, sync) -> None:
        # Every step after the heads is row-wise, so no bit depends on how the rows are split as long
        # as no band is one row: numpy runs a one-row product as a matrix-vector product, with other bits.
        bands = min(workers, t // 2)
        band = slice(worker * t // bands, (worker + 1) * t // bands) if worker < bands else slice(0)
        for layer_idx, lw in enumerate(weights.layers):
            stop = not full and layer_idx == l - 1
            for head in range(worker, h, workers):
                # Writes only this head's slots, so the bits do not depend on which thread runs it.
                q = xn @ lw["wq"][head]
                k = xn @ lw["wk"][head]
                attn = np.matmul(q, k.T, out=scratch[worker])
                _causal_softmax_inplace(attn, np.sqrt(p))
                attention[layer_idx, head] = attn[t - r :]
                if stop:
                    continue
                v = xn @ lw["wv"][head]
                if full:
                    kv[layer_idx, 0, head], kv[layer_idx, 1, head] = k, v
                contexts[:, head * p : (head + 1) * p] = attn @ v
            if stop:
                return  # all attention statistics exist; the rest of the layer is dead weight for scoring
            sync()  # every head has read xn and written its context columns
            out = x[band]
            out += contexts[band] @ lw["wo"]
            out += np.tanh(_rms_normalize(out) @ lw["w1"]) @ lw["w2"]
            xn[band] = _rms_normalize(out)
            sync()  # xn is the next layer's input, or after the last the logits'

    _in_lockstep(layers, workers)
    logits = xn[-1] @ weights.unembed if full else None
    return PrefillResult(attention, kv_pairs=kv, first_token_logits=logits)


def full_prefill(config: ToyModelConfig, x: np.ndarray | None = None, *, rows: int = DEFAULT_OWS) -> PrefillResult:
    """Run every layer, keeping the last ``rows`` attention rows per head, the K/V cache, and logits.

    ``rows`` is an integer >= 1; from ``seq_len`` on every row is kept. The
    cache and logits do not depend on it, and no bit depends on how many
    threads run the heads.
    """
    return _forward(config, x, full=True, rows=rows)


def mini_prefill(config: ToyModelConfig, x: np.ndarray | None = None, *, rows: int = DEFAULT_OWS) -> PrefillResult:
    """Run the same layers cache-free, stopping after the last attention.

    The recorded rows equal ``full_prefill``'s at the same ``rows``
    elementwise; no K/V is ever stored, so the live cache footprint is zero
    bytes.
    """
    return _forward(config, x, full=False, rows=rows)
