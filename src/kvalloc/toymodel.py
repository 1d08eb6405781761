"""A deterministic toy transformer for desk-scale prefill experiments.

Two forward passes share one arithmetic path: ``full_prefill`` runs every
layer end to end, records each layer's attention weights, and keeps the
key/value projections in one K/V cache array (the cache a real inference run
would hold); ``mini_prefill`` runs the same layers but caches nothing and
terminates the moment the last layer's attention weights exist. Their
attention traces are elementwise equal, which is what lets allocation
decisions computed on the cheap pass apply to the real one.

Weights are a pure function of the seed, drawn once per config and read-only:
identical configs give bit-identical results. Attention is written in place,
head by head: the logits go straight into the head's slot of the attention
array, and the masked row softmax runs there in row blocks, with ``exp`` only
on causal columns. Within a layer the heads run on ``min(heads, CPUs)``
threads (CPUs as ``os.sched_getaffinity`` counts them) once ``seq_len`` is
256 or more, where a head's work outweighs the threads' overhead, and on the
calling thread below that. Each head writes only its own slots and does the
same arithmetic on any thread, so the bits do not depend on the thread
count; its K, V and context go straight into its slots of the cache and of
one context array. The norms, output projection and MLP stay on the calling
thread, and no thread outlives a call. ``causal_softmax`` is that softmax on
a copy; the eviction simulator softmaxes its recomputed window rows in place.
"""

from __future__ import annotations

import functools
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .trace import AttentionTrace, TraceHeader


@dataclass(frozen=True)
class ToyModelConfig:
    """Dimensions and seed of the toy transformer."""

    layers: int = 2
    heads: int = 1
    model_dim: int = 16
    proj_dim: int = 8
    seq_len: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("layers", "heads", "model_dim", "proj_dim", "seq_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass(frozen=True)
class PrefillResult:
    """Output of a prefill pass.

    ``per_layer_attention`` has shape ``(layers, heads, seq_len, seq_len)``.
    A full prefill also carries the logits for the first output token and
    the K/V cache, one C-contiguous float32 array (the 4-byte elements a cache
    would store) of shape ``(layers, 2, heads, seq_len, proj_dim)``, whose
    ``kv_pairs[layer]`` unpacks into keys and values. A mini prefill carries
    the attention and nothing else: ``kv_pairs`` is None, ``kv_bytes`` 0.
    """

    per_layer_attention: np.ndarray = field(repr=False)
    kv_pairs: np.ndarray | None = None
    first_token_logits: np.ndarray | None = None

    @property
    def kv_bytes(self) -> int:
        """Bytes the K/V cache holds: 0 for a mini prefill."""
        return 0 if self.kv_pairs is None else self.kv_pairs.nbytes

    def attention_trace(self) -> AttentionTrace:
        """Repackage the recorded attention as a standard trace."""
        l, h, t, _ = self.per_layer_attention.shape
        header = TraceHeader(layers=l, heads=h, seq_len=t)
        return AttentionTrace(header=header, weights=self.per_layer_attention.astype(np.float32))


def causal_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax over the causal part of the last rows of a square matrix.

    An ``(r, t)`` input with ``1 <= r <= t`` is read as the last ``r`` rows
    of a ``t x t`` causal matrix, so row ``i`` attends to columns up to
    ``t - r + i``; a square input is the whole matrix. Masked entries come
    out exactly zero; rows sum to 1. Uses max-subtraction for numerical
    stability.
    """
    logits = np.array(logits, dtype=np.float64, order="C")
    if logits.ndim != 2 or not 1 <= logits.shape[0] <= logits.shape[1]:
        raise ValueError(f"expected an (r, t) matrix with 1 <= r <= t, got shape {logits.shape}")
    _causal_softmax_inplace(logits)
    return logits


_BLOCK = 128
_STRICT_UPPER = ~np.tri(_BLOCK, dtype=bool)


def _causal_softmax_inplace(a: np.ndarray, scale: float = 1.0) -> None:
    # Each block of rows touches only the columns its rows see, so exp skips
    # the masked part. Every step is elementwise or exact and the sum still
    # reduces whole rows, so the bits equal a where/exp/divide on the square.
    r, t = a.shape
    for i0 in range(0, r, _BLOCK):
        i1 = min(i0 + _BLOCK, r)
        rows, block = a[i0:i1], a[i0:i1, : t - r + i1]
        block /= scale
        np.copyto(block[:, t - r + i0 :], -np.inf, where=_STRICT_UPPER[: i1 - i0, : i1 - i0])
        block -= block.max(axis=1, keepdims=True)
        np.exp(block, out=block)
        rows[:, t - r + i1 :] = 0.0
        block /= rows.sum(axis=1, keepdims=True)


def _rms_normalize(x: np.ndarray) -> np.ndarray:
    # Unit-gain RMS normalization; eps keeps zero rows finite.
    return x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + 1e-6)


@functools.lru_cache(maxsize=8)
class _Weights:
    """All model parameters, drawn once per config in a fixed order."""

    def __init__(self, config: ToyModelConfig):
        rng = np.random.default_rng(config.seed)
        scale = 1.0 / np.sqrt(config.model_dim)
        d, p, h = config.model_dim, config.proj_dim, config.heads

        def draw(*shape: int) -> np.ndarray:
            w = rng.uniform(-1.0, 1.0, size=shape) * scale
            w.flags.writeable = False
            return w

        shapes = dict(wq=(h, d, p), wk=(h, d, p), wv=(h, d, p), wo=(h * p, d), w1=(d, 4 * d), w2=(4 * d, d))
        self.layers = [{name: draw(*shape) for name, shape in shapes.items()} for _ in range(config.layers)]
        self.unembed = draw(d, d)


def default_input(config: ToyModelConfig) -> np.ndarray:
    """Seeded random token embeddings, shape (seq_len, model_dim)."""
    rng = np.random.default_rng([config.seed, 1])
    return rng.uniform(-1.0, 1.0, size=(config.seq_len, config.model_dim))


def _check_input(config: ToyModelConfig, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (config.seq_len, config.model_dim):
        raise ValueError(
            f"input shape {x.shape} does not match config "
            f"({config.seq_len}, {config.model_dim})"
        )
    return x


def _allocated(what: str, nbytes: int, make):
    try:
        return make()
    except (MemoryError, ValueError) as exc:
        raise ValueError(f"a {nbytes}-byte toy {what} cannot be allocated") from exc


# Below this sequence length a head's numpy calls are too short to pay for
# handing the GIL between threads. Full prefills at 8 layers, d=64, on 2 CPUs:
# threads took 1.2-2.4x as long at t=64-128, broke even near t=192-256 and
# took 0.6-0.8x as long at t=320-512.
_THREADED_SEQ_LEN = 256


def _head_workers(heads: int, seq_len: int) -> int:
    """``min(heads, CPUs)`` from ``_THREADED_SEQ_LEN`` tokens on, else 1."""
    if seq_len < _THREADED_SEQ_LEN:
        return 1
    # sched_getaffinity, which counts only the CPUs this process may run on, is Linux-only.
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else range(os.cpu_count() or 1)
    return min(heads, len(cpus))


def _each_head(body, heads: int, workers: int) -> None:
    """Call ``body(head)`` for every head on ``workers`` threads, this one included.

    Thread ``i`` runs heads ``i, i + workers, ...``; numpy releases the GIL in
    the matmuls, ufuncs and reductions of a head, so the threads overlap. All
    are joined before this returns, and the first exception any raised is
    raised here.
    """
    errors: list[BaseException] = []

    def run(first: int) -> None:
        try:
            for head in range(first, heads, workers):
                body(head)
        except BaseException as exc:  # raised again below, in the calling thread
            errors.append(exc)

    started: list[threading.Thread] = []
    try:
        for i in range(1, workers):
            started.append(threading.Thread(target=run, args=(i,)))
            started[-1].start()
        run(0)
    finally:
        # Also when a thread cannot be started: the ones that were still write to the arrays.
        for thread in started:
            if thread.is_alive():
                thread.join()
    if errors:
        raise errors[0]


def _forward(config: ToyModelConfig, x: np.ndarray | None, *, full: bool) -> PrefillResult:
    """Run the layers; a full pass writes each head's K and V into one cache array, a mini one stops early.

    Attention comes first, before anything is drawn, so a shape too large
    fails at once; the K/V cache (full pass only) comes after the weight set.
    """
    l, t, d, p, h = config.layers, config.seq_len, config.model_dim, config.proj_dim, config.heads
    attention = _allocated("attention array", l * h * t * t * 8, lambda: np.empty((l, h, t, t)))
    x = _allocated("input", t * d * 8, lambda: default_input(config)) if x is None else _check_input(config, x)
    weights = _allocated("weight set", (l * (4 * h * d * p + 8 * d * d) + d * d) * 8, lambda: _Weights(config))
    kv_nbytes = l * 2 * h * t * p * 4
    kv = _allocated("K/V cache", kv_nbytes, lambda: np.empty((l, 2, h, t, p), np.float32)) if full else None
    # Head i's context fills columns [i*p, (i+1)*p): the heads side by side, as the output projection reads them.
    contexts = np.empty((t, h * p))
    workers = _head_workers(h, t)

    for layer_idx, lw in enumerate(weights.layers):
        stop = not full and layer_idx == l - 1
        xn = _rms_normalize(x)

        def head_body(head: int) -> None:
            # Writes only this head's slots, so the bits do not depend on which thread runs it.
            q = xn @ lw["wq"][head]
            k = xn @ lw["wk"][head]
            attn = np.matmul(q, k.T, out=attention[layer_idx, head])
            _causal_softmax_inplace(attn, np.sqrt(p))
            if stop:
                return
            v = xn @ lw["wv"][head]
            if full:
                kv[layer_idx, 0, head], kv[layer_idx, 1, head] = k, v
            contexts[:, head * p : (head + 1) * p] = attn @ v

        _each_head(head_body, h, workers)
        if stop:
            # All attention statistics exist; the rest of the layer is dead
            # weight for scoring purposes.
            return PrefillResult(per_layer_attention=attention)
        x = x + contexts @ lw["wo"]
        hn = _rms_normalize(x)
        x = x + np.tanh(hn @ lw["w1"]) @ lw["w2"]

    logits = _rms_normalize(x)[-1] @ weights.unembed
    return PrefillResult(per_layer_attention=attention, kv_pairs=kv, first_token_logits=logits)


def full_prefill(config: ToyModelConfig, x: np.ndarray | None = None) -> PrefillResult:
    """Run every layer, keeping attention weights, the K/V cache, and logits.

    Each layer's heads run on ``min(heads, len(os.sched_getaffinity(0)))``
    threads when ``seq_len >= 256``, on one below that; the result has the
    same bits for any thread count.
    """
    return _forward(config, x, full=True)


def mini_prefill(config: ToyModelConfig, x: np.ndarray | None = None) -> PrefillResult:
    """Run the same layers cache-free, stopping after the last attention.

    The recorded attention weights equal ``full_prefill``'s elementwise; no
    K/V is ever stored, so the live cache footprint is zero bytes. Heads run
    on threads as in ``full_prefill``.
    """
    return _forward(config, x, full=False)
