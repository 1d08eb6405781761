"""Per-layer K/V eviction guided by an allocation list, with memory accounting.

Eviction keeps each layer's ``n_i`` highest-scoring non-window tokens plus
every observation-window token, in original order. The simulation entry
point applies this across all layers of a trace, whole or windowed (its
header gives the sequence length), a toy-model prefill included, and reports
retained indices, per-layer retention, and the compressed memory footprint.

Window tokens are retained on top of the per-layer budget, not inside it;
every report's ``window_policy`` says so.

Scoring reads only the observation-window rows of each layer:
``simulate_task`` scores through ``attnproc.process_trace``, which casts just
those rows to float64, and ``evict_layer`` computes logits for just the last
``ows`` queries, softmaxes them in place and scores them with
``attnproc.score_window``. A report is data with no text form: ``cli.py``
formats its stderr line and its JSON.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import metrics
from .attnproc import ProcSettings, ScoreVector, _causal_softmax_inplace, process_trace, score_window
from .allocator import AllocationList
from .trace import AttentionTrace, checked_integer

ELEMENT_BYTES = 4

WINDOW_POLICY = "observation window retained in addition to per-layer budget"


@dataclass(frozen=True)
class EvictionReport:
    """Outcome of one simulated task: what it counted, and the ratios and mean derived from that.

    The byte counts are Python ints, so ``compression_ratio`` is their correctly rounded quotient.
    """

    window_policy: ClassVar[str] = WINDOW_POLICY

    sizes: tuple[int, ...]
    ows: int
    retained_indices: tuple[tuple[int, ...], ...]
    bytes_before: int
    bytes_after: int
    per_layer_r: tuple[float, ...]

    @property
    def compression_ratio(self) -> float:
        return self.bytes_after / self.bytes_before

    @property
    def r_avg(self) -> float:
        return metrics.r_avg(self.per_layer_r)

    @property
    def memory_reduction(self) -> float:
        return 1.0 - self.compression_ratio


def _retained_for_layer(sv: ScoreVector, n: int, seq_len: int, ows: int) -> np.ndarray:
    top = metrics.topk_indices(sv, n)
    window = np.arange(seq_len - ows, seq_len)
    return np.sort(np.concatenate([top, window])).astype(int)


def evict_layer(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    n_i: int,
    settings: ProcSettings,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evict one layer's K/V rows down to ``n_i`` scored tokens plus the window.

    Recomputes the window rows' attention weights from the last ``ows``
    rows of ``q`` and all of ``k`` (scaled by the projection width), scores
    the non-window tokens from them, and keeps the top
    ``n_i`` of them (ties toward lower index) along with every window row.
    Returns the retained K rows, V rows, and their original indices in
    ascending order; retained rows are bit-equal slices of the inputs.
    """
    q = np.asarray(q, dtype=np.float64)
    k_arr = np.asarray(k)
    v_arr = np.asarray(v)
    if q.shape != k_arr.shape or k_arr.shape != v_arr.shape or q.ndim != 2:
        raise ValueError(
            f"q, k, v must share one (seq_len, proj_dim) shape, got "
            f"{q.shape}, {k_arr.shape}, {v_arr.shape}"
        )
    t, p = q.shape
    settings.check_seq_len(t)
    n_i = checked_integer("n_i", n_i, 0, t - settings.ows)
    window = q[t - settings.ows :] @ np.asarray(k_arr, dtype=np.float64).T
    _causal_softmax_inplace(window, np.sqrt(p))
    retained = _retained_for_layer(score_window(window, settings), n_i, t, settings.ows)
    return k_arr[retained], v_arr[retained], retained


def simulate_task(
    source: AttentionTrace,
    allocation: AllocationList,
    settings: ProcSettings,
    proj_dim: int = 64,
) -> EvictionReport:
    """Apply per-layer eviction across a whole task and account for memory.

    ``source`` supplies the attention weights: a trace, whole or its last
    rows, scored by ``process_trace``. ``proj_dim`` sets the per-token
    projection width used for byte accounting when the source carries no K/V
    (a full prefill's cache overrides it with the real width); it must be an
    integer >= 1 either way.
    """
    if not isinstance(allocation, AllocationList):
        raise ValueError(f"allocation must be an AllocationList, got {type(allocation).__name__}")
    proj_dim = checked_integer("proj_dim", proj_dim, 1)
    vectors = process_trace(source, settings)
    l, h, t = source.header.layers, source.header.heads, source.header.seq_len
    if getattr(source, "kv_pairs", None) is not None:
        proj_dim = source.kv_pairs.shape[-1]
    if len(allocation) != l:
        raise ValueError(f"allocation has {len(allocation)} layers, source has {l}")
    cap = t - settings.ows
    retained_indices = []
    per_layer_r = []
    for sv, n in zip(vectors, allocation.sizes):
        checked_integer(f"layer {sv.layer}: n_i", n, 0, cap)
        retained_indices.append(tuple(int(i) for i in _retained_for_layer(sv, n, t, settings.ows)))
        per_layer_r.append(metrics.retention(sv, n))

    per_token = 2 * h * proj_dim * ELEMENT_BYTES
    return EvictionReport(
        sizes=allocation.sizes,
        ows=settings.ows,
        retained_indices=tuple(retained_indices),
        bytes_before=l * t * per_token,
        bytes_after=sum((n + settings.ows) * per_token for n in allocation.sizes),
        per_layer_r=tuple(per_layer_r),
    )
