"""Attention-weight traces: data model, binary file format, synthetic generation.

A trace holds one inference task's per-layer, per-head attention-weight
matrices. Traces are immutable after construction and are the common input
to score extraction, allocation, and eviction simulation.

File format (bit-exact, version 1): a single-line UTF-8 JSON header
terminated by ``\\n``, followed immediately by ``layers * heads * seq_len *
seq_len`` IEEE-754 binary32 little-endian values in layer-major / head /
row-major order.

A trace is valid by construction: building an ``AttentionTrace`` checks
every row once, so saving and scoring need not check again.

Loading reads the payload straight into one preallocated payload-sized
array, after checking the file size against the header; saving writes the
header and then the trace's own float32 buffer. Neither makes a second
whole-trace copy, and the file format is unchanged.
"""

from __future__ import annotations

import json
import os
import stat
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HEADER_DTYPE = "f32le"
HEADER_VERSION = 1

# Row sums may be off by up to 1e-3, so traces exported from half-precision
# sources still load.
ROW_SUM_ATOL = 1e-3


class TraceFormatError(ValueError):
    """Raised when a trace file or trace payload violates the format contract."""


@dataclass(frozen=True)
class TraceHeader:
    """Shape of one attention trace; the file's version and dtype have one value each."""

    layers: int
    heads: int
    seq_len: int

    def __post_init__(self) -> None:
        if self.layers < 1 or self.heads < 1:
            raise TraceFormatError(f"layers and heads must be >= 1, got {self.layers}x{self.heads}")
        if self.seq_len < 2:
            raise TraceFormatError(f"seq_len must be >= 2, got {self.seq_len}")

    @property
    def payload_bytes(self) -> int:
        return self.layers * self.heads * self.seq_len * self.seq_len * 4

    def to_json_line(self) -> bytes:
        obj = {
            "version": HEADER_VERSION,
            "layers": self.layers,
            "heads": self.heads,
            "seq_len": self.seq_len,
            "dtype": HEADER_DTYPE,
        }
        return json.dumps(obj, separators=(",", ":")).encode("utf-8") + b"\n"

    @classmethod
    def from_json_line(cls, line: bytes) -> "TraceHeader":
        # Also an integer past Python's digit limit, or nesting past the recursion limit.
        try:
            obj = json.loads(line.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            raise TraceFormatError(f"malformed trace header: {exc}") from exc
        if not isinstance(obj, dict):
            raise TraceFormatError("malformed trace header: not a JSON object")
        missing = {"version", "layers", "heads", "seq_len", "dtype"} - obj.keys()
        if missing:
            raise TraceFormatError(f"trace header missing keys: {sorted(missing)}")
        for key in ("version", "layers", "heads", "seq_len"):
            value = obj[key]
            if not isinstance(value, int) or isinstance(value, bool):
                raise TraceFormatError(f"trace header field {key!r} must be an integer, got {value!r}")
        if obj["version"] != HEADER_VERSION:
            raise TraceFormatError(f"unsupported trace version {obj['version']!r}")
        if obj["dtype"] != HEADER_DTYPE:
            raise TraceFormatError(f"unsupported dtype {obj['dtype']!r} (version 1 is {HEADER_DTYPE} only)")
        return cls(layers=obj["layers"], heads=obj["heads"], seq_len=obj["seq_len"])


@dataclass(frozen=True)
class AttentionTrace:
    """Per-layer, per-head causal attention weights for one task.

    ``weights`` has shape ``(layers, heads, seq_len, seq_len)``; every row of
    every per-head matrix is a probability distribution over positions up to
    its own index (zeros above the diagonal, row sums 1). Construction checks
    this with ``validate`` and raises TraceFormatError on the first offender.
    """

    header: TraceHeader
    weights: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        w = np.ascontiguousarray(self.weights, dtype=np.float32)
        expected = (self.header.layers, self.header.heads, self.header.seq_len, self.header.seq_len)
        if w.shape != expected:
            raise TraceFormatError(f"weights shape {w.shape} does not match header {expected}")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        self.validate()

    @property
    def layers(self) -> int:
        return self.header.layers

    @property
    def heads(self) -> int:
        return self.header.heads

    @property
    def seq_len(self) -> int:
        return self.header.seq_len

    def validate(self) -> None:
        """Check causality, finiteness, sign and row sums within ``ROW_SUM_ATOL``.

        Every row of every (layer, head) block is checked, one block at a
        time. Raises TraceFormatError carrying the layer/head/row coordinates
        of the first offender. Construction runs it once.
        """
        t = self.seq_len
        upper = ~np.tri(t, dtype=bool)
        for layer in range(self.layers):
            for head in range(self.heads):
                mat = self.weights[layer, head]
                where = f"layer {layer}, head {head}"
                bad = (mat != 0) & upper
                if bad.any():
                    row, col = np.argwhere(bad)[0]
                    raise TraceFormatError(
                        f"causality violation at {where}, row {row}: nonzero weight in column {col}"
                    )
                # A NaN or infinity anywhere in a row makes its sum non-finite.
                sums = mat.sum(axis=1, dtype=np.float64)
                finite = np.isfinite(sums)
                if not finite.all():
                    row = int(finite.argmin())
                    raise TraceFormatError(f"non-finite weight at {where}, row {row}")
                if mat.min() < 0:
                    row, col = np.argwhere(mat < 0)[0]
                    raise TraceFormatError(
                        f"negative weight at {where}, row {row}: {float(mat[row, col]):g} in column {col}"
                    )
                off = np.abs(sums - 1.0)
                if off.max() > ROW_SUM_ATOL:
                    row = int(off.argmax())
                    raise TraceFormatError(
                        f"row-sum violation at {where}, row {row}: "
                        f"sum {sums[row]:.6f} deviates beyond {ROW_SUM_ATOL:g}"
                    )


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters for seeded synthetic trace generation.

    ``sparsity`` is the fraction of columns carrying most of the attention
    mass; ``layer_skew`` controls how strongly the heavy-column sets (and the
    mass concentration) vary across layers. Generation is a pure function of
    the spec: identical specs yield bit-identical traces.
    """

    layers: int
    heads: int
    seq_len: int
    sparsity: float = 0.1
    seed: int = 0
    layer_skew: float = 0.0

    def __post_init__(self) -> None:
        if self.layers < 1 or self.heads < 1:
            raise ValueError(f"layers and heads must be >= 1, got {self.layers}x{self.heads}")
        if self.seq_len < 2:
            raise ValueError(f"seq_len must be >= 2, got {self.seq_len}")
        if not (0.0 < self.sparsity <= 1.0):
            raise ValueError(f"sparsity must be in (0, 1], got {self.sparsity}")
        if self.layer_skew < 0.0:
            raise ValueError(f"layer_skew must be >= 0, got {self.layer_skew}")


def generate_trace(spec: SyntheticSpec) -> AttentionTrace:
    """Generate a causal, row-stochastic trace with sparse column structure.

    Each layer concentrates most attention mass on a small heavy-column set
    drawn from a seeded permutation and shifted by ``layer_index *
    layer_skew``; the concentration itself also relaxes with the shifted
    layer index, so layers differ both in where the mass sits and in how
    hard it is to retain. With ``layer_skew == 0`` all layers are identical.
    """
    t = spec.seq_len
    rng = np.random.default_rng(spec.seed)
    k_heavy = max(1, int(round(spec.sparsity * t)))
    # Heavy columns live in the leading 3/4 of positions and shift cyclically
    # within that span: the tail is observation-window territory, and letting
    # heavy mass drift into it would make layers differ by clipping accidents
    # rather than by the intended skew.
    span = max(k_heavy, (3 * t) // 4)
    base_columns = rng.permutation(span)[:k_heavy]
    # Per-column jitter shared across layers: keeps rows off exact ties
    # without breaking cross-layer retention agreement at layer_skew == 0.
    jitter = 1.0 + 0.05 * rng.uniform(-1.0, 1.0, size=t)

    weights = np.empty((spec.layers, spec.heads, t, t), dtype=np.float32)
    lower = np.tri(t, dtype=np.float64)
    denom = max(1, spec.layers - 1)
    for layer in range(spec.layers):
        shift = int(round(layer * spec.layer_skew))
        heavy = (base_columns + shift) % span
        # Mass share of the heavy set: 0.95 at the first layer, easing toward
        # 0.50 as layer_skew * layer grows. Seed-independent, so tasks of the
        # same spec family share one cross-layer sensitivity trend.
        share = 0.95 - 0.45 * np.tanh(spec.layer_skew * layer / denom)
        profile = np.full(t, (1.0 - share) / max(1, t - k_heavy), dtype=np.float64)
        profile[heavy] = share / k_heavy
        if k_heavy == t:
            profile[:] = 1.0 / t
        profile *= jitter
        for head in range(spec.heads):
            tempered = profile if spec.heads == 1 else profile ** (0.9 + 0.2 * head / (spec.heads - 1))
            mat = lower * tempered[None, :]
            mat /= mat.sum(axis=1, keepdims=True)
            weights[layer, head] = mat.astype(np.float32)

    header = TraceHeader(layers=spec.layers, heads=spec.heads, seq_len=t)
    return AttentionTrace(header=header, weights=weights)


def save_trace(trace: AttentionTrace, path: str | Path) -> None:
    """Write a trace to disk in the bit-exact header+payload format.

    The trace was checked when it was built, so it is written as it is,
    straight from its float32 buffer, with no copy.
    """
    payload = trace.weights.astype("<f4", copy=False)
    with open(path, "wb") as fh:
        fh.write(trace.header.to_json_line())
        fh.write(payload.data)


def _check_payload_length(size: int, header: TraceHeader) -> None:
    if size != header.payload_bytes:
        raise TraceFormatError(
            f"payload length {size} bytes does not match header "
            f"(expected {header.payload_bytes})"
        )


def load_trace(path: str | Path) -> AttentionTrace:
    """Read a trace file, validating format, payload length, and invariants.

    For a regular file the payload size is checked against the header
    before anything is allocated; the payload is then read into one
    payload-sized array, which the returned trace holds. A pipe is checked
    by the count of bytes read. Building the trace checks its rows.
    """
    with open(path, "rb") as fh:
        line = fh.readline()
        if not line.endswith(b"\n"):
            raise TraceFormatError("malformed trace file: missing header line")
        header = TraceHeader.from_json_line(line[:-1])
        st = os.fstat(fh.fileno())
        if stat.S_ISREG(st.st_mode):
            _check_payload_length(st.st_size - fh.tell(), header)
        shape = (header.layers, header.heads, header.seq_len, header.seq_len)
        try:
            weights = np.empty(shape, dtype="<f4")
        except (MemoryError, ValueError) as exc:
            raise TraceFormatError(
                f"header promises a {header.payload_bytes}-byte payload, which cannot be allocated"
            ) from exc
        got = fh.readinto(weights.data)
        _check_payload_length(got + len(fh.read()), header)
    return AttentionTrace(header=header, weights=weights)
