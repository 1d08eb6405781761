"""Attention-weight traces: data model, binary file format, synthetic generation.

A trace holds one inference task's per-layer, per-head attention-weight
matrices. Traces are immutable after construction and are the common input
to score extraction, allocation, and eviction simulation.

File format (bit-exact, version 1): a single-line UTF-8 JSON header
terminated by ``\\n``, followed immediately by ``layers * heads * seq_len *
seq_len`` IEEE-754 binary32 little-endian values in layer-major / head /
row-major order.

An ``AttentionTrace`` holds the last rows of each (layer, head) matrix, all of
them in a whole trace, as the file's ``<f4`` values, a toy prefill (a subclass)
included. Its header is read off the rows' shape, and it is valid by
construction: building one checks every row once, so saving and scoring need
not check again. ``_find_defect`` is the one check, over any run of rows of one
(layer, head) matrix, and ``_check_block`` raises what it finds.

The CLI streams traces in row chunks through one ``(n, t)`` float32 buffer of
``CHUNK_BYTES``: ``read_window`` reads a chunk, checks its rows before the
window and keeps its window rows, which building the result checks, and
``write_synthetic`` fills, checks and writes one. Their ``(t, t)`` block is
never touched, only a guard that the shape fits in memory. Neither holds the
payload, so traces larger than memory can be written and scored. ``load_trace``
is ``read_window`` keeping every row; it and ``save_trace`` hold one payload array.
"""

from __future__ import annotations

import json
import os
import stat
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HEADER_DTYPE = "f32le"
HEADER_VERSION = 1

# Row sums may be off by up to 1e-3, so traces exported from half-precision
# sources still load.
ROW_SUM_ATOL = 1e-3

# The streaming chunk buffer: this many bytes of rows, at least one, a whole matrix
# up to seq_len 256 (32 rows at 2048); below numpy's 4 MiB huge-page threshold.
CHUNK_BYTES = 256 << 10


class TraceFormatError(ValueError):
    """Raised when a trace file or trace payload violates the format contract."""


def is_integer(value: object) -> bool:
    """An int or a numpy integer, never a bool (a float equal to an integer is not one)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def set_integers(obj: object, **least: int) -> None:
    """Store each named field of the frozen dataclass ``obj`` as an int.

    Raises ValueError naming the first that is not an integer (``is_integer``) of at least its given least.
    """
    for name, low in least.items():
        value = getattr(obj, name)
        if not is_integer(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")
        object.__setattr__(obj, name, int(value))


def _header_integer(key: str, value: object) -> int:
    """``value`` as an int; TraceFormatError naming ``key`` unless it is an integer (``is_integer``)."""
    if not is_integer(value):
        raise TraceFormatError(f"trace header field {key!r} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class TraceHeader:
    """Shape of one attention trace, kept as Python ints; the file's version and dtype have one value each."""

    layers: int
    heads: int
    seq_len: int

    def __post_init__(self) -> None:
        for key in ("layers", "heads", "seq_len"):
            object.__setattr__(self, key, _header_integer(key, getattr(self, key)))
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
        _header_integer("version", obj["version"])  # the shape fields are checked by the constructor
        if obj["version"] != HEADER_VERSION:
            raise TraceFormatError(f"unsupported trace version {obj['version']!r}")
        if obj["dtype"] != HEADER_DTYPE:
            raise TraceFormatError(f"unsupported dtype {obj['dtype']!r} (version 1 is {HEADER_DTYPE} only)")
        return cls(layers=obj["layers"], heads=obj["heads"], seq_len=obj["seq_len"])


@dataclass(frozen=True, eq=False)
class AttentionTrace:
    """Per-layer, per-head causal attention weights for one task.

    ``weights`` has shape ``(layers, heads, w, seq_len)``: the last ``w`` rows,
    ``1 <= w <= seq_len``, of every per-head matrix (all of them in a whole
    trace), as the file format's ``<f4`` values. Every row is a probability
    distribution over positions up to its own index (zeros after it, row sums
    1). Construction checks this with ``validate`` and raises TraceFormatError
    on the first offender. ``header`` is not passed but read off that shape,
    so the two cannot disagree. Traces compare and hash by identity, as arrays
    have no single truth value.
    """

    header: TraceHeader = field(init=False)
    weights: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        w = np.ascontiguousarray(self.weights, dtype="<f4")
        if w.ndim != 4 or not 1 <= w.shape[2] <= w.shape[3]:
            raise TraceFormatError(f"weights shape {w.shape} is not (layers, heads, rows, seq_len), 1 <= rows <= seq_len")
        object.__setattr__(self, "header", TraceHeader(layers=w.shape[0], heads=w.shape[1], seq_len=w.shape[3]))
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        self.validate()

    def validate(self) -> None:
        """Check causality, finiteness, sign and row sums within ``ROW_SUM_ATOL``.

        Every row of every (layer, head) block is checked at its place in the
        matrix, one block at a time. Raises TraceFormatError carrying the
        layer/head/row coordinates of the first offender. Construction runs it once.
        """
        h, w = self.header, self.weights.shape[2]
        for layer, head in np.ndindex(h.layers, h.heads):
            _check_block(self.weights[layer, head], layer, head, h.seq_len - w)


# The causality check and the fill go 128 rows at a time; each band's diagonal is one square.
_BAND = 128
_LOWER = np.tri(_BAND)
_ABOVE = _LOWER == 0


def _find_defect(rows: np.ndarray, layer: int, head: int, first_row: int) -> tuple[tuple, str] | None:
    """The first defect in rows ``first_row`` onward of one (layer, head) matrix, as ``(key, message)``.

    ``rows`` is ``(r, t)``; its row ``i`` is row ``first_row + i`` of the
    ``t x t`` matrix. Causality is checked a 128-row band at a time, building
    no ``t x t`` mask unless it fails, then finiteness, sign and row sums over
    all the rows. The key is the matrix's place in a file, the rank of the
    check and, for a row-sum defect (the row of largest deviation), that
    deviation negated. Of runs of rows read in file order, the least key, or
    the earlier run on a tie, is what one check of them all reports. None if
    the rows are sound.
    """
    where = f"layer {layer}, head {head}"
    # Summed first, the rows are in cache for the causality check. A NaN or
    # infinity anywhere in a row makes its sum non-finite.
    sums = rows.sum(axis=1, dtype=np.float64)
    # Above each band's diagonal: the rest of its square, and every later column.
    for start in range(0, len(rows), _BAND):
        band = rows[start : start + _BAND]
        k, col = len(band), first_row + start
        if band[:, col + k :].any() or np.logical_and(band[:, col : col + k], _ABOVE[:k, :k]).any():
            row, col = np.argwhere((rows != 0) & ~np.tri(*rows.shape, k=first_row, dtype=bool))[0]
            return (layer, head, 0, 0.0), f"causality violation at {where}, row {first_row + row}: nonzero weight in column {col}"
    finite = np.isfinite(sums)
    if not finite.all():
        return (layer, head, 1, 0.0), f"non-finite weight at {where}, row {first_row + int(finite.argmin())}"
    if rows.min() < 0:
        row, col = np.argwhere(rows < 0)[0]
        return (layer, head, 2, 0.0), f"negative weight at {where}, row {first_row + row}: {float(rows[row, col]):g} in column {col}"
    off = np.abs(sums - 1.0)
    row = int(off.argmax())
    if off[row] > ROW_SUM_ATOL:
        message = f"sum {sums[row]:.6f} deviates beyond {ROW_SUM_ATOL:g}"
        return (layer, head, 3, -float(off[row])), f"row-sum violation at {where}, row {first_row + row}: {message}"
    return None


def _check_block(rows: np.ndarray, layer: int, head: int, first_row: int) -> None:
    """Raise TraceFormatError with ``_find_defect``'s message, if it finds a defect in these rows."""
    if (defect := _find_defect(rows, layer, head, first_row)) is not None:
        raise TraceFormatError(defect[1])


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
        set_integers(self, layers=1, heads=1, seq_len=2, seed=0)
        if not (0.0 < self.sparsity <= 1.0):
            raise ValueError(f"sparsity must be in (0, 1], got {self.sparsity}")
        # NaN fails >= 0; the last layer shifts by (layers - 1) * layer_skew.
        if not (self.layer_skew >= 0.0 and np.isfinite(self.layer_skew * max(1, self.layers - 1))):
            raise ValueError(f"layer_skew must be >= 0 with a finite (layers - 1) * layer_skew, got {self.layer_skew}")


def _head_profiles(spec: SyntheticSpec):
    """Yield ``(layer, head, profile)``: the column weights each row of a head normalises."""
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

    denom = max(1, spec.layers - 1)
    for layer in range(spec.layers):
        shift = round(layer * spec.layer_skew) % span  # reduced as a Python int, before int64
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
            yield layer, head, profile if spec.heads == 1 else profile ** (0.9 + 0.2 * head / (spec.heads - 1))


def _fill_rows(out: np.ndarray, profile: np.ndarray, first: int) -> None:
    """Fill the float32 ``out`` with rows ``first`` onward of ``profile``'s causal matrix, normalised.

    Each 128-row band is built in float64: the profile, its diagonal square
    times one lower triangle, then zeros. Each row is divided by its sum over
    the whole row straight into ``out``, so the bits equal a whole-matrix build.
    """
    mat = np.empty((min(_BAND, len(out)), profile.size))
    for start in range(0, len(out), _BAND):
        band, col = mat[: len(out) - start], first + start
        k = len(band)
        band[:, :col] = profile[:col]
        np.multiply(_LOWER[:k, :k], profile[col : col + k], out=band[:, col : col + k])
        band[:, col + k :] = 0.0
        np.divide(band, band.sum(axis=1, keepdims=True), out=out[start : start + k], casting="unsafe")


def _chunk_buffer(t: int) -> np.ndarray:
    """The ``(n, t)`` float32 chunk buffer of a ``t x t`` matrix: ``CHUNK_BYTES`` of rows, from 1 to ``t``."""
    return np.empty((max(1, min(t, CHUNK_BYTES // (4 * t))), t), dtype="<f4")


def _chunks(buffer: np.ndarray):
    """Yield ``(first_row, rows)`` per chunk of a ``(t, t)`` matrix, ``rows`` a view of ``buffer``'s first rows."""
    n, t = buffer.shape
    for first in range(0, t, n):
        yield first, buffer[: min(n, t - first)]


def _empty(shape: tuple[int, ...], what: str) -> np.ndarray:
    """An uninitialised ``<f4`` array, or TraceFormatError saying ``what`` cannot be allocated."""
    try:
        return np.empty(shape, dtype="<f4")
    except (MemoryError, ValueError) as exc:
        raise TraceFormatError(f"{what}, which cannot be allocated") from exc


def generate_trace(spec: SyntheticSpec) -> AttentionTrace:
    """Generate a causal, row-stochastic trace with sparse column structure.

    Each layer concentrates most attention mass on a small heavy-column set
    drawn from a seeded permutation and shifted by ``layer_index *
    layer_skew``; the concentration itself also relaxes with the shifted
    layer index, so layers differ both in where the mass sits and in how
    hard it is to retain. With ``layer_skew == 0`` all layers are identical.
    """
    t = spec.seq_len
    weights = np.empty((spec.layers, spec.heads, t, t), dtype=np.float32)
    for layer, head, profile in _head_profiles(spec):
        _fill_rows(weights[layer, head], profile, 0)
    return AttentionTrace(weights)


def write_synthetic(spec: SyntheticSpec, path: str | Path) -> None:
    """Write ``save_trace(generate_trace(spec), path)``'s bytes, one checked chunk of rows at a time.

    Rows go through one ``_chunk_buffer``. An untouched ``(t, t)`` block is allocated before
    ``path`` is opened, so a shape too large for memory raises TraceFormatError and writes nothing.
    """
    t = spec.seq_len
    header = TraceHeader(layers=spec.layers, heads=spec.heads, seq_len=t)
    _empty((t, t), f"a {spec.layers}x{spec.heads}x{t} trace needs a {t * t * 4}-byte block buffer")
    buffer = _chunk_buffer(t)
    with open(path, "wb") as fh:
        fh.write(header.to_json_line())
        for layer, head, profile in _head_profiles(spec):
            for first, rows in _chunks(buffer):
                _fill_rows(rows, profile, first)
                _check_block(rows, layer, head, first)
                fh.write(rows.data)


def save_trace(trace: AttentionTrace, path: str | Path) -> None:
    """Write a trace to disk in the bit-exact header+payload format.

    The trace was checked when it was built, so it is written as it is,
    straight from its float32 buffer, with no copy. A file holds whole
    matrices, so a window raises TraceFormatError before ``path`` is opened.
    """
    w, t = trace.weights.shape[2], trace.header.seq_len
    if w != t:
        raise TraceFormatError(f"cannot save the last {w} of {t} rows: files hold whole matrices")
    with open(path, "wb") as fh:
        fh.write(trace.header.to_json_line())
        fh.write(trace.weights.data)


def _check_payload_length(size: int, header: TraceHeader) -> None:
    if size != header.payload_bytes:
        raise TraceFormatError(f"payload length {size} bytes does not match header (expected {header.payload_bytes})")


def _read_header(fh) -> TraceHeader:
    """Parse the header line; check a regular file's payload size before any allocation."""
    line = fh.readline()
    if not line.endswith(b"\n"):
        raise TraceFormatError("malformed trace file: missing header line")
    header = TraceHeader.from_json_line(line[:-1])
    st = os.fstat(fh.fileno())
    if stat.S_ISREG(st.st_mode):
        _check_payload_length(st.st_size - fh.tell(), header)
    return header


def load_trace(path: str | Path) -> AttentionTrace:
    """Read a whole trace file, validating format, payload length, and invariants: ``read_window`` of every row."""
    return read_window(path, sys.maxsize)


def read_window(path: str | Path, ows: int) -> AttentionTrace:
    """Read a trace file in row chunks, keeping the last ``min(ows, seq_len)`` rows of each matrix.

    Each chunk is read into one ``_chunk_buffer``, its rows before the window
    checked there, as one check of all of them would report, and its window
    rows kept, which building the result checks. So every row of a sound file
    is checked once and this accepts and rejects what ``load_trace`` does. Of
    several defects, the first in this order is reported: the rows before the
    window, matrix by matrix, then the window rows; no matrix after the first
    defect's is checked. A file or a pipe is read to its end before any of
    them: a wrong payload length comes first. Only a piped header promising
    more than memory, whose ``(t, t)`` guard block (never touched) and window
    rows fit, reports its payload length where ``load_trace`` says it cannot be
    allocated. An ``ows`` below 1 or not an integer is a ValueError.
    """
    if not is_integer(ows) or ows < 1:
        raise ValueError(f"ows must be an integer >= 1, got {ows!r}")
    with open(path, "rb") as fh:
        header = _read_header(fh)
        t, w = header.seq_len, min(ows, header.seq_len)
        lo = t - w  # the first window row
        promise = f"header promises a {header.payload_bytes}-byte payload"
        block, window = _empty((t, t), promise), _empty((header.layers, header.heads, w, t), promise)
        del block  # a guard, never touched: it and the window rows had to fit at once
        buffer, got, defect = _chunk_buffer(t), 0, None
        chunks = ((*matrix, *c) for matrix in np.ndindex(header.layers, header.heads) for c in _chunks(buffer))
        for layer, head, first, rows in chunks:
            got += (n := fh.readinto(rows.data))
            if n < rows.nbytes:
                break
            end = first + len(rows)
            if end > lo:
                window[layer, head, max(first - lo, 0) : end - lo] = rows[max(lo - first, 0) :]
            # A later matrix's key is never the lesser; a later chunk of the same matrix's can be.
            checked = first < lo and (defect is None or (layer, head) <= defect[0][:2])
            found = _find_defect(rows[: lo - first], layer, head, first) if checked else None
            if found is not None and (defect is None or found[0] < defect[0]):
                defect = found
        # Bytes past the promised payload are counted through the chunk buffer, never held.
        while n := fh.readinto(buffer.data):
            got += n
        _check_payload_length(got, header)
    if defect is not None:
        raise TraceFormatError(defect[1])
    return AttentionTrace(window)
