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
(layer, head) matrix, and ``_check_block`` raises what it finds. A trace's defect
is its first bad row in file order (layer, head, row), under the first check it
fails: causality, finiteness, sign, row sum.

The CLI streams traces in row chunks through one ``(n, t)`` float32 buffer of
``CHUNK_BYTES``: ``read_window`` reads a chunk, checks its rows before the
window and keeps its window rows, which building the result checks, and
``write_synthetic`` fills, checks and writes one. ``read_window`` holds nothing
else; ``write_synthetic``'s untouched ``(t, t)`` block is only a size limit.
Neither holds the payload, so traces larger than memory can be written and
scored. ``load_trace`` is ``read_window`` keeping every row; it and ``save_trace`` hold one payload array.
"""

from __future__ import annotations

import json
import numbers
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

# ``to_json_line`` writes under 100 bytes; a file with no newline in this many is refused, the rest unread.
HEADER_BYTES = 1 << 20


class TraceFormatError(ValueError):
    """Raised when a trace file or trace payload violates the format contract."""


def is_integer(value: object) -> bool:
    """An int or a numpy integer, never a bool (a float equal to an integer is not one)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def checked_integer(name: str, value: object, least: int = 0, most: int | None = None) -> int:
    """``value`` as an int; ValueError naming ``name`` unless it is an integer (``is_integer``) in ``[least, most]``."""
    if not is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if most is None:
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value!r}")
    elif not least <= value <= most:
        raise ValueError(f"{name} must be in [{least}, {most}], got {value!r}")
    return int(value)


def checked_real(
    name: str, value: object, least: float = 0.0, most: float | None = None, *, open_least: bool = False
) -> float:
    """``value`` as a float; ValueError naming ``name`` unless it is a ``numbers.Real``, never a bool, whose float is in
    ``[least, most]`` (``(least, most]`` if ``open_least``, no top if no ``most``). NaN is in no range."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        real = float(value)
    except OverflowError:  # an int or a Fraction past float's range is an infinity
        real = np.inf if value > 0 else -np.inf
    if not (least < real if open_least else least <= real) or (most is not None and not real <= most):
        if most is None:
            raise ValueError(f"{name} must be {'>' if open_least else '>='} {least:g}, got {value!r}")
        raise ValueError(f"{name} must be in {'(' if open_least else '['}{least:g}, {most:g}], got {value!r}")
    return real


def json_object(data: bytes | str, what: str, keys: tuple[str, ...], error: type[ValueError] = ValueError) -> dict:
    """The JSON object in ``data``, bytes decoded as strict UTF-8 (never UTF-16), if it has every one of ``keys``.

    Else ``error``: ``malformed {what}: ...`` for a decode or parse error, nesting past the recursion limit
    included, or a non-object, and ``{what} missing keys: [...]``."""
    try:
        obj = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (ValueError, RecursionError) as exc:
        raise error(f"malformed {what}: {exc}") from exc
    if not isinstance(obj, dict):
        raise error(f"malformed {what}: not a JSON object")
    if missing := set(keys) - obj.keys():
        raise error(f"{what} missing keys: {sorted(missing)}")
    return obj


def set_integers(obj: object, **least: int) -> None:
    """Store each named field of the frozen dataclass ``obj`` as a ``checked_integer`` of at least its given least."""
    for name, low in least.items():
        object.__setattr__(obj, name, checked_integer(name, getattr(obj, name), low))


@dataclass(frozen=True)
class TraceHeader:
    """Shape of one attention trace, kept as Python ints; the file's version and dtype have one value each."""

    layers: int
    heads: int
    seq_len: int

    def __post_init__(self) -> None:
        try:
            set_integers(self, layers=1, heads=1, seq_len=2)
        except ValueError as exc:
            raise TraceFormatError(str(exc)) from None

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
        obj = json_object(line, "trace header", ("version", "layers", "heads", "seq_len", "dtype"), TraceFormatError)
        # The shape fields are checked by the constructor.
        if not is_integer(obj["version"]) or obj["version"] != HEADER_VERSION:
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


@np.errstate(invalid="ignore")  # inf + -inf, and any test of a signalling NaN, flag an invalid operation
def _find_defect(rows: np.ndarray, layer: int, head: int, first_row: int) -> str | None:
    """The message for the first defective row of rows ``first_row`` onward of one (layer, head) matrix, or None.

    ``rows`` is ``(r, t)``; its row ``i`` is row ``first_row + i`` of the
    ``t x t`` matrix. A row is reported under the first check it fails:
    causality, finiteness, sign, row sum. Sound rows pay only for float64 row
    sums, causality by 128-row band with no ``t x t`` mask, and ``rows.min()``.
    No check warns.
    """
    # Summed first, the rows are in cache for the causality check. A NaN or
    # infinity anywhere in a row makes its sum non-finite.
    sums = rows.sum(axis=1, dtype=np.float64)
    off = np.abs(sums - 1.0)
    # Above each band's diagonal: the rest of its square, and every later column.
    for start in range(0, len(rows), _BAND):
        band = rows[start : start + _BAND]
        k, col = len(band), first_row + start
        if band[:, col + k :].any() or np.logical_and(band[:, col : col + k], _ABOVE[:k, :k]).any():
            break
    else:  # causal: the rest of the whole-run tests
        if np.isfinite(sums).all() and rows.min() >= 0 and off.max() <= ROW_SUM_ATOL:
            return None
    above = (rows != 0) & ~np.tri(*rows.shape, k=first_row, dtype=bool)
    fails = above.any(axis=1), ~np.isfinite(sums), (rows < 0).any(axis=1), off > ROW_SUM_ATOL
    row = int(np.logical_or.reduce(fails).argmax())
    where = f"at layer {layer}, head {head}, row {first_row + row}"
    if fails[0][row]:
        return f"causality violation {where}: nonzero weight in column {above[row].argmax()}"
    if fails[1][row]:
        return f"non-finite weight {where}"
    if fails[2][row]:
        col = int((rows[row] < 0).argmax())
        return f"negative weight {where}: {float(rows[row, col]):g} in column {col}"
    return f"row-sum violation {where}: sum {sums[row]:.6f} deviates beyond {ROW_SUM_ATOL:g}"


def _check_block(rows: np.ndarray, layer: int, head: int, first_row: int) -> None:
    """Raise TraceFormatError with ``_find_defect``'s message, if it finds a defect in these rows."""
    if (message := _find_defect(rows, layer, head, first_row)) is not None:
        raise TraceFormatError(message)


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
        object.__setattr__(self, "sparsity", checked_real("sparsity", self.sparsity, 0.0, 1.0, open_least=True))
        skew = checked_real("layer_skew", self.layer_skew)
        if not np.isfinite(skew * max(1, self.layers - 1)):  # the last layer's shift
            raise ValueError(f"layer_skew must be >= 0 with a finite (layers - 1) * layer_skew, got {self.layer_skew!r}")
        object.__setattr__(self, "layer_skew", skew)


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
    l, h, t = spec.layers, spec.heads, spec.seq_len
    weights = _empty((l, h, t, t), f"{spec!r} needs a {l * h * t * t * 4}-byte payload")
    for layer, head, profile in _head_profiles(spec):
        _fill_rows(weights[layer, head], profile, 0)
    return AttentionTrace(weights)


def write_synthetic(spec: SyntheticSpec, path: str | Path) -> None:
    """Write ``save_trace(generate_trace(spec), path)``'s bytes, one checked chunk of rows at a time.

    Rows go through one ``_chunk_buffer``. An untouched ``(t, t)`` block is allocated before ``path``
    is opened, as a size limit, not memory the writer needs: a shape whose one matrix could not be held
    raises TraceFormatError and writes nothing, not a file that would fill the disk.
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
    """Parse the header line, read no further than ``HEADER_BYTES``; check a regular file's payload size."""
    line = fh.readline(HEADER_BYTES)
    if not line.endswith(b"\n"):
        raise TraceFormatError(f"malformed trace file: no header line in its first {HEADER_BYTES} bytes")
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
    checked there and its window rows kept, which building the result checks,
    so every row of a sound file is checked once. No chunk after the first
    defect is checked, but every earlier matrix's window rows are, so any
    ``ows`` reports the first defective row in file order, as ``load_trace``
    does. A file or a pipe is read to its end first: a wrong payload length
    comes before any defect. The reader holds its window rows and the chunk
    buffer, nothing else, so a piped header whose window rows fit reports its
    payload length. An ``ows`` below 1 or not an integer is a ValueError.
    """
    ows = checked_integer("ows", ows, 1)
    with open(path, "rb") as fh:
        header = _read_header(fh)
        t, w = header.seq_len, min(ows, header.seq_len)
        lo = t - w  # the first window row
        window = _empty((header.layers, header.heads, w, t), f"header promises a {header.payload_bytes}-byte payload")
        buffer, got, defect = _chunk_buffer(t), 0, None
        chunks = ((*matrix, *c) for matrix in np.ndindex(header.layers, header.heads) for c in _chunks(buffer))
        for layer, head, first, rows in chunks:
            got += (n := fh.readinto(rows.data))
            if n < rows.nbytes:
                break
            end = first + len(rows)
            if end > lo:
                window[layer, head, max(first - lo, 0) : end - lo] = rows[max(lo - first, 0) :]
            if defect is None and first < lo and (found := _find_defect(rows[: lo - first], layer, head, first)):
                defect = layer * header.heads + head, found
        # Bytes past the promised payload are counted through the chunk buffer, never held.
        while n := fh.readinto(buffer.data):
            got += n
        _check_payload_length(got, header)
    if defect is not None:
        matrix, message = defect
        # The window rows of every earlier matrix come before the defect in the file.
        for i, rows in enumerate(window.reshape(-1, w, t)[:matrix]):
            _check_block(rows, *divmod(i, header.heads), lo)
        raise TraceFormatError(message)
    return AttentionTrace(window)
