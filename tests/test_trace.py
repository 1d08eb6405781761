"""Trace data model, binary format, and synthetic generation."""

import json
import os
import re
import struct
import threading
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from kvalloc import trace as trace_module
from kvalloc.allocator import AllocationList
from kvalloc.attnproc import ProcSettings, process_trace
from kvalloc.eviction import simulate_task
from kvalloc.metrics import retention_curve
from kvalloc.sampling import load_profile
from kvalloc.toymodel import ToyModelConfig, mini_prefill
from kvalloc.trace import (
    AttentionTrace,
    SyntheticSpec,
    TraceFormatError,
    TraceHeader,
    checked_real,
    generate_trace,
    json_object,
    load_trace,
    read_window,
    save_trace,
    write_synthetic,
)

HEADER_2TOK = b'{"version":1,"layers":1,"heads":1,"seq_len":2,"dtype":"f32le"}\n'


def whole_matrix_generate(spec: SyntheticSpec) -> np.ndarray:
    """The generator as it was before row blocks: each head a float64 t x t matrix, then cast."""
    t = spec.seq_len
    rng = np.random.default_rng(spec.seed)
    k_heavy = max(1, int(round(spec.sparsity * t)))
    span = max(k_heavy, (3 * t) // 4)
    base_columns = rng.permutation(span)[:k_heavy]
    jitter = 1.0 + 0.05 * rng.uniform(-1.0, 1.0, size=t)
    weights = np.empty((spec.layers, spec.heads, t, t), dtype=np.float32)
    lower = np.tri(t, dtype=np.float64)
    denom = max(1, spec.layers - 1)
    for layer in range(spec.layers):
        heavy = (base_columns + round(layer * spec.layer_skew) % span) % span
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
    return weights


def feed_pipe(tmp_path, data: bytes, read):
    """Call ``read`` on a named pipe that a thread fills with ``data``; return or raise what it does."""
    fifo = tmp_path / "fifo"
    if fifo.exists():
        fifo.unlink()
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as fh:
            try:
                fh.write(data)
            except BrokenPipeError:
                pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        return read(fifo)
    finally:
        writer.join(timeout=10)
        assert not writer.is_alive()


def assert_every_reader_says(tmp_path, path, message: str) -> None:
    """``load_trace``, ``read_window`` at ows 1 and 8, a pipe of each, and a built trace all raise ``message``."""
    data = path.read_bytes()
    line_end = data.index(b"\n")
    header = TraceHeader.from_json_line(data[:line_end])
    weights = np.frombuffer(data, "<f4", offset=line_end + 1).reshape(header.layers, header.heads, header.seq_len, -1)
    reads = [load_trace, lambda p: AttentionTrace(weights)]
    for ows in (1, 8):
        reads.append(lambda p, ows=ows: read_window(p, ows))
        if hasattr(os, "mkfifo"):
            reads.append(lambda p, ows=ows: feed_pipe(tmp_path, data, lambda fifo: read_window(fifo, ows)))
    for read in reads:
        with pytest.raises(TraceFormatError, match=f"^{re.escape(message)}$"):
            read(path)


class TestHeader:
    def test_json_line_is_canonical(self):
        header = TraceHeader(layers=1, heads=1, seq_len=2)
        assert header.to_json_line() == HEADER_2TOK

    def test_roundtrip(self):
        header = TraceHeader(layers=3, heads=4, seq_len=17)
        assert TraceHeader.from_json_line(header.to_json_line().strip()) == header

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"layers": 0, "heads": 1, "seq_len": 2},
            {"layers": 1, "heads": 0, "seq_len": 2},
            {"layers": 1, "heads": 1, "seq_len": 1},
            {"layers": 1, "heads": 1, "seq_len": 2, "version": 2},
            {"layers": 1, "heads": 1, "seq_len": 2, "dtype": "f16le"},
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        # The header line carries the version and dtype, each with one allowed
        # value: from_json_line checks them, and TraceHeader holds the shape only.
        line = json.dumps({"version": 1, "dtype": "f32le", **kwargs}).encode("utf-8")
        with pytest.raises(TraceFormatError):
            TraceHeader.from_json_line(line)
        shape_only = kwargs.keys() == {"layers", "heads", "seq_len"}
        with pytest.raises(TraceFormatError if shape_only else TypeError):
            TraceHeader(**kwargs)

    def test_missing_keys_rejected(self):
        with pytest.raises(TraceFormatError, match="missing keys"):
            TraceHeader.from_json_line(b'{"version":1}')

    def test_non_json_rejected(self):
        with pytest.raises(TraceFormatError, match="malformed"):
            TraceHeader.from_json_line(b"\xff\xfe not json")


class TestLoadSave:
    def test_two_token_identity_case(self, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(HEADER_2TOK + struct.pack("<4f", 1.0, 0.0, 0.5, 0.5))
        trace = load_trace(path)
        assert trace.header == TraceHeader(layers=1, heads=1, seq_len=2)
        assert trace.weights.tolist() == [[[[1.0, 0.0], [0.5, 0.5]]]]

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(HEADER_2TOK + struct.pack("<4f", 1.0, 0.0, 0.5, 0.5))
        (tmp_path / "cut.bin").write_bytes(path.read_bytes()[:-4])
        with pytest.raises(TraceFormatError, match="payload length"):
            load_trace(tmp_path / "cut.bin")

    def test_missing_header_line_rejected(self, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(b"no newline in sight")
        with pytest.raises(TraceFormatError, match="header"):
            load_trace(path)

    def test_roundtrip_bit_identical(self, tmp_path):
        spec = SyntheticSpec(layers=3, heads=2, seq_len=32, sparsity=0.2, seed=11, layer_skew=1.0)
        trace = generate_trace(spec)
        first = tmp_path / "a.bin"
        second = tmp_path / "b.bin"
        save_trace(trace, first)
        save_trace(load_trace(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_causality_violation_reported_with_coordinates(self, tmp_path):
        path = tmp_path / "t.bin"
        # row 0 puts weight on a future position
        path.write_bytes(HEADER_2TOK + struct.pack("<4f", 0.5, 0.5, 0.5, 0.5))
        with pytest.raises(TraceFormatError, match=r"layer 0, head 0, row 0"):
            load_trace(path)

    def test_row_sum_violation_reported_with_coordinates(self, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(HEADER_2TOK + struct.pack("<4f", 1.0, 0.0, 0.5, 0.4))
        with pytest.raises(TraceFormatError, match=r"layer 0, head 0, row 1"):
            load_trace(path)

    def test_half_precision_slack_accepted(self, tmp_path):
        # off by 5e-4: within the 1e-3 row-sum tolerance
        path = tmp_path / "t.bin"
        path.write_bytes(HEADER_2TOK + struct.pack("<4f", 1.0, 0.0, 0.5005, 0.5))
        trace = load_trace(path)
        assert trace.weights[0, 0, 1].tolist() == [np.float32(0.5005), 0.5]

    def test_save_refuses_invariant_violation(self, tmp_path):
        # A trace that breaks an invariant cannot be built, so there is nothing to save.
        weights = np.array([[[[0.5, 0.5], [0.5, 0.5]]]])
        with pytest.raises(TraceFormatError, match=r"causality violation at layer 0, head 0, row 0"):
            save_trace(AttentionTrace(weights), tmp_path / "bad.bin")
        assert not (tmp_path / "bad.bin").exists()

    def test_save_empty_path_is_io_error(self):
        spec = SyntheticSpec(layers=1, heads=1, seq_len=4, sparsity=1.0, seed=0)
        with pytest.raises(OSError):
            save_trace(generate_trace(spec), "")

    @pytest.mark.parametrize("ows", [1, 3, 5, 9])
    def test_header_is_read_off_the_rows(self, tmp_path, ows):
        path = tmp_path / "t.bin"
        write_synthetic(SyntheticSpec(layers=2, heads=3, seq_len=5, seed=2), path)
        with open(path, "rb") as fh:
            parsed = TraceHeader.from_json_line(fh.readline()[:-1])
        assert parsed == TraceHeader(layers=2, heads=3, seq_len=5)
        assert read_window(path, ows).header == load_trace(path).header == parsed

    def test_save_refuses_a_window(self, tmp_path):
        spec = SyntheticSpec(layers=2, heads=1, seq_len=8, sparsity=0.5, seed=1)
        whole = tmp_path / "whole.bin"
        save_trace(generate_trace(spec), whole)
        window = read_window(whole, 3)
        with pytest.raises(TraceFormatError, match="cannot save the last 3 of 8 rows"):
            save_trace(window, tmp_path / "window.bin")
        assert not (tmp_path / "window.bin").exists()


class TestGenerate:
    def test_same_spec_is_bit_identical(self):
        spec = SyntheticSpec(layers=4, heads=3, seq_len=40, sparsity=0.15, seed=99, layer_skew=2.5)
        a = generate_trace(spec)
        b = generate_trace(spec)
        assert a.weights.tobytes() == b.weights.tobytes()

    # Building the trace checks rows to the 1e-3 file tolerance; this property
    # holds the generator to 1e-5.
    @settings(max_examples=60, deadline=None)
    @given(
        st.builds(
            SyntheticSpec,
            layers=st.integers(1, 4),
            heads=st.integers(1, 4),
            seq_len=st.integers(2, 96),
            sparsity=st.floats(0.001, 1.0),
            seed=st.integers(0, 2**32 - 1),
            layer_skew=st.floats(0.0, 8.0),
        )
    )
    def test_generated_traces_are_causal_row_stochastic(self, spec):
        trace = generate_trace(spec)
        sums = trace.weights.sum(axis=3, dtype=np.float64)
        assert np.abs(sums - 1.0).max() <= 1e-5

    def test_sparsity_one_skew_zero_gives_near_uniform_rows(self):
        spec = SyntheticSpec(layers=3, heads=1, seq_len=16, sparsity=1.0, seed=5, layer_skew=0.0)
        trace = generate_trace(spec)
        for i in range(16):
            row = trace.weights[0, 0, i, : i + 1].astype(np.float64)
            assert np.all(row > 0.5 / (i + 1))
            assert row.max() / row.min() < 1.25

    def test_sparsity_one_skew_zero_retention_curves_agree_across_layers(self):
        spec = SyntheticSpec(layers=4, heads=1, seq_len=32, sparsity=1.0, seed=21, layer_skew=0.0)
        trace = generate_trace(spec)
        vectors = process_trace(trace, ProcSettings(ows=4, pool_size=1))
        curves = [retention_curve(v) for v in vectors]
        for other in curves[1:]:
            assert np.abs(other - curves[0]).max() <= 1e-6

    def test_skew_moves_heavy_column_sets_across_layers(self):
        spec = SyntheticSpec(layers=4, heads=1, seq_len=64, sparsity=0.1, seed=3, layer_skew=2.0)
        trace = generate_trace(spec)
        top8 = []
        for layer in range(4):
            mass = trace.weights[layer].astype(np.float64).mean(axis=0).sum(axis=0)
            top8.append(frozenset(np.argsort(-mass, kind="stable")[:8].tolist()))
        assert len(set(top8)) >= 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"layers": 0, "heads": 1, "seq_len": 8},
            {"layers": 1, "heads": 1, "seq_len": 1},
            {"layers": 1, "heads": 1, "seq_len": 8, "sparsity": 0.0},
            {"layers": 1, "heads": 1, "seq_len": 8, "sparsity": 1.5},
            {"layers": 1, "heads": 1, "seq_len": 8, "layer_skew": -1.0},
        ],
    )
    def test_invalid_spec_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SyntheticSpec(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"seed": -1}, "seed must be >= 0, got -1"),
            ({"seed": 1.0}, "seed must be an integer, got 1.0"),
            ({"layers": 2.5}, "layers must be an integer, got 2.5"),
            ({"heads": True}, "heads must be an integer, got True"),
            ({"seq_len": np.float64(8.0)}, "seq_len must be an integer, got np.float64(8.0)"),
        ],
    )
    def test_non_integer_or_negative_fields_rejected_by_name(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SyntheticSpec(**{"layers": 1, "heads": 1, "seq_len": 8, **kwargs})

    @pytest.mark.parametrize("field", ["sparsity", "layer_skew"])
    @pytest.mark.parametrize("value", [True, np.True_, "0.5", None], ids=repr)
    def test_non_real_field_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be a real number, got {re.escape(repr(value))}$"):
            SyntheticSpec(layers=2, heads=1, seq_len=8, **{field: value})

    @pytest.mark.parametrize(
        "layers, skew", [(1, float("nan")), (2, float("nan")), (1, float("inf")), (3, 1e308)]
    )
    def test_non_finite_layer_skew_rejected_by_name(self, layers, skew):
        with pytest.raises(ValueError, match="layer_skew"):
            SyntheticSpec(layers=layers, heads=1, seq_len=8, layer_skew=skew)

    # Every finite skew either builds a valid trace or is refused with a
    # ValueError; it is refused only when the last layer's shift overflows.
    @settings(max_examples=80, deadline=None)
    @given(
        layers=st.integers(1, 4),
        heads=st.integers(1, 2),
        seq_len=st.integers(2, 12),
        layer_skew=st.floats(0.0, 1e308),
    )
    @example(layers=2, heads=1, seq_len=8, layer_skew=1e300)
    @example(layers=2, heads=1, seq_len=8, layer_skew=1e308)
    @example(layers=4, heads=1, seq_len=8, layer_skew=2.0**63)
    def test_every_finite_layer_skew_builds_or_is_refused(self, layers, heads, seq_len, layer_skew):
        try:
            spec = SyntheticSpec(layers=layers, heads=heads, seq_len=seq_len, layer_skew=layer_skew)
        except ValueError as exc:
            assert "layer_skew" in str(exc)
            assert not np.isfinite(layer_skew * (layers - 1))
            return
        trace = generate_trace(spec)
        assert trace.weights.shape == (layers, heads, seq_len, seq_len)

    def test_huge_skew_shifts_by_its_remainder(self):
        # Past tanh's saturation only shift % span tells two skews apart, so
        # 1e300 must give the trace of its remainder plus a multiple of span.
        spec = SyntheticSpec(layers=2, heads=1, seq_len=8, layer_skew=1e300)
        span = 6  # max(k_heavy, 3 * 8 // 4) with k_heavy = round(0.1 * 8)
        small = SyntheticSpec(layers=2, heads=1, seq_len=8, layer_skew=float(int(1e300) % span + 10 * span))
        assert generate_trace(spec).weights.tobytes() == generate_trace(small).weights.tobytes()

    # Bands of 128 rows must give the whole-matrix bits, so seq_len runs past
    # one band and off its multiples; writing chunk by chunk gives the bytes of
    # saving the generated trace, so chunks of `chunk_rows` rows (None: the
    # module's own, one chunk up to seq_len 256) split matrices off both.
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.builds(
            SyntheticSpec,
            layers=st.integers(1, 3),
            heads=st.integers(1, 3),
            seq_len=st.one_of(st.integers(2, 40), st.integers(257, 700), st.integers(725, 800)),
            sparsity=st.floats(0.001, 1.0),
            seed=st.integers(0, 2**32 - 1),
            layer_skew=st.floats(0.0, 8.0),
        ),
        st.one_of(st.none(), st.integers(1, 300)),
    )
    @example(SyntheticSpec(layers=1, heads=2, seq_len=513, sparsity=0.02, seed=1, layer_skew=2.5), None)
    @example(SyntheticSpec(layers=2, heads=1, seq_len=768, sparsity=1.0, seed=2), None)
    @example(SyntheticSpec(layers=2, heads=3, seq_len=725, sparsity=0.1, seed=3, layer_skew=1.0), None)
    @example(SyntheticSpec(layers=1, heads=1, seq_len=1000, sparsity=0.02, seed=4), None)
    @example(SyntheticSpec(layers=2, heads=2, seq_len=256, sparsity=0.1, seed=7, layer_skew=1.5), None)
    @example(SyntheticSpec(layers=2, heads=2, seq_len=257, sparsity=0.1, seed=8, layer_skew=1.5), None)
    @example(SyntheticSpec(layers=2, heads=2, seq_len=300, sparsity=0.05, seed=5, layer_skew=0.5), 129)
    @example(SyntheticSpec(layers=3, heads=1, seq_len=2, sparsity=0.5, seed=6), 1)
    def test_row_blocks_match_the_whole_matrix_build(self, tmp_path, monkeypatch, spec, chunk_rows):
        if chunk_rows is not None:
            monkeypatch.setattr(trace_module, "CHUNK_BYTES", chunk_rows * 4 * spec.seq_len)
        trace = generate_trace(spec)
        assert trace.weights.tobytes() == whole_matrix_generate(spec).tobytes()
        save_trace(trace, tmp_path / "saved.bin")
        write_synthetic(spec, tmp_path / "written.bin")
        assert (tmp_path / "written.bin").read_bytes() == (tmp_path / "saved.bin").read_bytes()

    def test_writer_checks_each_block_before_writing_it(self, tmp_path, monkeypatch):
        spec = SyntheticSpec(layers=2, heads=1, seq_len=8)
        bad = np.ones(8)
        bad[1] = -0.5  # row 1 normalises to [2, -1]
        monkeypatch.setattr(trace_module, "_head_profiles", lambda spec: iter([(0, 0, bad)]))
        path = tmp_path / "t.bin"
        with pytest.raises(TraceFormatError, match="negative weight at layer 0, head 0, row 1: -1 in column 1"):
            write_synthetic(spec, path)
        assert path.read_bytes() == TraceHeader(layers=2, heads=1, seq_len=8).to_json_line()
        # In chunks of one row, row 0 ([1, 0, ...]) is written and row 1 is not.
        monkeypatch.setattr(trace_module, "CHUNK_BYTES", 8 * 4)
        with pytest.raises(TraceFormatError, match="negative weight at layer 0, head 0, row 1: -1 in column 1"):
            write_synthetic(spec, path)
        row0 = np.eye(1, 8, dtype="<f4").tobytes()
        assert path.read_bytes() == TraceHeader(layers=2, heads=1, seq_len=8).to_json_line() + row0

    def test_header_matches_synthetic_spec(self):
        spec = SyntheticSpec(layers=2, heads=3, seq_len=12, sparsity=0.5, seed=1)
        trace = generate_trace(spec)
        assert trace.header == TraceHeader(layers=2, heads=3, seq_len=12)

    def test_file_header_fields(self, tmp_path):
        spec = SyntheticSpec(layers=2, heads=1, seq_len=8, sparsity=0.5, seed=1)
        path = tmp_path / "t.bin"
        save_trace(generate_trace(spec), path)
        first_line = path.read_bytes().split(b"\n", 1)[0]
        assert json.loads(first_line) == {
            "version": 1,
            "layers": 2,
            "heads": 1,
            "seq_len": 8,
            "dtype": "f32le",
        }


class TestHeaderFieldTypes:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("layers", "3"),
            ("layers", 1.5),
            ("layers", 3.0),
            ("layers", True),
            ("heads", None),
            ("heads", [1]),
            ("seq_len", "2"),
            ("seq_len", 2.0),
            ("version", True),
            ("version", 1.0),
        ],
    )
    def test_non_integer_field_rejected(self, tmp_path, field, value):
        obj = {"version": 1, "layers": 1, "heads": 1, "seq_len": 2, "dtype": "f32le"}
        obj[field] = value
        line = json.dumps(obj, separators=(",", ":")).encode("utf-8")
        with pytest.raises(TraceFormatError, match=field):
            TraceHeader.from_json_line(line)
        path = tmp_path / "t.bin"
        path.write_bytes(line + b"\n" + struct.pack("<4f", 1.0, 0.0, 0.5, 0.5))
        with pytest.raises(TraceFormatError, match=field):
            load_trace(path)

    @pytest.mark.parametrize("field", ["layers", "heads", "seq_len"])
    @pytest.mark.parametrize("value", [True, False, 2.0, np.float64(4.0), "2", None], ids=repr)
    def test_built_header_refuses_a_non_integer_by_name(self, field, value):
        # The message from_json_line gives for the same field in a file.
        shape = {"layers": 1, "heads": 1, "seq_len": 4, field: value}
        message = f"^{field} must be an integer, got {re.escape(repr(value))}$"
        with pytest.raises(TraceFormatError, match=message):
            TraceHeader(**shape)

    @pytest.mark.parametrize("integer", [int, np.int64, np.int32, np.uint8], ids=lambda t: t.__name__)
    def test_a_built_header_saves_what_loads_back(self, tmp_path, integer):
        header = TraceHeader(layers=integer(1), heads=integer(2), seq_len=integer(3))
        assert type(header.layers) is type(header.heads) is type(header.seq_len) is int
        rows = np.tri(3) / np.arange(1, 4)[:, None]
        trace = AttentionTrace(np.broadcast_to(rows, (1, 2, 3, 3)))
        assert trace.header == header
        path = tmp_path / "t.bin"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.header == header
        assert loaded.weights.tobytes() == trace.weights.tobytes()


class TestCheckedReal:
    @settings(max_examples=200, deadline=None)
    @given(value=st.floats(), open_least=st.booleans())
    @example(value=0.0, open_least=False)
    @example(value=0.0, open_least=True)
    @example(value=1.0, open_least=True)
    @example(value=float("nan"), open_least=False)
    @example(value=float("inf"), open_least=False)
    @example(value=float("-inf"), open_least=True)
    def test_a_float_is_kept_exactly_when_in_the_range(self, value, open_least):
        inside = (0.0 < value if open_least else 0.0 <= value) and value <= 1.0
        if inside:
            got = checked_real("x", value, 0.0, 1.0, open_least=open_least)
            assert type(got) is float and got == value
        else:
            interval = "(0, 1]" if open_least else "[0, 1]"
            with pytest.raises(ValueError, match=f"^x must be in {re.escape(interval)}, got {re.escape(repr(value))}$"):
                checked_real("x", value, 0.0, 1.0, open_least=open_least)

    @settings(max_examples=200, deadline=None)
    @given(value=st.floats(), least=st.floats(-10.0, 10.0), open_least=st.booleans())
    @example(value=float("inf"), least=0.0, open_least=False)
    @example(value=float("-inf"), least=0.0, open_least=False)
    @example(value=float("nan"), least=0.0, open_least=False)
    @example(value=2.5, least=2.5, open_least=True)
    def test_with_no_most_the_range_has_no_top(self, value, least, open_least):
        if least < value if open_least else least <= value:
            assert checked_real("x", value, least, open_least=open_least) == value
        else:
            sign = ">" if open_least else ">="
            with pytest.raises(ValueError, match=f"^x must be {sign} {least:g}, got {re.escape(repr(value))}$"):
                checked_real("x", value, least, open_least=open_least)

    @pytest.mark.parametrize(
        "value", [1, 0, np.int64(1), np.uint8(0), np.float32(0.5), np.float64(0.25), Fraction(1, 3)], ids=repr
    )
    def test_every_real_type_is_a_float(self, value):
        got = checked_real("x", value, 0.0, 1.0)
        assert type(got) is float and got == float(value)

    @pytest.mark.parametrize(
        "value", [True, False, np.True_, np.False_, Decimal("0.5"), "0.5", None, 0.5j, [0.5]], ids=repr
    )
    def test_a_bool_or_a_non_real_is_refused_by_name(self, value):
        with pytest.raises(ValueError, match=f"^x must be a real number, got {re.escape(repr(value))}$"):
            checked_real("x", value, 0.0, 1.0)

    @pytest.mark.parametrize("value", [10**400, Fraction(10**400, 3)], ids=["int", "Fraction"])
    def test_past_the_float_range_is_an_infinity(self, value):
        assert checked_real("x", value) == float("inf")
        with pytest.raises(ValueError, match="^x must be in \\[0, 1\\], got "):
            checked_real("x", value, 0.0, 1.0)
        with pytest.raises(ValueError, match="^x must be >= 0, got "):
            checked_real("x", -value)


def read_json_profile(tmp_path, data: bytes):
    path = tmp_path / "profile.json"
    path.write_bytes(data)
    return load_profile(path)


# Each reader of a JSON object: what it calls the object, its keys, a valid object, and the read.
JSON_READERS = {
    "trace header": (
        ["dtype", "heads", "layers", "seq_len", "version"],
        HEADER_2TOK[:-1],
        lambda tmp_path, data: TraceHeader.from_json_line(data),
    ),
    "allocation JSON": (["sizes"], b'{"sizes":[1,2]}', lambda tmp_path, data: AllocationList.from_json(data)),
    "profile file": (
        ["averaged", "samples", "task_type"],
        b'{"task_type":"qa","samples":[[1,2]],"averaged":[1,2]}',
        read_json_profile,
    ),
}


class TestJsonObject:
    @pytest.mark.parametrize(
        "data, obj",
        [(b'{"a":1}', {"a": 1}), ('{"a":1,"b":[]}', {"a": 1, "b": []}), ('{"a":"\u00e9"}'.encode(), {"a": "\u00e9"})],
    )
    def test_an_object_with_its_keys_is_returned(self, data, obj):
        assert json_object(data, "x", ["a"]) == obj

    @pytest.mark.parametrize("what", JSON_READERS)
    def test_every_reader_reads_a_valid_object(self, tmp_path, what):
        _, valid, read = JSON_READERS[what]
        read(tmp_path, valid)

    @pytest.mark.parametrize("what", JSON_READERS)
    @pytest.mark.parametrize(
        "case, message",
        [
            ("bad UTF-8", "malformed {what}: 'utf-8' codec can't decode byte 0xff in position"),
            ("UTF-16 BOM", "malformed {what}: 'utf-8' codec can't decode byte 0xff in position 0"),
            ("deep nesting", "malformed {what}: maximum recursion depth exceeded"),
            ("not an object", "malformed {what}: not a JSON object"),
            ("missing key", "{what} missing keys: {missing}"),
        ],
    )
    def test_every_reader_refuses_a_bad_object_by_what_it_is(self, tmp_path, what, case, message):
        keys, valid, read = JSON_READERS[what]
        data = {
            "bad UTF-8": valid[:-1] + b"\xff}",
            "UTF-16 BOM": valid.decode("utf-8").encode("utf-16"),
            "deep nesting": b"[" * 100_000 + b"]" * 100_000,
            "not an object": b"[1, 2]",
            "missing key": b"{}",
        }[case]
        error = TraceFormatError if what == "trace header" else ValueError
        with pytest.raises(error, match="^" + re.escape(message.format(what=what, missing=keys))):
            read(tmp_path, data)


def two_head_payload(rows_head1: list[list[float]]) -> bytes:
    """A 1x2x3 trace file whose head 0 is valid and head 1 is given."""
    header = b'{"version":1,"layers":1,"heads":2,"seq_len":3,"dtype":"f32le"}\n'
    head0 = [[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.2, 0.3, 0.5]]
    values = [x for row in head0 + rows_head1 for x in row]
    return header + struct.pack(f"<{len(values)}f", *values)


class TestNonFiniteAndNegativeWeights:
    @pytest.mark.parametrize(
        "rows,kind,row",
        [
            ([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.2, float("nan"), 0.8]], "non-finite", 2),
            ([[float("nan"), 0.0, 0.0], [0.5, 0.5, 0.0], [0.2, 0.3, 0.5]], "non-finite", 0),
            ([[1.0, 0.0, 0.0], [float("inf"), 0.5, 0.0], [0.2, 0.3, 0.5]], "non-finite", 1),
            ([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [float("-inf"), 0.3, 0.5]], "non-finite", 2),
            ([[1.0, 0.0, 0.0], [1.5, -0.5, 0.0], [0.2, 0.3, 0.5]], "negative", 1),
            ([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.6, -0.1, 0.5]], "negative", 2),
        ],
    )
    def test_rejected_with_coordinates(self, tmp_path, rows, kind, row):
        path = tmp_path / "t.bin"
        path.write_bytes(two_head_payload(rows))
        pattern = rf"{kind} weight at layer 0, head 1, row {row}"
        with pytest.raises(TraceFormatError, match=pattern) as loaded:
            load_trace(path)
        weights = np.frombuffer(two_head_payload(rows).split(b"\n", 1)[1], dtype="<f4")
        with pytest.raises(TraceFormatError) as built:
            AttentionTrace(weights.reshape(1, 2, 3, 3))
        assert str(built.value) == str(loaded.value)

    # Either makes numpy flag an invalid operation: inf + -inf is NaN, and a signalling NaN
    # (bits 0x7f800001) flags any test of it. No reader warns; each names the row.
    @pytest.mark.parametrize(
        "payload, row",
        [(struct.pack("<4f", 1, 0, float("inf"), float("-inf")), 1), (struct.pack("<4I", 0x7F800001, 0, 0, 0x3F800000), 0)],
        ids=["inf-minus-inf", "signalling-nan"],
    )
    def test_rows_that_flag_invalid_operations_are_non_finite_without_a_warning(self, tmp_path, payload, row):
        path = tmp_path / "t.bin"
        path.write_bytes(HEADER_2TOK + payload)
        assert_every_reader_says(tmp_path, path, f"non-finite weight at layer 0, head 0, row {row}")

    def test_nan_above_diagonal_is_a_causality_violation(self, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(two_head_payload([[1.0, float("nan"), 0.0], [0.5, 0.5, 0.0], [0.2, 0.3, 0.5]]))
        with pytest.raises(TraceFormatError, match=r"causality violation at layer 0, head 1, row 0"):
            load_trace(path)


class TestBuiltTracesAreChecked:
    @pytest.mark.parametrize(
        "rows,kind,row",
        [
            ([[1.0, 0.0, 0.0], [0.4, 0.3, 0.3], [0.2, 0.3, 0.5]], "causality violation", 1),
            ([[1.0, float("nan"), 0.0], [0.5, 0.5, 0.0], [0.2, 0.3, 0.5]], "causality violation", 0),
            ([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.2, 0.3, 0.4]], "row-sum violation", 2),
        ],
        ids=["non-causal", "nan-above-diagonal", "off-sum"],
    )
    def test_construction_raises_the_load_message(self, tmp_path, rows, kind, row):
        data = two_head_payload(rows)
        path = tmp_path / "t.bin"
        path.write_bytes(data)
        with pytest.raises(TraceFormatError, match=rf"{kind} at layer 0, head 1, row {row}") as loaded:
            load_trace(path)
        weights = np.frombuffer(data.split(b"\n", 1)[1], dtype="<f4").reshape(1, 2, 3, 3)
        with pytest.raises(TraceFormatError) as built:
            AttentionTrace(weights)
        assert str(built.value) == str(loaded.value)


class TestFileCopies:
    def test_save_over_the_loaded_file(self, tmp_path):
        spec = SyntheticSpec(layers=2, heads=3, seq_len=24, sparsity=0.25, seed=4, layer_skew=1.0)
        path = tmp_path / "t.bin"
        save_trace(generate_trace(spec), path)
        before = path.read_bytes()
        save_trace(load_trace(path), path)
        assert path.read_bytes() == before

    @pytest.mark.parametrize("delta", [-1, -4, 1, 4, 64])
    def test_payload_size_must_match_header(self, tmp_path, delta):
        spec = SyntheticSpec(layers=2, heads=1, seq_len=8, sparsity=0.5, seed=1)
        path = tmp_path / "t.bin"
        save_trace(generate_trace(spec), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:delta] if delta < 0 else raw + b"\0" * delta)
        expected = 2 * 8 * 8 * 4
        with pytest.raises(TraceFormatError, match=rf"payload length {expected + delta} bytes .* {expected}"):
            load_trace(path)

    def test_huge_header_rejected_before_allocating(self, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(
            b'{"version":1,"layers":100000,"heads":100000,"seq_len":100000,"dtype":"f32le"}\n'
            + struct.pack("<4f", 1.0, 0.0, 0.5, 0.5)
        )
        with pytest.raises(TraceFormatError, match="payload length 16 bytes"):
            load_trace(path)

    def test_loaded_weights_are_read_only(self, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(HEADER_2TOK + struct.pack("<4f", 1.0, 0.0, 0.5, 0.5))
        trace = load_trace(path)
        with pytest.raises(ValueError):
            trace.weights[0, 0, 0, 0] = 0.0

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("delta", [0, -4, 4, None])
    def test_load_from_a_pipe(self, tmp_path, delta):
        spec = SyntheticSpec(layers=2, heads=2, seq_len=64, sparsity=0.25, seed=8)
        path = tmp_path / "t.bin"
        save_trace(generate_trace(spec), path)
        raw = path.read_bytes()
        if delta is None:
            # A header promising hundreds of TiB: nothing to read, nothing held.
            data = b'{"version":1,"layers":1000,"heads":1000,"seq_len":10000,"dtype":"f32le"}\n\0\0\0\0'
        else:
            data = raw[:delta] if delta < 0 else raw + b"\0" * delta
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "wb") as fh:
                fh.write(data)

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        try:
            if delta == 0:
                assert load_trace(fifo).weights.tobytes() == load_trace(path).weights.tobytes()
            else:
                expected = 2 * 2 * 64 * 64 * 4
                pattern = "payload" if delta is None else rf"payload length {expected + delta} bytes"
                with pytest.raises(TraceFormatError, match=pattern):
                    load_trace(fifo)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()


class TestReadWindow:
    SPEC = SyntheticSpec(layers=3, heads=2, seq_len=40, sparsity=0.2, seed=6, layer_skew=1.0)

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "t.bin"
        save_trace(generate_trace(self.SPEC), path)
        return path

    @pytest.mark.parametrize("ows", [1, 8, 39, 40, 100])
    def test_keeps_the_last_rows_of_every_block(self, path, ows):
        window = read_window(path, ows)
        full = load_trace(path)
        w = min(ows, 40)
        assert window.header == full.header
        assert window.weights.shape == (3, 2, w, 40)
        assert window.weights.tobytes() == full.weights[:, :, 40 - w :].tobytes()
        with pytest.raises(ValueError):
            window.weights[0, 0, 0, 0] = 0.0

    @pytest.mark.parametrize("ows", [0, -3, True, 2.5, None])
    def test_a_window_size_below_one_or_not_an_integer_is_refused(self, path, ows):
        rule = ">= 1" if type(ows) is int else "an integer"
        with pytest.raises(ValueError, match=rf"^ows must be {rule}, got {re.escape(repr(ows))}$"):
            read_window(path, ows)
        with pytest.raises(ValueError, match=f"^ows must be {rule}, "):
            read_window(path.parent / "missing.bin", ows)  # refused before the file is opened

    def test_window_scores_equal_trace_scores(self, path):
        settings_ = ProcSettings(ows=5, pool_size=3)
        from_window = process_trace(read_window(path, 5), settings_)
        from_trace = process_trace(load_trace(path), settings_)
        assert [v.scores.tobytes() for v in from_window] == [v.scores.tobytes() for v in from_trace]

    def test_fewer_rows_than_the_window_are_refused_with_both_counts(self, path):
        window, settings_ = read_window(path, 5), ProcSettings(ows=8, pool_size=3)
        with pytest.raises(ValueError, match="ows 8 needs 8 window rows; the source holds 5"):
            process_trace(window, settings_)
        with pytest.raises(ValueError, match="ows 8 needs 8 window rows; the source holds 5"):
            simulate_task(window, AllocationList(sizes=(1, 1, 1)), settings_)
        # A toy prefill keeps its last rows the same way.
        prefill = mini_prefill(ToyModelConfig(layers=3, heads=2, seq_len=40), rows=5)
        with pytest.raises(ValueError, match="ows 8 needs 8 window rows; the source holds 5"):
            process_trace(prefill, settings_)

    def test_a_defect_outside_the_window_is_still_rejected(self, path):
        data = bytearray(path.read_bytes())
        offset = data.index(b"\n") + 1 + ((2 * 2 + 1) * 40 * 40) * 4  # layer 2, head 1, row 0
        data[offset : offset + 4] = struct.pack("<f", float("nan"))
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="non-finite weight at layer 2, head 1, row 0"):
            read_window(path, 8)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("delta", [0, -4, 4, None])
    def test_from_a_pipe(self, tmp_path, path, delta):
        raw = path.read_bytes()
        if delta is None:
            data = b'{"version":1,"layers":1000,"heads":1000,"seq_len":10000,"dtype":"f32le"}\n\0\0\0\0'
        else:
            data = raw[:delta] if delta < 0 else raw + b"\0" * delta
        if delta == 0:
            window = feed_pipe(tmp_path, data, lambda p: read_window(p, 8))
            assert window.weights.tobytes() == read_window(path, 8).weights.tobytes()
            return
        expected = 3 * 2 * 40 * 40 * 4
        pattern = "payload" if delta is None else rf"payload length {expected + delta} bytes"
        with pytest.raises(TraceFormatError, match=pattern):
            feed_pipe(tmp_path, data, lambda p: read_window(p, 8))

    @pytest.mark.parametrize(
        "defects,message",
        [
            # A window row of block (0, 0), then row 0 of block (2, 1): the
            # reader holds the later one, then checks the earlier window rows.
            (
                [((0, 0), 39, 0, float("nan")), ((2, 1), 0, 0, -1.0)],
                "non-finite weight at layer 0, head 0, row 39",
            ),
            # Both in block (1, 0): row 0 comes before row 35.
            (
                [((1, 0), 0, 0, -1.0), ((1, 0), 35, 39, 0.5)],
                "negative weight at layer 1, head 0, row 0: -1 in column 0",
            ),
            # Two rows before the window.
            ([((1, 1), 3, 0, float("inf")), ((2, 0), 1, 0, -1.0)], "non-finite weight at layer 1, head 1, row 3"),
        ],
        ids=["across-blocks", "one-block", "both-before-the-window"],
    )
    def test_two_defects_report_the_first_in_file_order(self, tmp_path, path, defects, message):
        data = bytearray(path.read_bytes())
        start = data.index(b"\n") + 1
        for (layer, head), row, col, value in defects:
            offset = start + (((layer * 2 + head) * 40 + row) * 40 + col) * 4
            data[offset : offset + 4] = struct.pack("<f", value)
        path.write_bytes(bytes(data))
        assert_every_reader_says(tmp_path, path, message)

    def test_each_row_is_checked_once(self, path, monkeypatch):
        # The reader checks a chunk's rows before the window with _find_defect,
        # which _check_block, and so construction, also runs.
        checked, inner = [], trace_module._find_defect

        def record(rows, layer, head, first_row):
            checked.append((layer, head, first_row, len(rows)))
            return inner(rows, layer, head, first_row)

        monkeypatch.setattr(trace_module, "_find_defect", record)
        read_window(path, 8)
        blocks = [(layer, head) for layer in range(3) for head in range(2)]
        assert checked == [(*b, 0, 32) for b in blocks] + [(*b, 32, 8) for b in blocks]
        checked.clear()
        read_window(path, 40)
        assert checked == [(*b, 0, 40) for b in blocks]
        # Chunks of 3 rows: the rows before the window in read order, then the window rows.
        monkeypatch.setattr(trace_module, "CHUNK_BYTES", 3 * 40 * 4)
        checked.clear()
        read_window(path, 8)
        chunks = [(first, min(3, 32 - first)) for first in range(0, 32, 3)]
        assert checked == [(*b, *c) for b in blocks for c in chunks] + [(*b, 32, 8) for b in blocks]

    def test_no_chunk_after_a_held_defect_is_checked(self, path, monkeypatch):
        # A defect in a later chunk comes after the one held already in the file.
        data = bytearray(path.read_bytes())
        offset = data.index(b"\n") + 1 + 4 * 40 * 4  # layer 0, head 0, row 4
        data[offset : offset + 4] = struct.pack("<f", -1.0)
        path.write_bytes(bytes(data))
        checked, inner = [], trace_module._find_defect

        def record(rows, layer, head, first_row):
            checked.append((layer, head, first_row, len(rows)))
            return inner(rows, layer, head, first_row)

        monkeypatch.setattr(trace_module, "_find_defect", record)
        monkeypatch.setattr(trace_module, "CHUNK_BYTES", 3 * 40 * 4)
        with pytest.raises(TraceFormatError, match=r"^negative weight at layer 0, head 0, row 4: -1 in column 0$"):
            read_window(path, 8)
        assert checked == [(0, 0, 0, 3), (0, 0, 3, 3)]

    @pytest.mark.parametrize(
        "defects,message",
        [
            # A NaN in chunk 1 and a causality defect in chunk 3.
            ([(2, 0, float("nan")), (18, 30, 0.5)], "non-finite weight at layer 1, head 0, row 2"),
            # A negative weight in chunk 1 and an infinity in chunk 2.
            ([(3, 0, -1.0), (10, 1, float("inf"))], "negative weight at layer 1, head 0, row 3: -1 in column 0"),
            # Two negative weights.
            ([(4, 1, -2.0), (20, 0, -1.0)], "negative weight at layer 1, head 0, row 4: -2 in column 1"),
            # Two row sums off, the later one further.
            (
                [(5, None, 1.5), (25, None, 1.75)],
                "row-sum violation at layer 1, head 0, row 5: sum 1.500000 deviates beyond 0.001",
            ),
            # Two row sums off by the same amount.
            (
                [(6, None, 1.5), (29, None, 1.5)],
                "row-sum violation at layer 1, head 0, row 6: sum 1.500000 deviates beyond 0.001",
            ),
            # A row sum off, then a causality defect, in chunk 2.
            (
                [(9, None, 1.5), (12, 30, 0.5)],
                "row-sum violation at layer 1, head 0, row 9: sum 1.500000 deviates beyond 0.001",
            ),
        ],
        ids=[
            "non-finite-before-causality",
            "negative-before-non-finite",
            "earlier-negative",
            "earlier-smaller-row-sum",
            "row-sum-tie",
            "row-sum-before-causality-in-one-chunk",
        ],
    )
    def test_chunks_report_the_first_defective_row(self, tmp_path, path, monkeypatch, defects, message):
        # Chunks of 8 rows: with ows 8, rows 0-31 come before the window in chunks 1-4.
        monkeypatch.setattr(trace_module, "CHUNK_BYTES", 8 * 40 * 4)
        data = bytearray(path.read_bytes())
        start = data.index(b"\n") + 1 + 2 * 40 * 40 * 4  # layer 1, head 0
        for row, col, value in defects:
            # A column of None makes the row `value` in column 0 and zeros after it.
            values = [value] if col is not None else [value] + [0.0] * 39
            offset = start + (row * 40 + (col or 0)) * 4
            data[offset : offset + 4 * len(values)] = struct.pack(f"<{len(values)}f", *values)
        path.write_bytes(bytes(data))
        assert_every_reader_says(tmp_path, path, message)

    @pytest.mark.parametrize("t,rows", [(2, 2), (256, 256), (257, 255), (2048, 32), (4099, 15)])
    def test_chunk_rows(self, t, rows):
        buffer = trace_module._chunk_buffer(t)
        assert buffer.shape == (rows, t) and buffer.dtype == np.dtype("<f4")
        chunks = list(trace_module._chunks(buffer))
        assert all(c.base is buffer for _, c in chunks)
        assert [len(c) for _, c in chunks[:-1]] == [rows] * (len(chunks) - 1) and 1 <= len(chunks[-1][1]) <= rows
        assert [first for first, _ in chunks] == list(range(0, t, rows))

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_pipe_reports_the_payload_length_before_a_bad_block(self, tmp_path, path):
        data = bytearray(path.read_bytes())
        offset = data.index(b"\n") + 1
        data[offset : offset + 4] = struct.pack("<f", float("nan"))
        with pytest.raises(TraceFormatError, match="payload length"):
            feed_pipe(tmp_path, bytes(data[:-4]), lambda p: read_window(p, 8))
        with pytest.raises(TraceFormatError, match="non-finite weight at layer 0, head 0, row 0"):
            feed_pipe(tmp_path, bytes(data), lambda p: read_window(p, 8))


class TestTraceWindow:
    """An AttentionTrace of the last rows of each matrix."""

    HEAD0 = [[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.2, 0.3, 0.5]]

    def test_rows_are_checked_at_their_place_in_the_matrix(self):
        # [0.5, 0.5, 0.0] is causal as row 1 and not as row 0; [0.2, 0.3, 0.5]
        # is causal as row 2 and not as row 1.
        rows = np.array([[self.HEAD0[1:], self.HEAD0[1:]]], dtype=np.float32)
        assert AttentionTrace(rows).weights.shape == (1, 2, 2, 3)
        with pytest.raises(TraceFormatError, match="causality violation at layer 0, head 0, row 0: .* column 1"):
            AttentionTrace(rows[:, :, :1].repeat(3, axis=2))
        with pytest.raises(TraceFormatError, match="causality violation at layer 0, head 1, row 1: .* column 2"):
            AttentionTrace(np.array([[self.HEAD0[1:], self.HEAD0[2:] * 2]], dtype=np.float32))

    @pytest.mark.parametrize(
        "row,kind",
        [([0.2, float("nan"), 0.8], "non-finite"), ([0.6, -0.1, 0.5], "negative"), ([0.2, 0.3, 0.4], "row-sum")],
    )
    def test_construction_raises_the_load_message(self, tmp_path, row, kind):
        data = two_head_payload([self.HEAD0[0], self.HEAD0[1], row])
        path = tmp_path / "t.bin"
        path.write_bytes(data)
        with pytest.raises(TraceFormatError, match=rf"{kind} .*layer 0, head 1, row 2") as loaded:
            load_trace(path)
        rows = np.array([[self.HEAD0[2:], [row]]], dtype=np.float32)
        with pytest.raises(TraceFormatError) as built:
            AttentionTrace(rows)
        assert str(built.value) == str(loaded.value)

    @pytest.mark.parametrize("shape", [(1, 2, 0, 3), (1, 2, 4, 3), (2, 3)])
    def test_shape_is_the_last_rows_of_square_matrices(self, shape):
        # The last w rows of every matrix, 1 <= w <= seq_len, and nothing else.
        message = rf"^weights shape {re.escape(str(shape))} is not \(layers, heads, rows, seq_len\), 1 <= rows <= seq_len$"
        with pytest.raises(TraceFormatError, match=message):
            AttentionTrace(np.zeros(shape))

    @pytest.mark.parametrize(
        "shape,message",
        [
            ((0, 2, 1, 3), "layers must be >= 1, got 0"),
            ((1, 0, 1, 3), "heads must be >= 1, got 0"),
            ((1, 2, 1, 1), "seq_len must be >= 2, got 1"),
        ],
    )
    def test_the_header_read_off_the_shape_is_checked(self, shape, message):
        with pytest.raises(TraceFormatError, match=f"^{message}$"):
            AttentionTrace(np.ones(shape))


class TestCausalityBands:
    """``_check_block`` checks causality 128 rows at a time; it must flag exactly the nonzeros above the diagonal."""

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(2, 400))
    def test_one_nonzero_is_flagged_where_it_is(self, data, t):
        first_row = data.draw(st.integers(0, t - 1))
        r = data.draw(st.integers(1, t - first_row))
        rows = np.tri(r, t, k=first_row, dtype="<f4")
        rows /= rows.sum(axis=1, keepdims=True)
        row = data.draw(st.integers(0, r - 1))
        col = data.draw(st.integers(0, t - 1))
        rows[row, col] += data.draw(st.sampled_from([0.5, float("nan"), -1.0]))
        try:
            trace_module._check_block(rows, 0, 0, first_row)
        except TraceFormatError as exc:
            message = str(exc)
        else:
            message = ""
        if col > first_row + row:
            where = f"layer 0, head 0, row {first_row + row}"
            assert message == f"causality violation at {where}: nonzero weight in column {col}"
        else:
            assert message and not message.startswith("causality")

FIELD_VALUES = st.one_of(
    st.integers(-2, 4),
    st.just(2**62),
    st.booleans(),
    st.floats(),
    st.text("12.ef", max_size=4),
    st.none(),
    st.lists(st.integers(0, 2), max_size=2),
    st.just("f32le"),
)


@st.composite
def fuzzed_trace_files(draw) -> bytes:
    """A header line, often valid, with fields dropped or replaced, then a payload.

    The payload is random bytes, or a stack of identity matrices (a valid
    payload for a valid header) with some values overwritten and some bytes
    cut or added.
    """
    header = {
        "version": 1,
        "layers": draw(st.integers(1, 2)),
        "heads": draw(st.integers(1, 2)),
        "seq_len": draw(st.integers(2, 4)),
        "dtype": "f32le",
    }
    shape = (header["layers"], header["heads"], header["seq_len"], header["seq_len"])
    for key in draw(st.sets(st.sampled_from([*header, "extra"]), max_size=3)):
        if draw(st.booleans()):
            header.pop(key, None)
        else:
            header[key] = draw(FIELD_VALUES)
    line = draw(st.one_of(st.just(json.dumps(header).encode()), st.binary(max_size=40)))
    weights = np.broadcast_to(np.eye(shape[-1], dtype="<f4"), shape).copy()
    flat = weights.reshape(-1)
    for _ in range(draw(st.integers(0, 2))):
        flat[draw(st.integers(0, flat.size - 1))] = draw(st.floats(width=32))
    payload = weights.tobytes()
    cut = draw(st.integers(-5, 5))
    payload = payload[:cut] if cut < 0 else payload + bytes(cut)
    return line + b"\n" + draw(st.one_of(st.just(payload), st.binary(max_size=300)))


@st.composite
def defective_weights(draw) -> np.ndarray:
    """A whole trace of uniform causal rows with one to four weights overwritten."""
    layers, heads, t = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(2, 9))
    rows = np.tri(t, dtype="<f4") / np.arange(1, t + 1, dtype="<f4")[:, None]
    weights = np.broadcast_to(rows, (layers, heads, t, t)).copy()
    flat = weights.reshape(-1)
    for _ in range(draw(st.integers(1, 4))):
        flat[draw(st.integers(0, flat.size - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf, -1.0, -0.0, 0.0, 0.5, 2.0]))
    return weights


def first_bad_row(weights: np.ndarray) -> str | None:
    """The defect rule written out a row at a time: the first row in file order that fails a check, under the first
    check it fails (causality, finiteness, sign, row sum); None if every row passes."""
    for layer, head, row in np.ndindex(weights.shape[:3]):
        values, where = weights[layer, head, row], f"at layer {layer}, head {head}, row {row}"
        if (later := np.flatnonzero(values[row + 1 :])).size:
            return f"causality violation {where}: nonzero weight in column {row + 1 + later[0]}"
        if not np.isfinite(values).all():
            return f"non-finite weight {where}"
        if (negative := np.flatnonzero(values < 0)).size:
            return f"negative weight {where}: {float(values[negative[0]]):g} in column {negative[0]}"
        if abs((total := values.sum(dtype=np.float64)) - 1.0) > 1e-3:
            return f"row-sum violation {where}: sum {total:.6f} deviates beyond 0.001"
    return None


# A row-sum defect in the window row of head 0 and a negative weight before
# the window in head 1: a one-row window reads head 1's defect first, yet the
# first in the file is head 0's.
TWO_DEFECTS = b'{"version":1,"layers":1,"heads":2,"seq_len":3,"dtype":"f32le"}\n' + struct.pack(
    "<18f", 1, 0, 0, 0.5, 0.5, 0, 0, 0, 2, -1, 0, 0, 0.5, 0.5, 0, 0.2, 0.3, 0.5
)


class TestLoaderFuzz:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(fuzzed_trace_files())
    @example(HEADER_2TOK + struct.pack("<4f", 1, 0, 0.5, 0.5))
    @example(b"[" * 100_000 + b"\n")
    @example(b'{"layers":' + b"1" * 5000 + b"}\n")
    @example(b"\xff\xfe\n\0\0")
    @example(b"")
    def test_loads_or_raises_trace_format_error(self, tmp_path, data):
        path = tmp_path / "fuzz.bin"
        path.write_bytes(data)
        try:
            trace = load_trace(path)
        except TraceFormatError:
            return
        trace.validate()
        assert len(data) == data.index(b"\n") + 1 + trace.header.payload_bytes

    @staticmethod
    def outcome(read):
        """``("ok", value)`` or ``("error", message)`` of one read."""
        try:
            return "ok", read()
        except TraceFormatError as exc:
            return "error", str(exc)

    @classmethod
    def windowed_outcomes(cls, read):
        """``outcome(read)`` at the default ``CHUNK_BYTES`` and at one-row chunks, so a matrix is split."""
        with pytest.MonkeyPatch.context() as mp:
            default = cls.outcome(read)
            mp.setattr(trace_module, "CHUNK_BYTES", 1)
            return default, cls.outcome(read)

    @staticmethod
    def assert_window_agrees(loaded, windowed, ows):
        if loaded[0] == "error":
            assert windowed == loaded
        else:
            t = loaded[1].header.seq_len
            assert windowed[0] == "ok", windowed
            assert windowed[1].header == loaded[1].header
            assert windowed[1].weights.tobytes() == loaded[1].weights[:, :, t - min(ows, t) :].tobytes()

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(fuzzed_trace_files(), st.integers(1, 5))
    @example(HEADER_2TOK + struct.pack("<4f", 1, 0, 0.5, 0.5), 1)
    @example(TWO_DEFECTS, 1)
    @example(b"[" * 100_000 + b"\n", 1)
    @example(b"", 1)
    def test_window_reader_agrees_with_the_loader(self, tmp_path, data, ows):
        path = tmp_path / "fuzz.bin"
        path.write_bytes(data)
        loaded = self.outcome(lambda: load_trace(path))
        for windowed in self.windowed_outcomes(lambda: read_window(path, ows)):
            self.assert_window_agrees(loaded, windowed, ows)

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(defective_weights(), st.integers(1, 10))
    def test_the_defect_is_the_first_bad_row_in_file_order(self, tmp_path, weights, ows):
        path = tmp_path / "defects.bin"
        path.write_bytes(TraceHeader(*weights.shape[:2], seq_len=weights.shape[3]).to_json_line() + weights.tobytes())
        expected = first_bad_row(weights)
        built, loaded = self.outcome(lambda: AttentionTrace(weights)), self.outcome(lambda: load_trace(path))
        for outcome in (built, loaded, *self.windowed_outcomes(lambda: read_window(path, ows))):
            assert (outcome[0] == "ok") if expected is None else (outcome == ("error", expected))

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(fuzzed_trace_files(), st.integers(1, 5))
    @example(HEADER_2TOK + struct.pack("<4f", 1, 0, 0.5, 0.5), 2)
    @example(TWO_DEFECTS, 1)
    def test_window_reader_agrees_with_the_loader_on_a_pipe(self, tmp_path, data, ows):
        loaded = self.outcome(lambda: feed_pipe(tmp_path, data, load_trace))
        for windowed in self.windowed_outcomes(lambda: feed_pipe(tmp_path, data, lambda p: read_window(p, ows))):
            self.assert_window_agrees(loaded, windowed, ows)
