"""Trace data model, binary format, and synthetic generation."""

import json
import os
import struct
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from kvalloc.attnproc import ProcSettings, process_trace
from kvalloc.metrics import retention_curve
from kvalloc.trace import (
    AttentionTrace,
    SyntheticSpec,
    TraceFormatError,
    TraceHeader,
    generate_trace,
    load_trace,
    save_trace,
)

HEADER_2TOK = b'{"version":1,"layers":1,"heads":1,"seq_len":2,"dtype":"f32le"}\n'


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
        assert trace.layers == 1 and trace.heads == 1 and trace.seq_len == 2
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
        header = TraceHeader(layers=1, heads=1, seq_len=2)
        weights = np.array([[[[0.5, 0.5], [0.5, 0.5]]]])
        with pytest.raises(TraceFormatError, match=r"causality violation at layer 0, head 0, row 0"):
            save_trace(AttentionTrace(header=header, weights=weights), tmp_path / "bad.bin")
        assert not (tmp_path / "bad.bin").exists()

    def test_save_empty_path_is_io_error(self):
        spec = SyntheticSpec(layers=1, heads=1, seq_len=4, sparsity=1.0, seed=0)
        with pytest.raises(OSError):
            save_trace(generate_trace(spec), "")

    def test_weights_shape_must_match_header(self):
        header = TraceHeader(layers=2, heads=1, seq_len=2)
        with pytest.raises(TraceFormatError, match="shape"):
            AttentionTrace(header=header, weights=np.zeros((1, 1, 2, 2)))


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
        header = TraceHeader(layers=1, heads=2, seq_len=3)
        weights = np.frombuffer(two_head_payload(rows).split(b"\n", 1)[1], dtype="<f4")
        with pytest.raises(TraceFormatError) as built:
            AttentionTrace(header=header, weights=weights.reshape(1, 2, 3, 3))
        assert str(built.value) == str(loaded.value)

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
            AttentionTrace(header=TraceHeader(layers=1, heads=2, seq_len=3), weights=weights)
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
