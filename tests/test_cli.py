"""Command-line interface: outputs, exit codes, determinism."""

import errno
import io
import json
import os
import shlex
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kvalloc.cli import main
from kvalloc.toymodel import ToyModelConfig
from kvalloc.trace import AttentionTrace, SyntheticSpec, TraceFormatError, generate_trace, load_trace, save_trace

from conftest import TWO_LAYER_ROWS, make_trace, python_child

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def fixture_trace_path(tmp_path):
    path = tmp_path / "fixture.bin"
    save_trace(make_trace(TWO_LAYER_ROWS), path)
    return str(path)


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_writes_valid_trace(self, tmp_path, capsys):
        out = tmp_path / "t.bin"
        code, _, err = run(
            capsys, "gen", "--layers", "4", "--heads", "1", "--seq-len", "64",
            "--seed", "7", "-o", str(out),
        )
        assert code == 0
        assert "wrote" in err
        trace = load_trace(out)
        assert (trace.header.layers, trace.header.seq_len) == (4, 64)

    def test_identical_flags_identical_files(self, tmp_path, capsys):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        for out in (a, b):
            code, _, _ = run(
                capsys, "gen", "--layers", "2", "--seq-len", "32", "--seed", "3",
                "--sparsity", "0.2", "--layer-skew", "1.0", "-o", str(out),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seq_len_one_is_validation_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "gen", "--layers", "1", "--seq-len", "1", "-o", str(tmp_path / "t.bin")
        )
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("skew", ["nan", "inf"])
    def test_non_finite_layer_skew_exits_2(self, tmp_path, capsys, skew):
        code, _, err = run(
            capsys, "gen", "--layers", "2", "--seq-len", "8", "--layer-skew", skew,
            "-o", str(tmp_path / "t.bin"),
        )
        assert code == 2
        assert "layer_skew" in err

    def test_huge_layer_skew_generates(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "gen", "--layers", "2", "--seq-len", "8", "--layer-skew", "1e300",
            "-o", str(tmp_path / "t.bin"),
        )
        assert code == 0
        assert load_trace(tmp_path / "t.bin").header.layers == 2

    def test_overflowing_layer_skew_exits_2(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "gen", "--layers", "3", "--seq-len", "8", "--layer-skew", "1e308",
            "-o", str(tmp_path / "t.bin"),
        )
        assert code == 2
        assert "layer_skew" in err

    def test_negative_seed_exits_2_and_writes_nothing(self, tmp_path, capsys):
        path = tmp_path / "t.bin"
        code, out, err = run(capsys, "gen", "--layers", "1", "--seq-len", "8", "--seed", "-1", "-o", str(path))
        assert code == 2
        assert out == ""
        assert err == "error: seed must be >= 0, got -1\n"
        assert not path.exists()

    # Each shape's one (t, t) float32 block is 1 TiB or more, so it cannot be
    # allocated, and the command stops before the output is opened.
    @pytest.mark.parametrize(
        "layers, seq_len, nbytes",
        [("1", "1000000", 4 * 10**12), ("1", "10000000000", 4 * 10**20), ("100000", "1000000", 4 * 10**12)],
    )
    def test_shape_too_large_to_allocate_exits_2(self, tmp_path, capsys, layers, seq_len, nbytes):
        path = tmp_path / "t.bin"
        code, out, err = run(capsys, "gen", "--layers", layers, "--seq-len", seq_len, "-o", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and f"{nbytes}-byte" in err
        assert not path.exists()


class TestAllocate:
    def test_budget_two_hand_example(self, fixture_trace_path, capsys):
        code, out, _ = run(
            capsys, "allocate", fixture_trace_path,
            "--budget", "2", "--ows", "2", "--pool-size", "1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["sizes"] == [1, 1]
        # trace payloads are float32, so the ratio carries ~1e-8 storage noise
        assert payload["r_avg"] == pytest.approx(0.7, abs=1e-6)

    def test_budget_zero_all_zeros(self, fixture_trace_path, capsys):
        code, out, _ = run(
            capsys, "allocate", fixture_trace_path,
            "--budget", "0", "--ows", "2", "--pool-size", "1",
        )
        assert code == 0
        assert json.loads(out)["sizes"] == [0, 0]

    def test_diagonal_layer_gets_no_slots(self, tmp_path, capsys):
        # Layer 1 attends only to itself, so its window rows give all-zero scores.
        generated = generate_trace(SyntheticSpec(layers=3, heads=2, seq_len=24, sparsity=0.2, seed=4))
        weights = generated.weights.copy()
        weights[1] = np.eye(24)
        path = tmp_path / "diagonal.bin"
        save_trace(AttentionTrace(weights), path)
        code, out, err = run(capsys, "allocate", str(path), "--budget", "20")
        assert code == 0, err
        sizes = json.loads(out)["sizes"]
        assert sizes[1] == 0 and sum(sizes) == 20
        code, out, err = run(capsys, "simulate", str(path), "--auto", "--budget", "20")
        assert code == 0, err
        assert json.loads(out)["per_layer_r"][1] == 1.0

    def test_budget_beyond_capacity_exits_2(self, fixture_trace_path, capsys):
        code, _, err = run(
            capsys, "allocate", fixture_trace_path,
            "--budget", "100", "--ows", "2", "--pool-size", "1",
        )
        assert code == 2
        assert "error" in err

    def test_no_constraint_exits_2(self, fixture_trace_path, capsys):
        code, _, err = run(capsys, "allocate", fixture_trace_path, "--ows", "2", "--pool-size", "1")
        assert code == 2
        assert "exactly one" in err

    def test_both_constraints_usage_error(self, fixture_trace_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["allocate", fixture_trace_path, "--budget", "2", "--target-ravg", "0.5"])
        assert excinfo.value.code == 2

    def test_oracle_check_passes(self, fixture_trace_path, capsys):
        code, out, err = run(
            capsys, "allocate", fixture_trace_path,
            "--budget", "3", "--oracle", "--ows", "2", "--pool-size", "1",
        )
        assert code == 0
        assert "oracle check passed" in err

    @pytest.mark.parametrize("constraint", [["--budget", "100"], ["--target-ravg", "0.9"]], ids=["budget", "target"])
    def test_oracle_check_passes_on_a_generated_trace(self, tmp_path, capsys, constraint):
        # 57**6 compositions of six 56-token layers: the oracle does not enumerate them
        path = tmp_path / "t.bin"
        save_trace(generate_trace(SyntheticSpec(layers=6, heads=1, seq_len=64, seed=11, layer_skew=1.5)), path)
        code, out, err = run(capsys, "allocate", str(path), *constraint, "--oracle")
        assert code == 0, err
        assert "oracle check passed" in err
        assert out == run(capsys, "allocate", str(path), *constraint)[1]

    def test_target_mode(self, fixture_trace_path, capsys):
        # 0.699 rather than 0.7: float32 storage leaves the two-token average
        # a hair under the ideal 0.7
        code, out, _ = run(
            capsys, "allocate", fixture_trace_path,
            "--target-ravg", "0.699", "--ows", "2", "--pool-size", "1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["sizes"] == [1, 1]

    def test_csv_format(self, fixture_trace_path, capsys):
        code, out, _ = run(
            capsys, "allocate", fixture_trace_path,
            "--budget", "2", "--ows", "2", "--pool-size", "1", "--format", "csv",
        )
        assert code == 0
        assert out == "layer,n\n0,1\n1,1\n"
        code, out, _ = run(
            capsys, "allocate", fixture_trace_path,
            "--target-ravg", "0.95", "--ows", "2", "--pool-size", "1", "--format", "csv",
        )
        assert code == 0
        assert out == "layer,n\n0,3\n1,2\n"


class TestSimulate:
    def test_toy_auto_budget_ratio(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--toy", "--layers", "2", "--seq-len", "16",
            "--auto", "--budget", "8", "--ows", "4", "--pool-size", "1",
        )
        assert code == 0
        payload = json.loads(out)
        assert sum(payload["sizes"]) == 8
        assert payload["compression_ratio"] == pytest.approx((8 + 2 * 4) / (2 * 16), abs=1e-15)
        assert "compression ratio" in err

    def test_toy_window_above_the_default_kept_rows(self, capsys):
        # The prefill must keep --ows rows, more than its default: these are the
        # bytes of a prefill that kept every row.
        code, out, err = run(
            capsys, "simulate", "--toy", "--layers", "2", "--heads", "2", "--seq-len", "32", "--ows", "16",
            "--pool-size", "3", "--auto", "--budget", "10", "--compare-uniform", "--format", "csv",
        )
        assert code == 0
        assert out == (
            "method,layer,n,retained,r\n"
            "personalized,0,5,21,0.34640194667441804\n"
            "personalized,1,5,21,0.33824440511504295\n"
            "uniform,0,5,21,0.34640194667441804\n"
            "uniform,1,5,21,0.33824440511504295\n"
        )
        summary = (
            "compression ratio 65.6% (memory reduction 34.4%), r_avg 0.3423, 5376 of 8192 bytes retained; "
            "observation window retained in addition to per-layer budget\n"
        )
        assert err == f"personalized: {summary}uniform: {summary}"

    def test_the_report_line_at_the_reference_operating_point(self, tmp_path, capsys):
        # sum(n_i + ows) = 0.384 * layers * seq_len: 2 x (88 + 8) of 2 x 250 tokens.
        path, alloc_path = tmp_path / "t.bin", tmp_path / "alloc.json"
        save_trace(generate_trace(SyntheticSpec(layers=2, heads=1, seq_len=250, sparsity=0.1, seed=1)), path)
        alloc_path.write_text('{"sizes":[88,88]}', encoding="utf-8")
        code, out, err = run(capsys, "simulate", str(path), "--allocation", str(alloc_path))
        assert code == 0
        assert json.loads(out)["compression_ratio"] == 0.384
        assert err == (
            "personalized: compression ratio 38.4% (memory reduction 61.6%), r_avg 0.8340, "
            "12288 of 32000 bytes retained; observation window retained in addition to per-layer budget\n"
        )

    # A toy prefill of T tokens first asks for one T x T float32 attention scratch, whatever its heads:
    # 4 TB at a million tokens, 36 TB at three million.
    @pytest.mark.parametrize("heads, seq_len", [("1", "1000000"), ("1", "3000000"), ("4", "1000000")])
    def test_toy_shape_too_large_to_allocate_exits_2(self, capsys, heads, seq_len):
        code, out, err = run(
            capsys, "simulate", "--toy", "--auto", "--budget", "5", "--layers", "1", "--heads", heads,
            "--seq-len", seq_len,
        )
        assert code == 2
        assert out == ""
        config = f"ToyModelConfig(layers=1, heads={heads}, model_dim=16, proj_dim=8, seq_len={seq_len}, seed=0)"
        assert err.startswith(f"error: a toy pass of {config} cannot be allocated: ") and err.count("\n") == 1
        assert err.endswith(f" shape ({seq_len}, {seq_len}) and data type float32\n")

    # The input is drawn as a seq_len x model_dim float64 array, and each weight as a
    # heads x model_dim x proj_dim one, before either is rounded to float32.
    @pytest.mark.parametrize(
        "flag, value, numpy_says",
        [
            ("--model-dim", "100000000000", " shape (16, 100000000000) and data type float64\n"),
            ("--proj-dim", "100000000000", " shape (1, 16, 100000000000) and data type float64\n"),
            ("--proj-dim", "1000000000000000000", "array is too big"),
        ],
    )
    def test_toy_dimension_too_large_to_allocate_exits_2(self, capsys, flag, value, numpy_says):
        code, out, err = run(capsys, "simulate", "--toy", "--auto", "--budget", "1", flag, value)
        assert code == 2
        assert out == ""
        config = ToyModelConfig(**{flag[2:].replace("-", "_"): int(value)})
        assert err.startswith(f"error: a toy pass of {config!r} cannot be allocated: ") and err.count("\n") == 1
        assert numpy_says in err

    @staticmethod
    def toy_pass_in_3_gib(flags: str) -> subprocess.CompletedProcess:
        """Run a one-layer ``simulate --toy`` in a child limited to 3 GiB of address space, which binds it alone."""
        return python_child(
            "-m", "kvalloc.cli", *"simulate --toy --auto --budget 1 --layers 1".split(), *flags.split(),
            "--ows", "8", "--pool-size", "1", address_space=3 << 30,
        )

    # A mini pass's K/V buffer, (1, 2, heads, seq_len, proj_dim) float32, is 8 GB here while everything
    # before it fits in 3 GiB of address space.
    @pytest.mark.skipif(os.name != "posix", reason="needs resource.setrlimit")
    def test_toy_kv_buffer_too_large_to_allocate_exits_2(self):
        result = self.toy_pass_in_3_gib("--model-dim 1 --seq-len 1000 --proj-dim 1000000")
        assert (result.returncode, result.stdout) == (2, "")
        config = "ToyModelConfig(layers=1, heads=1, model_dim=1, proj_dim=1000000, seq_len=1000, seed=0)"
        assert result.stderr.startswith(f"error: a toy pass of {config} cannot be allocated: ")
        assert result.stderr.endswith(" shape (1, 2, 1, 1000, 1000000) and data type float32\n")
        assert result.stderr.count("\n") == 1

    # The band buffer, heads x 128 x seq_len float32, is 8 GB here, while the kept rows and the K/V buffer
    # allocated before it fit in 3 GiB.
    @pytest.mark.skipif(os.name != "posix", reason="needs resource.setrlimit")
    def test_toy_band_buffer_too_large_to_allocate_exits_2(self):
        result = self.toy_pass_in_3_gib("--heads 7630 --seq-len 2048 --model-dim 1 --proj-dim 1")
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.startswith("error: a toy pass of ToyModelConfig(layers=1, heads=7630")
        assert result.stderr.endswith(f" shape ({7630 * 128 * 2048},) and data type float32\n")
        assert result.stderr.count("\n") == 1

    def test_toy_negative_seed_exits_2_by_name(self, capsys):
        code, out, err = run(capsys, "simulate", "--toy", "--auto", "--budget", "1", "--seed", "-1")
        assert code == 2
        assert out == ""
        assert err == "error: seed must be >= 0, got -1\n"

    def test_toy_single_token_exits_2_by_name(self, capsys):
        code, out, err = run(capsys, "simulate", "--toy", "--auto", "--budget", "1", "--seq-len", "1")
        assert code == 2
        assert out == ""
        assert err == "error: seq_len must be >= 2, got 1\n"

    # The trace is scored for --auto before simulate_task sees the width.
    @pytest.mark.parametrize("proj_dim", ["-5", "0"])
    def test_proj_dim_below_one_exits_2(self, fixture_trace_path, capsys, proj_dim):
        code, out, err = run(
            capsys, "simulate", fixture_trace_path, "--auto", "--budget", "2",
            "--ows", "2", "--pool-size", "1", "--proj-dim", proj_dim,
        )
        assert code == 2
        assert out == ""
        assert err == f"error: proj_dim must be >= 1, got {proj_dim}\n"

    def test_allocation_file_source(self, fixture_trace_path, tmp_path, capsys):
        alloc_path = tmp_path / "alloc.json"
        alloc_path.write_text('{"sizes":[1,2]}', encoding="utf-8")
        code, out, _ = run(
            capsys, "simulate", fixture_trace_path,
            "--allocation", str(alloc_path), "--ows", "2", "--pool-size", "1",
        )
        assert code == 0
        assert json.loads(out)["sizes"] == [1, 2]

    @pytest.mark.parametrize("sizes", ["[1.9,2]", "[1,true]", '["1",2]', "2"])
    def test_non_integer_allocation_file_exits_2(self, fixture_trace_path, tmp_path, capsys, sizes):
        alloc_path = tmp_path / "alloc.json"
        alloc_path.write_text('{"sizes":%s}' % sizes, encoding="utf-8")
        code, out, err = run(
            capsys, "simulate", fixture_trace_path,
            "--allocation", str(alloc_path), "--ows", "2", "--pool-size", "1",
        )
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_profile_reuse_skips_allocator(self, fixture_trace_path, tmp_path, capsys):
        profile_path = tmp_path / "profile.json"
        profile_path.write_text(
            '{"task_type":"qa","samples":[[1,1],[1,3]],"averaged":[1,2],"sample_ratio":0.1}',
            encoding="utf-8",
        )
        code, out, _ = run(
            capsys, "simulate", fixture_trace_path,
            "--profile", str(profile_path), "--ows", "2", "--pool-size", "1",
        )
        assert code == 0
        assert json.loads(out)["sizes"] == [1, 2]

    def test_compare_uniform_orders_methods(self, tmp_path, capsys):
        trace_path = tmp_path / "skewed.bin"
        run(
            capsys, "gen", "--layers", "4", "--seq-len", "64", "--seed", "11",
            "--sparsity", "0.15", "--layer-skew", "2.0", "-o", str(trace_path),
        )
        code, out, err = run(
            capsys, "simulate", str(trace_path), "--auto", "--budget", "56",
            "--compare-uniform",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["r_avg"] >= payload["uniform"]["r_avg"]
        assert sum(payload["uniform"]["sizes"]) == sum(payload["sizes"])
        assert "uniform:" in err

    def test_no_allocation_source_exits_2(self, fixture_trace_path, capsys):
        code, _, err = run(capsys, "simulate", fixture_trace_path)
        assert code == 2
        assert "exactly one" in err

    def test_two_allocation_sources_exit_2(self, fixture_trace_path, tmp_path, capsys):
        alloc_path = tmp_path / "alloc.json"
        alloc_path.write_text('{"sizes":[1,1]}', encoding="utf-8")
        code, _, _ = run(
            capsys, "simulate", fixture_trace_path,
            "--allocation", str(alloc_path), "--auto", "--budget", "2",
        )
        assert code == 2

    def test_missing_trace_and_no_toy_exits_2(self, capsys):
        code, _, err = run(capsys, "simulate", "--auto", "--budget", "2")
        assert code == 2

    def test_trace_with_toy_exits_2(self, fixture_trace_path, capsys):
        code, _, err = run(
            capsys, "simulate", fixture_trace_path, "--toy", "--auto", "--budget", "2"
        )
        assert code == 2
        assert "mutually exclusive" in err

    def test_csv_format(self, fixture_trace_path, tmp_path, capsys):
        alloc_path = tmp_path / "alloc.json"
        alloc_path.write_text('{"sizes":[1,1]}', encoding="utf-8")
        code, out, _ = run(
            capsys, "simulate", fixture_trace_path,
            "--allocation", str(alloc_path), "--ows", "2", "--pool-size", "1",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "method,layer,n,retained,r"
        assert lines[1].startswith("personalized,0,1,3,")

    def test_csv_compare_uniform_bytes(self, fixture_trace_path, tmp_path, capsys):
        alloc_path = tmp_path / "alloc.json"
        alloc_path.write_text('{"sizes":[0,3]}', encoding="utf-8")
        code, out, _ = run(
            capsys, "simulate", fixture_trace_path,
            "--allocation", str(alloc_path), "--compare-uniform", "--ows", "2", "--pool-size", "1",
            "--format", "csv",
        )
        assert code == 0
        assert out == (
            "method,layer,n,retained,r\n"
            "personalized,0,0,2,0.0\n"
            "personalized,1,3,5,1.0\n"
            "uniform,0,2,4,0.8\n"
            "uniform,1,1,3,0.8999999962747096\n"
        )

    def test_json_compare_uniform_bytes(self, fixture_trace_path, tmp_path, capsys):
        alloc_path = tmp_path / "alloc.json"
        alloc_path.write_text('{"sizes":[0,3]}', encoding="utf-8")
        code, out, _ = run(
            capsys, "simulate", fixture_trace_path,
            "--allocation", str(alloc_path), "--compare-uniform", "--ows", "2", "--pool-size", "1",
        )
        assert code == 0
        policy = '"window_policy":"observation window retained in addition to per-layer budget"'
        assert out == (
            '{"sizes":[0,3],"ows":2,"retained_indices":[[3,4],[0,1,2,3,4]],'
            '"compression_ratio":0.7,"memory_reduction":0.30000000000000004,'
            '"bytes_before":640,"bytes_after":448,"per_layer_r":[0.0,1.0],"r_avg":0.5,'
            + policy
            + ',"uniform":{"sizes":[2,1],"ows":2,"retained_indices":[[0,1,3,4],[0,3,4]],'
            '"compression_ratio":0.7,"memory_reduction":0.30000000000000004,'
            '"bytes_before":640,"bytes_after":448,"per_layer_r":[0.8,0.8999999962747096],'
            '"r_avg":0.8499999981373548,'
            + policy
            + "}}\n"
        )

    def test_profile_whose_average_is_not_its_samples_exits_2(self, fixture_trace_path, tmp_path, capsys):
        profile_path = tmp_path / "profile.json"
        profile_path.write_text('{"task_type":"qa","samples":[[1,1],[1,3]],"averaged":[0,3]}', encoding="utf-8")
        code, out, err = run(
            capsys, "simulate", fixture_trace_path,
            "--profile", str(profile_path), "--ows", "2", "--pool-size", "1",
        )
        assert code == 2
        assert out == ""
        assert err == "error: profile averaged [0, 3] is not its samples' average [1, 2]\n"

    @pytest.mark.parametrize("flag, prefix", [("--allocation", '{"sizes":'), ("--profile", '{"task_type":"qa","samples":')])
    def test_deeply_nested_file_exits_2(self, fixture_trace_path, tmp_path, capsys, flag, prefix):
        path = tmp_path / "nested.json"
        path.write_text(prefix + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
        code, out, err = run(capsys, "simulate", fixture_trace_path, flag, str(path), "--ows", "2", "--pool-size", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: malformed ") and "maximum recursion depth exceeded" in err

    @pytest.mark.parametrize(
        "flag, what, text",
        [
            ("--allocation", "allocation JSON", '{"sizes":[1,1]}'),
            ("--profile", "profile file", '{"task_type":"qa","samples":[[1,1]],"averaged":[1,1]}'),
        ],
    )
    def test_utf16_file_exits_2(self, fixture_trace_path, tmp_path, capsys, flag, what, text):
        path = tmp_path / "utf16.json"
        path.write_bytes(text.encode("utf-16"))
        code, out, err = run(capsys, "simulate", fixture_trace_path, flag, str(path), "--ows", "2", "--pool-size", "1")
        assert (code, out) == (2, "")
        assert err == f"error: malformed {what}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"

    def test_profile_with_non_string_task_type_exits_2(self, fixture_trace_path, tmp_path, capsys):
        profile_path = tmp_path / "profile.json"
        profile_path.write_text('{"task_type":["x"],"samples":[[1,2]],"averaged":[1,2]}', encoding="utf-8")
        code, out, err = run(
            capsys, "simulate", fixture_trace_path,
            "--profile", str(profile_path), "--ows", "2", "--pool-size", "1",
        )
        assert code == 2
        assert out == ""
        assert "task_type must be a string" in err


class TestScoresAndCurves:
    def test_scores_csv(self, fixture_trace_path, capsys):
        code, out, _ = run(
            capsys, "scores", fixture_trace_path, "--ows", "2", "--pool-size", "1",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "layer,position,score"
        assert len(lines) == 1 + 2 * 3

    def test_scores_json(self, fixture_trace_path, capsys):
        code, out, _ = run(capsys, "scores", fixture_trace_path, "--ows", "2", "--pool-size", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["scores"] == pytest.approx([0.25, 0.15, 0.10], abs=1e-6)

    def test_scores_csv_bytes(self, fixture_trace_path, capsys):
        code, out, _ = run(
            capsys, "scores", fixture_trace_path, "--ows", "1", "--pool-size", "3",
            "--format", "csv",
        )
        assert code == 0
        assert out == (
            "layer,position,score\n"
            "0,0,0.13333333532015482\n"
            "0,1,0.16666666915019354\n"
            "0,2,0.0833333358168602\n"
            "0,3,0.033333333830038704\n"
            "1,0,0.1583333294838667\n"
            "1,1,0.16666666294137636\n"
            "1,2,0.016666666915019352\n"
            "1,3,0.008333333457509676\n"
        )

    def test_scores_json_bytes(self, fixture_trace_path, capsys):
        code, out, _ = run(capsys, "scores", fixture_trace_path, "--ows", "2", "--pool-size", "1")
        assert code == 0
        assert out == (
            '[{"layer":0,"scores":[0.25,0.15000000596046448,0.10000000149011612]},'
            '{"layer":1,"scores":[0.44999998807907104,0.02500000037252903,0.02500000037252903]}]\n'
        )

    def test_curves_sizes(self, fixture_trace_path, capsys):
        code, out, _ = run(
            capsys, "curves", fixture_trace_path, "--sizes", "0,1,3",
            "--ows", "2", "--pool-size", "1",
        )
        assert code == 0
        assert out == "layer,n,r\n0,0,0.0\n0,1,0.4999999925494195\n0,3,1.0\n1,0,0.0\n1,1,0.8999999962747096\n1,3,1.0\n"

    def test_curves_targets(self, fixture_trace_path, capsys):
        code, out, _ = run(
            capsys, "curves", fixture_trace_path, "--targets", "0.5,0.9",
            "--ows", "2", "--pool-size", "1",
        )
        assert code == 0
        assert out.startswith("layer,r_target,n_min\n")

    def test_curves_requires_exactly_one_table(self, fixture_trace_path, capsys):
        code, _, err = run(capsys, "curves", fixture_trace_path)
        assert code == 2


class TestProfileCommand:
    def test_build_and_reuse(self, tmp_path, capsys):
        traces = []
        for seed in (5, 6, 7):
            path = tmp_path / f"t{seed}.bin"
            run(
                capsys, "gen", "--layers", "3", "--seq-len", "48", "--seed", str(seed),
                "--sparsity", "0.15", "--layer-skew", "1.5", "-o", str(path),
            )
            traces.append(str(path))
        profile_path = tmp_path / "qa.json"
        code, _, err = run(
            capsys, "profile", *traces, "--task-type", "qa", "--budget", "30",
            "-o", str(profile_path),
        )
        assert code == 0
        assert "similarity" in err
        payload = json.loads(profile_path.read_text(encoding="utf-8"))
        assert payload["task_type"] == "qa"
        assert sum(payload["averaged"]) == 30

    def test_stdout_output_without_file(self, tmp_path, capsys):
        path = tmp_path / "t.bin"
        run(capsys, "gen", "--layers", "2", "--seq-len", "32", "--seed", "1", "-o", str(path))
        code, out, _ = run(capsys, "profile", str(path), "--task-type", "qa", "--budget", "10")
        assert code == 0
        assert json.loads(out)["averaged"]


class TestRemovedFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["scores", "t.bin", "--head-reduce", "mean"],
            ["profile", "t.bin", "--task-type", "qa", "--budget", "1", "--sample-ratio", "0.1"],
        ],
        ids=["head-reduce", "sample-ratio"],
    )
    def test_unknown_flag_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestDeterminism:
    def test_stdout_reproducible_across_runs(self, fixture_trace_path, capsys):
        commands = [
            ["allocate", fixture_trace_path, "--budget", "2", "--ows", "2", "--pool-size", "1"],
            ["scores", fixture_trace_path, "--ows", "2", "--pool-size", "1", "--format", "csv"],
            ["curves", fixture_trace_path, "--sizes", "0,1,2", "--ows", "2", "--pool-size", "1"],
            ["simulate", "--toy", "--seed", "9", "--auto", "--budget", "4",
             "--ows", "4", "--pool-size", "1"],
        ]
        for argv in commands:
            first = run(capsys, *argv)
            second = run(capsys, *argv)
            assert first[0] == 0
            assert first == second


class TestMalformedTraceFiles:
    @pytest.mark.parametrize(
        "header, message",
        [
            (b'{"version":1,"layers":"1","heads":1,"seq_len":2,"dtype":"f32le"}', "layers must be an integer, got '1'"),
            (b'{"version":1,"layers":1.5,"heads":1,"seq_len":2,"dtype":"f32le"}', "layers must be an integer, got 1.5"),
            (b'{"version":1,"layers":true,"heads":1,"seq_len":2,"dtype":"f32le"}', "layers must be an integer, got True"),
            (b'{"version":true,"layers":1,"heads":1,"seq_len":2,"dtype":"f32le"}', "unsupported trace version True"),
            (b'{"version":1,"layers":1,"heads":1,"seq_len":2.0,"dtype":"f32le"}', "seq_len must be an integer, got 2.0"),
        ],
    )
    def test_mistyped_header_field_exits_2(self, tmp_path, capsys, header, message):
        path = tmp_path / "t.bin"
        path.write_bytes(header + b"\n" + b"\0\0\x80\x3f" + b"\0" * 4 + b"\0\0\0\x3f" * 2)
        code, out, err = run(capsys, "allocate", str(path), "--budget", "0", "--ows", "1", "--pool-size", "1")
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "header", [b"[" * 100_000, b'{"version":' + b"1" * 5000 + b"}"], ids=["deep-nesting", "long-integer"]
    )
    def test_unparsable_header_exits_2(self, tmp_path, capsys, header):
        path = tmp_path / "t.bin"
        path.write_bytes(header + b"\n")
        code, out, err = run(capsys, "scores", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: malformed trace header")

    def test_nan_weight_exits_2(self, tmp_path, capsys):
        path = tmp_path / "t.bin"
        path.write_bytes(
            b'{"version":1,"layers":1,"heads":1,"seq_len":2,"dtype":"f32le"}\n'
            + b"\0\0\x80\x3f" + b"\0" * 4 + b"\0\0\xc0\x7f" + b"\0\0\0\x3f"
        )
        code, _, err = run(capsys, "scores", str(path), "--ows", "1", "--pool-size", "1")
        assert code == 2
        assert "non-finite weight at layer 0, head 0, row 1" in err

    # An [inf, -inf] row and a signalling NaN (bits 0x7f800001) each make numpy flag an invalid operation.
    @pytest.mark.parametrize(
        "payload, row",
        [(struct.pack("<4f", 1, 0, float("inf"), float("-inf")), 1), (struct.pack("<4I", 0x7F800001, 0, 0, 0x3F800000), 0)],
        ids=["inf-minus-inf", "signalling-nan"],
    )
    def test_invalid_operation_rows_exit_2_with_one_line(self, tmp_path, capsys, payload, row):
        path = tmp_path / "t.bin"
        path.write_bytes(b'{"version":1,"layers":1,"heads":1,"seq_len":2,"dtype":"f32le"}\n' + payload)
        code, out, err = run(capsys, "scores", str(path), "--ows", "1", "--pool-size", "1")
        assert (code, out, err) == (2, "", f"error: non-finite weight at layer 0, head 0, row {row}\n")


    # One defect outside the observation window, in the last (layer, head)
    # block: scoring never reads that row, but every row a file holds is
    # checked, so every command exits 2 with the loader's message.
    @pytest.mark.parametrize(
        "row, col, value",
        [(0, 0, float("nan")), (0, 5, 0.25), (3, 1, -0.5), (10, 0, 2.0)],
        ids=["nan", "non-causal", "negative", "row-sum"],
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ["scores"],
            ["curves", "--sizes", "1,2"],
            ["allocate", "--budget", "4"],
            ["simulate", "--auto", "--budget", "4", "--compare-uniform"],
            ["profile", "--budget", "4", "--task-type", "t"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_defect_outside_the_window_exits_2(self, tmp_path, capsys, argv, row, col, value):
        t = 32
        path = tmp_path / "t.bin"
        save_trace(generate_trace(SyntheticSpec(layers=3, heads=2, seq_len=t, sparsity=0.2, seed=1)), path)
        data = bytearray(path.read_bytes())
        offset = data.index(b"\n") + 1 + ((3 * 2 - 1) * t * t + row * t + col) * 4
        data[offset : offset + 4] = struct.pack("<f", value)
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError) as loaded:
            load_trace(path)
        assert f"at layer 2, head 1, row {row}" in str(loaded.value)
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert code == 2
        assert out == ""
        assert err == f"error: {loaded.value}\n"


class TestUsageErrorsBeforeInput:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["simulate", "missing.bin"], "exactly one of --allocation, --auto, or --profile is required"),
            (["simulate", "missing.bin", "--auto"], "exactly one of --budget or --target-ravg is required"),
            (["curves", "missing.bin"], "exactly one of --sizes or --targets is required"),
            (["simulate", "missing.bin", "--auto", "--budget", "1", "--proj-dim", "0"], "proj_dim must be >= 1, got 0"),
        ],
        ids=["simulate-no-allocation", "simulate-auto-no-constraint", "curves-no-sizes", "simulate-proj-dim"],
    )
    def test_flag_error_reported_before_the_trace_is_read(self, tmp_path, capsys, argv, message):
        argv = [str(tmp_path / arg) if arg == "missing.bin" else arg for arg in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    # Every command that reads a trace checks its window flags first, as
    # simulate does: a missing file is not reported over a bad flag.
    @pytest.mark.parametrize(
        "argv",
        [
            ["scores", "missing.bin"],
            ["curves", "missing.bin", "--sizes", "1"],
            ["allocate", "missing.bin", "--budget", "10"],
            ["simulate", "missing.bin", "--auto", "--budget", "10"],
            ["profile", "missing.bin", "--task-type", "qa", "--budget", "10"],
            # Without a constraint flag: the window flags are still checked first.
            ["allocate", "missing.bin"],
            ["profile", "missing.bin", "--task-type", "qa"],
            ["simulate", "missing.bin", "--auto"],
        ],
        ids=["scores", "curves", "allocate", "simulate", "profile",
             "allocate-no-constraint", "profile-no-constraint", "simulate-no-constraint"],
    )
    @pytest.mark.parametrize(
        "flag,message",
        [(["--pool-size", "2"], "pool_size must be odd, got 2"), (["--ows", "0"], "ows must be >= 1, got 0")],
        ids=["even-pool-size", "ows-zero"],
    )
    def test_window_flag_error_reported_before_the_trace_is_read(self, tmp_path, capsys, argv, flag, message):
        argv = [str(tmp_path / arg) if arg == "missing.bin" else arg for arg in argv]
        code, out, err = run(capsys, *argv, *flag)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "flag,message",
        [
            (["--sizes", "1,x"], "invalid literal for int() with base 10: 'x'"),
            (["--targets", "0.5,x"], "could not convert string to float: 'x'"),
            (["--sizes", "4,-1"], "n must be >= 0, got -1"),
            (["--targets", "0.5,1.5"], "target retention must be in [0, 1], got 1.5"),
            (["--targets", "nan"], "target retention must be in [0, 1], got nan"),
        ],
        ids=["sizes", "targets", "sizes-negative", "targets-above-one", "targets-nan"],
    )
    def test_curves_list_parsed_before_the_trace_is_read(self, tmp_path, capsys, flag, message):
        code, out, err = run(capsys, "curves", str(tmp_path / "missing.bin"), *flag)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"


class TestClosedStdout:
    """With stdout closed (``>&-``), Python sets ``sys.stdout`` to None."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["scores", "TRACE"],
            ["scores", "TRACE", "--format", "csv"],
            ["curves", "TRACE", "--sizes", "0,1"],
            ["curves", "TRACE", "--targets", "0.5"],
            ["allocate", "TRACE", "--budget", "4"],
            ["allocate", "TRACE", "--budget", "4", "--format", "csv"],
            ["profile", "TRACE", "TRACE", "--task-type", "qa", "--budget", "4"],
            ["simulate", "--toy", "--auto", "--budget", "4"],
        ],
        ids=" ".join,
    )
    def test_result_on_stdout_exits_2(self, fixture_trace_path, capsys, monkeypatch, argv):
        if "TRACE" in argv:
            argv = [fixture_trace_path if arg == "TRACE" else arg for arg in argv]
            argv += ["--ows", "2", "--pool-size", "1"]
        monkeypatch.setattr(sys, "stdout", None)
        code = main(argv)
        assert (code, capsys.readouterr().err) == (2, "error: stdout is closed\n")

    @pytest.mark.parametrize("command", ["gen", "profile"])
    def test_result_in_a_file_needs_no_stdout(self, fixture_trace_path, tmp_path, capsys, monkeypatch, command):
        out = tmp_path / "out"
        if command == "gen":
            argv = ["gen", "--layers", "2", "--seq-len", "8", "-o", str(out)]
        else:
            argv = ["profile", fixture_trace_path, "--task-type", "qa", "--budget", "4"]
            argv += ["--ows", "2", "--pool-size", "1", "-o", str(out)]
        monkeypatch.setattr(sys, "stdout", None)
        assert main(argv) == 0
        assert capsys.readouterr().err == f"wrote {out}\n"
        assert out.stat().st_size > 0

    @pytest.mark.skipif(os.name != "posix", reason="needs a POSIX shell")
    def test_from_a_shell(self, fixture_trace_path, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        cli = f"{shlex.quote(sys.executable)} -m kvalloc.cli"
        out = tmp_path / "t.bin"
        for command, code, err in [
            (f"scores {shlex.quote(fixture_trace_path)} --ows 2 --pool-size 1", 2, "error: stdout is closed\n"),
            (f"gen --layers 2 --seq-len 8 -o {shlex.quote(str(out))}", 0, f"wrote {out}\n"),
        ]:
            result = subprocess.run(
                ["sh", "-c", f"{cli} {command} >&-"], env=env, capture_output=True, text=True, timeout=60
            )
            assert (result.returncode, result.stderr) == (code, err)


@pytest.mark.skipif(os.name != "posix", reason="needs a POSIX shell")
class TestClosedStderr:
    """With stderr closed (``2>&-``), diagnostics are dropped and the command's result stands."""

    @staticmethod
    def shell(command: str, redirect: str) -> subprocess.CompletedProcess:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        cli = f"{shlex.quote(sys.executable)} -m kvalloc.cli"
        return subprocess.run(["sh", "-c", f"{cli} {command} {redirect}"], env=env, capture_output=True, timeout=60)

    def test_gen_writes_its_file(self, tmp_path):
        closed, open_ = tmp_path / "closed.bin", tmp_path / "open.bin"
        result = self.shell(f"gen --layers 2 --seq-len 16 -o {shlex.quote(str(closed))}", "2>&-")
        assert (result.returncode, result.stdout) == (0, b"")
        reference = self.shell(f"gen --layers 2 --seq-len 16 -o {shlex.quote(str(open_))}", "")
        assert reference.returncode == 0
        assert closed.read_bytes() == open_.read_bytes()

    @pytest.mark.parametrize(
        "command",
        [
            "simulate --toy --auto --budget 4",
            "simulate --toy --auto --budget 4 --compare-uniform --format csv",
            "allocate TRACE --budget 4 --ows 2 --pool-size 1 --format csv",
            "allocate TRACE --budget 4 --ows 2 --pool-size 1 --oracle",
            "profile TRACE TRACE --task-type qa --budget 4 --ows 2 --pool-size 1",
        ],
    )
    def test_stdout_is_unchanged(self, fixture_trace_path, command):
        command = command.replace("TRACE", shlex.quote(fixture_trace_path))
        reference = self.shell(command, "")
        assert reference.returncode == 0 and reference.stderr
        result = self.shell(command, "2>&-")
        assert (result.returncode, result.stdout) == (0, reference.stdout)

    def test_a_stderr_that_fails_every_write(self, tmp_path, capsys, monkeypatch):
        # Python may also wrap a closed descriptor 2, whose writes fail with EBADF.
        class Closed(io.TextIOBase):
            def write(self, text):
                raise OSError(errno.EBADF, "Bad file descriptor")

        monkeypatch.setattr(sys, "stderr", Closed())
        assert main(["gen", "--layers", "2", "--seq-len", "8", "-o", str(tmp_path / "t.bin")]) == 0
        assert main(["scores", str(tmp_path / "t.bin"), "--ows", "2", "--pool-size", "1", "--format", "csv"]) == 0
        assert capsys.readouterr().out.startswith("layer,position,score\n")
        assert main(["scores", str(tmp_path / "missing.bin")]) == 2

    @pytest.mark.parametrize(
        "command",
        [
            "scores MISSING",
            "allocate MISSING --budget 4",
            "simulate --toy --auto --budget -1",
            "gen --layers 0 --seq-len 8 -o OUT",
            # Usage errors: argparse prints its usage on stdout when sys.stderr is None.
            "-c 0",
            "simulate --toy --no-such-flag",
        ],
    )
    def test_refused_input_exits_2(self, tmp_path, command):
        command = command.replace("MISSING", shlex.quote(str(tmp_path / "missing.bin")))
        result = self.shell(command.replace("OUT", shlex.quote(str(tmp_path / "t.bin"))), "2>&-")
        assert (result.returncode, result.stdout) == (2, b"")


BAD_FLOATS = [float("nan"), float("inf"), float("-inf"), -1.0, 1e38]


@st.composite
def damaged_trace_files(draw) -> bytes:
    """A seeded 1-3 x 1-2 x 8-40 trace file with up to three bytes flipped, floats overwritten, or bytes cut or added."""
    spec = SyntheticSpec(
        layers=draw(st.integers(1, 3)), heads=draw(st.integers(1, 2)), seq_len=draw(st.integers(8, 40)),
        seed=draw(st.integers(0, 2**16)),
    )
    data = bytearray(generate_trace(spec).weights.tobytes())
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["flip", "float", "inf-pair", "cut", "append"]))
        if kind == "flip":
            data[draw(st.integers(0, len(data) - 1))] ^= 1 << draw(st.integers(0, 7))
        elif kind in ("float", "inf-pair"):
            values = [draw(st.sampled_from(BAD_FLOATS))] if kind == "float" else [float("inf"), float("-inf")]
            at = 4 * draw(st.integers(0, len(data) // 4 - len(values)))
            data[at : at + 4 * len(values)] = struct.pack(f"<{len(values)}f", *values)
        elif kind == "cut":
            del data[len(data) - draw(st.integers(1, 8)) :]
        else:
            data += draw(st.binary(min_size=1, max_size=8))
    header = b'{"version":1,"layers":%d,"heads":%d,"seq_len":%d,"dtype":"f32le"}\n'
    return header % (spec.layers, spec.heads, spec.seq_len) + bytes(data)


# Each flag's values: those a command runs with, then some it must refuse.
FLAG_VALUES = {
    "--ows": ([1, 2, 8], [-1, 0, 41]),
    "--pool-size": ([1, 3, 7], [-1, 0, 2]),
    "--budget": ([0, 4, 100, 10**6], [-1]),
    "--target-ravg": ([0.5, 1.0], [0.0, 1.5, *BAD_FLOATS]),
    "--sizes": (["0,1", "4"], ["-1", "100", "x"]),
    "--targets": (["0.5,1"], ["0", "1.5", "nan"]),
    "--layers": ([1, 3], [0]),
    "--heads": ([1, 2], [0]),
    "--seq-len": ([16, 40], [1]),
    "--model-dim": ([1, 8], [0]),
    "--proj-dim": ([1, 4], [0]),
    "--seed": ([0, 7], [-1]),
    "--sparsity": ([0.1, 1.0], [0.0, *BAD_FLOATS]),
    "--layer-skew": ([0.0, 2.5, 1e308], BAD_FLOATS),
}
PROC = ("--ows", "--pool-size")
TOY = ("--layers", "--heads", "--seq-len", "--model-dim", "--proj-dim", "--seed")
COMMANDS = {
    "scores": (["scores", "TRACE"], PROC),
    "curves --sizes": (["curves", "TRACE"], (*PROC, "--sizes")),
    "curves --targets": (["curves", "TRACE"], (*PROC, "--targets")),
    "allocate": (["allocate", "TRACE"], (*PROC, "CONSTRAINT")),
    "simulate": (["simulate", "TRACE", "--auto", "--compare-uniform"], (*PROC, "CONSTRAINT")),
    "simulate --toy": (["simulate", "--toy", "--auto"], (*TOY, *PROC, "CONSTRAINT")),
    "profile": (["profile", "TRACE", "TRACE", "--task-type", "t"], (*PROC, "CONSTRAINT")),
    "gen": (["gen", "--layers", "2", "--seq-len", "8", "-o", "OUT"], ("--sparsity", "--layer-skew")),
}


@st.composite
def command_lines(draw) -> list[str]:
    """One command on the trace ``TRACE`` or the toy model, with up to two of its flags given again, out of range.

    Values go in as ``--flag=value``, since argparse would take a lone ``-inf`` for a flag, and the
    last of a flag's values is the one it keeps.
    """
    argv, flags = COMMANDS[draw(st.sampled_from(sorted(COMMANDS)))]
    constraint = draw(st.sampled_from(["--budget", "--target-ravg"]))
    flags = [constraint if flag == "CONSTRAINT" else flag for flag in flags]
    good = [f"{flag}={draw(st.sampled_from(FLAG_VALUES[flag][0]))}" for flag in flags]
    bad = [f"{flag}={draw(st.sampled_from(FLAG_VALUES[flag][1]))}" for flag in draw(st.lists(st.sampled_from(flags), max_size=2))]
    return [*argv, *good, *bad]


# JSON values of every type an allocation or profile field may wrongly hold.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 6) | st.text(max_size=3)
    | st.sampled_from([10**400, -(10**400), 2**63, 1.5, 1e308, float("nan"), float("inf"), float("-inf")]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def allocation_files(draw) -> tuple[str, bytes]:
    """``--allocation`` or ``--profile`` and a file for it.

    The file is JSON with the flag's keys, one maybe dropped, holding sizes for the two-layer fixture or
    values of any type (bools, huge ints, ``NaN`` and ``Infinity`` literals). Then it may be nested past
    the recursion limit, cut, followed by trailing data, given a byte that is not UTF-8, or UTF-16.
    """
    sizes = st.lists(st.integers(0, 3), min_size=2, max_size=2) | JSON_VALUES
    flag = draw(st.sampled_from(["--allocation", "--profile"]))
    if flag == "--allocation":
        obj = {"sizes": draw(sizes)}
    else:
        samples = draw(st.lists(sizes, max_size=3) | JSON_VALUES)
        one = isinstance(samples, list) and len(samples) == 1 and draw(st.booleans())
        obj = {"task_type": draw(st.text(max_size=3) | JSON_VALUES), "samples": samples,
               "averaged": samples[0] if one else draw(sizes)}
    obj.pop(draw(st.sampled_from([None, None, None, *obj])), None)
    text = json.dumps(obj).encode()
    kind = draw(st.sampled_from(["as is"] * 4 + ["nested", "cut", "trailing", "not utf-8", "utf-16"]))
    if kind == "nested" and obj:
        depth = draw(st.sampled_from([10, 999, 5000]))
        key = json.dumps(draw(st.sampled_from(sorted(obj)))).encode()
        text = b"{%s:%s%s}" % (key, b"[" * depth, b"]" * depth)
    elif kind == "cut":
        text = text[: draw(st.integers(0, len(text) - 1))]
    elif kind == "trailing":
        text += draw(st.sampled_from([b" x", b"{}", b"\x00", b"\n\n1", b"]"]))
    elif kind == "not utf-8":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + text[at:]
    elif kind == "utf-16":
        text = text.decode().encode("utf-16")
    return flag, text


def assert_exit_0_or_one_error_line(capsys, argv: list[str]) -> None:
    """``main(argv)`` warns nothing and exits 0, or exits 2 with nothing on stdout and one ``error: `` line."""
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    out, err = capsys.readouterr()
    assert [str(w.message) for w in caught] == []
    assert code in (0, 2), err
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err


class TestFuzz:
    # Toy dimensions stay small here: a huge buffer that numpy maps lazily could be
    # filled for hours, so huge toy sizes are tried only in the limited children above.
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(damaged_trace_files(), command_lines())
    def test_exit_0_or_one_error_line(self, tmp_path, capsys, data, argv):
        path = tmp_path / "fuzz.bin"
        path.write_bytes(data)
        argv = [str(path) if a == "TRACE" else str(tmp_path / "out.bin") if a == "OUT" else a for a in argv]
        assert_exit_0_or_one_error_line(capsys, argv)

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(allocation_files(), st.booleans())
    def test_allocation_and_profile_files_exit_0_or_one_error_line(
        self, fixture_trace_path, tmp_path, capsys, flag_and_file, compare_uniform
    ):
        flag, data = flag_and_file
        path = tmp_path / "fuzz.json"
        path.write_bytes(data)
        argv = ["simulate", fixture_trace_path, flag, str(path), "--ows", "2", "--pool-size", "1"]
        assert_exit_0_or_one_error_line(capsys, argv + ["--compare-uniform"] * compare_uniform)
