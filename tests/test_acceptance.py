"""Acceptance suite: one test per criterion, one pass line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass lines and
timings; each test enforces its stated runtime bound.
"""

import time
from pathlib import Path

import numpy as np

from kvalloc.allocator import (
    AllocationList,
    Constraint,
    allocate,
    allocation_r_avg,
    oracle_allocate,
    uniform_allocation,
)
from kvalloc.attnproc import ProcSettings, process_trace
from kvalloc.cli import main
from kvalloc.eviction import simulate_task
from kvalloc.metrics import retention_curve, topk_indices
from kvalloc.toymodel import ToyModelConfig, full_prefill, mini_prefill
from kvalloc.trace import SyntheticSpec, generate_trace, load_trace, save_trace

README = Path(__file__).resolve().parent.parent / "README.md"


def report_pass(name: str, started: float) -> None:
    print(f"[ACCEPTANCE] {name}: PASS ({time.perf_counter() - started:.1f}s)")


class TestGreedyOptimality:
    def test_greedy_matches_oracle_on_exhaustive_grid(self):
        started = time.perf_counter()
        rng = np.random.default_rng(424242)
        for layers in range(1, 5):
            for length in range(1, 9):
                scores = [rng.uniform(0.01, 1.0, size=length) for _ in range(layers)]
                for n in range(layers * length + 1):
                    greedy = allocate(scores, Constraint.budget(n))
                    oracle = oracle_allocate(scores, Constraint.budget(n))
                    assert greedy.total == n
                    assert abs(
                        allocation_r_avg(scores, greedy) - allocation_r_avg(scores, oracle)
                    ) <= 1e-9
                for target in [round(0.1 * i, 1) for i in range(1, 11)]:
                    greedy = allocate(scores, Constraint.target(target))
                    oracle = oracle_allocate(scores, Constraint.target(target))
                    assert greedy.total == oracle.total
                    assert allocation_r_avg(scores, greedy) >= target
        assert time.perf_counter() - started < 60.0
        report_pass("greedy-optimality (budget + target vs oracle)", started)


class TestMiniPrefillFidelity:
    def test_twenty_seeded_configs(self):
        started = time.perf_counter()
        rng = np.random.default_rng(77)
        for case in range(20):
            config = ToyModelConfig(
                layers=int(rng.integers(1, 9)),
                heads=int(rng.integers(1, 4)),
                model_dim=int(rng.integers(4, 24)),
                proj_dim=int(rng.integers(2, 12)),
                seq_len=int(rng.integers(2, 129)),
                seed=1000 + case,
            )
            # Whole matrices: the default keeps only the observation window's rows.
            full = full_prefill(config, rows=config.seq_len)
            mini = mini_prefill(config, rows=config.seq_len)
            assert full.per_layer_attention.shape[2] == config.seq_len
            diff = np.abs(full.per_layer_attention - mini.per_layer_attention).max()
            assert diff <= 1e-6, f"config {config}: attention diverges by {diff}"
            assert mini.kv_bytes == 0
            assert mini.kv_pairs is None
        assert time.perf_counter() - started < 30.0
        report_pass("mini-prefill fidelity (20 configs, zero live K/V bytes)", started)


class TestPersonalizedVersusUniform:
    def test_fifty_skewed_traces(self):
        started = time.perf_counter()
        settings = ProcSettings(ows=8, pool_size=7)
        budget = 216
        strict_wins = 0
        for seed in range(50):
            spec = SyntheticSpec(
                layers=6, heads=1, seq_len=128, sparsity=0.08, seed=seed, layer_skew=2.5
            )
            vectors = process_trace(generate_trace(spec), settings)
            personalized = allocate(vectors, Constraint.budget(budget))
            uniform = uniform_allocation(budget, 6, 120)
            r_personal = allocation_r_avg(vectors, personalized)
            r_uniform = allocation_r_avg(vectors, uniform)
            assert r_personal >= r_uniform, f"seed {seed}: {r_personal} < {r_uniform}"
            if r_personal > r_uniform:
                strict_wins += 1
        assert strict_wins >= 45, f"strictly better on only {strict_wins}/50"
        assert time.perf_counter() - started < 30.0
        report_pass(f"personalized >= uniform (strict on {strict_wins}/50)", started)


class TestAccountingIdentities:
    def test_identities_hold_on_varied_runs(self):
        started = time.perf_counter()
        rng = np.random.default_rng(11)
        settings = ProcSettings(ows=8, pool_size=7)
        for case in range(8):
            layers = int(rng.integers(1, 6))
            seq_len = int(rng.integers(24, 80))
            spec = SyntheticSpec(
                layers=layers, heads=int(rng.integers(1, 3)), seq_len=seq_len,
                sparsity=0.2, seed=case, layer_skew=1.0,
            )
            trace = generate_trace(spec)
            capacity = seq_len - 8
            sizes = tuple(int(rng.integers(0, capacity + 1)) for _ in range(layers))
            report = simulate_task(trace, AllocationList(sizes=sizes), settings)
            expected = sum(n + 8 for n in sizes) / (layers * seq_len)
            assert report.compression_ratio == expected
            assert report.bytes_after / report.bytes_before == report.compression_ratio
        report_pass("accounting identities (8 varied simulate runs)", started)

    def test_reference_operating_point(self):
        started = time.perf_counter()
        spec = SyntheticSpec(layers=32, heads=1, seq_len=1000, sparsity=0.1, seed=5, layer_skew=1.0)
        trace = generate_trace(spec)
        settings = ProcSettings(ows=8, pool_size=7)
        # uniform n_i with sum(n_i + ows) = 0.384 * layers * seq_len
        sizes = AllocationList(sizes=(376,) * 32)
        report = simulate_task(trace, sizes, settings)
        assert report.compression_ratio == 0.384
        assert report.bytes_after / report.bytes_before == 0.384
        assert f"{report.compression_ratio:.1%}" == "38.4%"
        assert f"{report.memory_reduction:.1%}" == "61.6%"
        report_pass("reference operating point (38.4% ratio / 61.6% reduction)", started)


class TestMetricSuite:
    def test_thousand_seeded_vectors(self):
        started = time.perf_counter()
        rng = np.random.default_rng(314159)
        failures = []

        # 600 vectors: retention curve monotone, full retention exactly 1
        for case in range(600):
            w = rng.uniform(0.0, 1.0, size=int(rng.integers(1, 64)))
            if w.sum() == 0.0:
                w[0] = 1.0
            curve = retention_curve(w)
            if not np.all(np.diff(curve) >= 0.0):
                failures.append(("monotonicity", case))
            if curve[-1] != 1.0:
                failures.append(("full-retention", case))

        # 300 vectors across 100 allocation instances: scale invariance
        for case in range(100):
            scores = [rng.uniform(0.01, 1.0, size=6) for _ in range(3)]
            budget = int(rng.integers(0, 19))
            base = allocate(scores, Constraint.budget(budget)).sizes
            for c in (1e-6, 3.0, 1e6):
                scaled = [scores[0] * c, scores[1], scores[2] * c]
                if allocate(scaled, Constraint.budget(budget)).sizes != base:
                    failures.append(("scale-invariance", case, c))

        # 100 vectors with forced ties: deterministic lower-index-first top-k
        for case in range(100):
            w = np.repeat(rng.uniform(0.1, 1.0, size=4), 3)
            rng.shuffle(w)
            for n in (1, 3, 6):
                picked = topk_indices(w, n)
                expected = sorted(range(w.size), key=lambda i: (-w[i], i))[:n]
                if picked.tolist() != expected:
                    failures.append(("topk-ties", case, n))

        assert failures == []
        report_pass("metric suite (1000 seeded vectors, zero failures)", started)


class TestRoundTripAndDeterminism:
    def test_trace_roundtrip_bit_identical(self, tmp_path):
        started = time.perf_counter()
        for seed in (1, 2, 3):
            spec = SyntheticSpec(
                layers=3, heads=2, seq_len=48, sparsity=0.15, seed=seed, layer_skew=1.3
            )
            trace = generate_trace(spec)
            a, b = tmp_path / f"a{seed}.bin", tmp_path / f"b{seed}.bin"
            save_trace(trace, a)
            save_trace(load_trace(a), b)
            assert a.read_bytes() == b.read_bytes()
        report_pass("trace save/load round-trip byte-identical", started)

    def test_cli_commands_bit_reproducible(self, tmp_path, capsys):
        started = time.perf_counter()
        trace_path = tmp_path / "task.bin"
        gen = [
            "gen", "--layers", "4", "--seq-len", "64", "--seed", "21",
            "--sparsity", "0.15", "--layer-skew", "1.5", "-o", str(trace_path),
        ]
        assert main(gen) == 0
        first_bytes = trace_path.read_bytes()
        assert main(gen) == 0
        assert trace_path.read_bytes() == first_bytes
        capsys.readouterr()

        commands = [
            ["scores", str(trace_path), "--format", "csv"],
            ["curves", str(trace_path), "--sizes", "0,4,16"],
            ["curves", str(trace_path), "--targets", "0.5,0.9"],
            ["allocate", str(trace_path), "--budget", "40"],
            ["allocate", str(trace_path), "--target-ravg", "0.8"],
            ["simulate", str(trace_path), "--auto", "--budget", "40", "--compare-uniform"],
            ["simulate", "--toy", "--seed", "3", "--layers", "3", "--seq-len", "32",
             "--auto", "--budget", "12"],
            ["profile", str(trace_path), str(trace_path), "--task-type", "qa", "--budget", "40"],
        ]
        for argv in commands:
            assert main(argv) == 0
            first = capsys.readouterr().out
            assert main(argv) == 0
            assert capsys.readouterr().out == first, f"non-deterministic: {argv}"
        report_pass("CLI bit-reproducibility (8 commands, 2 runs each)", started)


class TestScopeStatement:
    def test_readme_declares_non_reproducible_results(self):
        started = time.perf_counter()
        text = README.read_text(encoding="utf-8")
        assert "NOT reproducible at desk scale" in text
        report_pass("non-reproducibility statement present in README", started)
