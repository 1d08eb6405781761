"""Eviction: index selection, retained-row fidelity, memory accounting."""

import dataclasses
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kvalloc import eviction
from kvalloc.allocator import AllocationList, Constraint, allocate, uniform_allocation
from kvalloc.attnproc import ProcSettings, process_trace, score_window
from kvalloc.eviction import WINDOW_POLICY, EvictionReport, evict_layer, simulate_task
from kvalloc.metrics import r_avg as mean_retention
from kvalloc.metrics import retention
from kvalloc.toymodel import ToyModelConfig, full_prefill, mini_prefill
from kvalloc.trace import SyntheticSpec, generate_trace

from conftest import TWO_LAYER_ROWS, make_trace, where_exp_softmax


def reference_selection(q, k, n, ows, pool_size):
    """Independent re-derivation of the retained index set (pure Python)."""
    t, p = q.shape
    logits = (q @ k.T) / np.sqrt(p)
    weights = np.zeros((t, t))
    for i in range(t):
        row = logits[i, : i + 1]
        shifted = np.exp(row - row.max())
        weights[i, : i + 1] = shifted / shifted.sum()
    block = weights[t - ows :, : t - ows]
    merged = block.sum(axis=0) / ows
    pad = (pool_size - 1) // 2
    padded = np.concatenate([np.zeros(pad), merged, np.zeros(pad)])
    pooled = [padded[j : j + pool_size].sum() / pool_size for j in range(t - ows)]
    ranked = sorted(range(t - ows), key=lambda j: (-pooled[j], j))
    return sorted(ranked[:n] + list(range(t - ows, t)))


def full_matrix_selection(q, k, n, settings):
    """The whole-matrix path: softmax over all t x t logits, then score."""
    t, p = q.shape
    weights = where_exp_softmax(q @ np.asarray(k, dtype=np.float64).T / np.sqrt(p))
    scores = score_window(weights[t - settings.ows :], settings).scores
    top = np.argsort(-scores, kind="stable")[:n]
    return np.sort(np.concatenate([top, np.arange(t - settings.ows, t)]))


class TestEvictLayer:
    def test_matches_full_matrix_path_on_random_shapes(self):
        rng = np.random.default_rng(2412)
        for _ in range(300):
            t = int(rng.integers(2, 65))
            ows = int(rng.integers(1, t))
            pools = [ps for ps in (1, 3, 5, 7) if ps <= t - ows]
            pool_size = pools[int(rng.integers(len(pools)))]
            p = int(rng.integers(1, 17))
            q = rng.normal(size=(t, p)) * rng.uniform(0.1, 4.0)
            k = rng.normal(size=(t, p)).astype(np.float32)
            v = rng.normal(size=(t, p)).astype(np.float32)
            n = int(rng.integers(0, t - ows + 1))
            settings = ProcSettings(ows=ows, pool_size=pool_size)
            k_out, v_out, retained = evict_layer(q, k, v, n, settings)
            expected = full_matrix_selection(q, k, n, settings)
            assert retained.tolist() == expected.tolist(), (t, p, ows, pool_size, n)
            assert k_out.tobytes() == k[expected].tobytes()
            assert v_out.tobytes() == v[expected].tobytes()

    def test_matches_independent_reference(self):
        rng = np.random.default_rng(71)
        q = rng.normal(size=(12, 4))
        k = rng.normal(size=(12, 4))
        v = rng.normal(size=(12, 4))
        settings = ProcSettings(ows=3, pool_size=3)
        for n in (0, 2, 5, 9):
            k_out, v_out, retained = evict_layer(q, k, v, n, settings)
            assert retained.tolist() == reference_selection(q, k, n, 3, 3)
            assert np.array_equal(k_out, k[retained])
            assert np.array_equal(v_out, v[retained])

    def test_full_budget_keeps_everything(self):
        rng = np.random.default_rng(73)
        q, k, v = rng.normal(size=(3, 8, 4))
        k_out, v_out, retained = evict_layer(q, k, v, 6, ProcSettings(ows=2, pool_size=1))
        assert retained.tolist() == list(range(8))
        assert np.array_equal(k_out, k) and np.array_equal(v_out, v)

    def test_zero_budget_keeps_only_window(self):
        rng = np.random.default_rng(79)
        q, k, v = rng.normal(size=(3, 8, 4))
        k_out, _, retained = evict_layer(q, k, v, 0, ProcSettings(ows=2, pool_size=1))
        assert retained.tolist() == [6, 7]
        assert np.array_equal(k_out, k[6:])

    # Capacity is t - ows = 6: a size that is no integer, or outside [0, 6], is refused by its own name.
    @pytest.mark.parametrize(
        "n_i, message",
        [
            ("3", "n_i must be an integer, got '3'"),
            (None, "n_i must be an integer, got None"),
            (2.5, "n_i must be an integer, got 2.5"),
            (True, "n_i must be an integer, got True"),
            (-1, "n_i must be in [0, 6], got -1"),
            (7, "n_i must be in [0, 6], got 7"),
        ],
        ids=["str", "None", "float", "bool", "negative", "above-capacity"],
    )
    def test_budget_out_of_range_rejected(self, n_i, message):
        q, k, v = np.random.default_rng(83).normal(size=(3, 8, 4))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            evict_layer(q, k, v, n_i, ProcSettings(ows=2, pool_size=1))

    @pytest.mark.parametrize(
        "shapes",
        [((4, 2), (4, 3), (4, 2)), ((4, 2), (4, 2), (5, 2)), ((4,), (4,), (4,)), ((4, 0), (4, 0), (4, 0))],
        ids=["k-width", "v-length", "vectors", "zero-width"],
    )
    def test_shape_mismatch_rejected(self, shapes):
        q, k, v = (np.ones(shape) for shape in shapes)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^q, k, v must share one \(seq_len, proj_dim\) shape with proj_dim >= 1"):
                evict_layer(q, k, v, 0, ProcSettings(ows=1, pool_size=1))

    @pytest.mark.parametrize(
        "q_value, k_value",
        [(1.0, np.inf), (1.0, -np.inf), (np.nan, 1.0), (0.0, np.inf), (1e200, 1e200), (1e200, -1e200)],
        ids=["k-inf", "k-minus-inf", "q-nan", "zero-times-inf", "overflow", "overflow-negative"],
    )
    def test_non_finite_window_logits_rejected_by_name(self, q_value, k_value):
        q, k, v = np.random.default_rng(97).normal(size=(3, 8, 4))
        q[-1], k[2] = q_value, k_value  # one window query, one key
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^window logits q @ k\.T must be finite: q or k holds"):
                evict_layer(q, k, v, 2, ProcSettings(ows=2, pool_size=1))

    def test_finite_logits_whose_differences_overflow_run_clean(self):
        # Logits of +-1e308 are finite, but a row's shift by its max overflows to -inf: a weight of 0.
        q = np.array([[1.0], [1.0], [1.0]])
        k = np.array([[-1.7e308], [1.7e308], [0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, _, retained = evict_layer(q, k, k, 1, ProcSettings(ows=1, pool_size=1))
        assert retained.tolist() == [1, 2]

    @settings(max_examples=120, deadline=None)
    @given(
        t=st.integers(2, 300),
        ows_share=st.floats(0.0, 1.0),
        p=st.integers(1, 16),
        magnitude=st.sampled_from([1.0, 50.0, 1e6]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(t=2, ows_share=1.0, p=1, magnitude=1.0, seed=0)  # the largest window, ows = t - 1 = 1
    @example(t=300, ows_share=1.0, p=16, magnitude=1e6, seed=2)  # ows = t - 1 > 128
    @example(t=261, ows_share=0.8, p=5, magnitude=50.0, seed=3)  # ows > 128, t % 128 != 0
    @example(t=256, ows_share=0.5, p=8, magnitude=1e6, seed=4)  # ows = 128, t = 2 blocks
    @example(t=512, ows_share=0.0, p=16, magnitude=1.0, seed=5)  # one window row of a T=512 head
    def test_window_rows_bit_equal_to_the_where_exp_reference(self, t, ows_share, p, magnitude, seed):
        # The rows handed to score_window, softmaxed in place, have the bits of a where/exp/divide on the
        # same logits. The logits are the window rows' own product: BLAS may give a row other last bits in
        # a product of another height.
        ows = min(max(1, round(ows_share * t)), t - 1)
        rng = np.random.default_rng(seed)
        q, k = rng.normal(size=(t, p)) * magnitude, rng.normal(size=(t, p)).astype(np.float32)
        seen = []

        def capture(rows, settings):
            seen.append(rows.copy())
            return score_window(rows, settings)

        with mock.patch.object(eviction, "score_window", capture):
            evict_layer(q, k, k, 0, ProcSettings(ows=ows, pool_size=1))
        expected = where_exp_softmax(q[t - ows :] @ k.astype(np.float64).T / np.sqrt(p))
        assert seen[0].dtype == np.float64
        assert seen[0].tobytes() == expected.tobytes()

    def test_retained_rows_bit_equal(self):
        rng = np.random.default_rng(89)
        q = rng.normal(size=(10, 5))
        k = rng.normal(size=(10, 5)).astype(np.float32)
        v = rng.normal(size=(10, 5)).astype(np.float32)
        k_out, v_out, retained = evict_layer(q, k, v, 3, ProcSettings(ows=2, pool_size=1))
        assert k_out.tobytes() == k[retained].tobytes()
        assert v_out.tobytes() == v[retained].tobytes()


class TestSimulateTask:
    def test_hand_selection_example(self):
        # scores for layer 0 of the fixture come out to [0.25, 0.15, 0.10]:
        # with one slot, token 0 survives plus the two window tokens
        trace = make_trace([TWO_LAYER_ROWS[0]])
        report = simulate_task(trace, AllocationList(sizes=(1,)), ProcSettings(ows=2, pool_size=1))
        assert report.retained_indices == ((0, 3, 4),)

    def test_hand_selection_second_token_wins(self):
        # 4-token matrix scoring [0.15, 0.25]: token 1 beats token 0
        rows = [
            [1.0, 0.0, 0.0, 0.0],
            [0.5, 0.5, 0.0, 0.0],
            [0.2, 0.3, 0.5, 0.0],
            [0.1, 0.2, 0.3, 0.4],
        ]
        report = simulate_task(
            make_trace([rows]), AllocationList(sizes=(1,)), ProcSettings(ows=2, pool_size=1)
        )
        assert report.retained_indices == ((1, 2, 3),)

    def test_window_always_retained(self):
        trace = generate_trace(SyntheticSpec(layers=3, heads=1, seq_len=20, sparsity=0.2, seed=5))
        settings = ProcSettings(ows=4, pool_size=1)
        report = simulate_task(trace, AllocationList(sizes=(0, 3, 16)), settings)
        for idx in report.retained_indices:
            assert set(range(16, 20)) <= set(idx)
            assert list(idx) == sorted(idx)

    def test_full_capacity_is_lossless(self):
        trace = generate_trace(SyntheticSpec(layers=2, heads=1, seq_len=12, sparsity=0.5, seed=3))
        settings = ProcSettings(ows=2, pool_size=1)
        report = simulate_task(trace, AllocationList(sizes=(10, 10)), settings)
        assert report.compression_ratio == 1.0
        assert report.r_avg == 1.0
        assert report.bytes_after == report.bytes_before

    def test_accounting_identities(self):
        trace = generate_trace(
            SyntheticSpec(layers=4, heads=2, seq_len=32, sparsity=0.2, seed=11, layer_skew=1.0)
        )
        settings = ProcSettings(ows=8, pool_size=7)
        sizes = (5, 0, 17, 24)
        report = simulate_task(trace, AllocationList(sizes=sizes), settings)
        expected_ratio = sum(n + 8 for n in sizes) / (4 * 32)
        assert report.compression_ratio == expected_ratio
        assert report.bytes_after / report.bytes_before == report.compression_ratio
        assert report.r_avg == mean_retention(report.per_layer_r)

    def test_bytes_formula_single_head(self):
        trace = generate_trace(SyntheticSpec(layers=2, heads=1, seq_len=16, sparsity=0.5, seed=7))
        settings = ProcSettings(ows=4, pool_size=1)
        report = simulate_task(trace, AllocationList(sizes=(3, 6)), settings, proj_dim=10)
        assert report.bytes_after == sum(2 * (n + 4) * 10 * 4 for n in (3, 6))
        assert report.bytes_before == 2 * 2 * 16 * 10 * 4

    def test_operating_point_summary_formatting(self):
        # sum(n_i + ows) = 0.384 * layers * seq_len at these dimensions; the CLI prints the line
        # (tests/test_cli.py::TestSimulate::test_the_report_line_at_the_reference_operating_point).
        trace = generate_trace(SyntheticSpec(layers=2, heads=1, seq_len=250, sparsity=0.1, seed=1))
        settings = ProcSettings(ows=8, pool_size=7)
        report = simulate_task(trace, AllocationList(sizes=(88, 88)), settings)
        assert report.compression_ratio == 0.384
        assert f"{report.compression_ratio:.1%}" == "38.4%"
        assert f"{report.memory_reduction:.1%}" == "61.6%"
        assert report.window_policy == WINDOW_POLICY

    def test_personalized_not_worse_than_uniform(self):
        spec = SyntheticSpec(layers=6, heads=1, seq_len=64, sparsity=0.15, seed=23, layer_skew=1.5)
        trace = generate_trace(spec)
        settings = ProcSettings(ows=8, pool_size=7)
        vectors = process_trace(trace, settings)
        total = 84
        personalized = allocate(vectors, Constraint.budget(total))
        uniform = uniform_allocation(total, 6, 56)
        personal_report = simulate_task(trace, personalized, settings)
        uniform_report = simulate_task(trace, uniform, settings)
        assert personal_report.r_avg > uniform_report.r_avg

    def test_toy_model_source_uses_real_kv_width(self):
        config = ToyModelConfig(layers=2, heads=1, model_dim=8, proj_dim=5, seq_len=12, seed=2)
        settings = ProcSettings(ows=4, pool_size=1)
        full = full_prefill(config)
        report = simulate_task(full, AllocationList(sizes=(2, 3)), settings, proj_dim=999)
        assert report.bytes_before == 2 * 12 * 2 * 1 * 5 * 4

    def test_mini_prefill_source_uses_given_width(self):
        config = ToyModelConfig(layers=2, heads=1, model_dim=8, proj_dim=5, seq_len=12, seed=2)
        settings = ProcSettings(ows=4, pool_size=1)
        mini = mini_prefill(config)
        report = simulate_task(mini, AllocationList(sizes=(2, 3)), settings, proj_dim=5)
        full_report = simulate_task(
            full_prefill(config), AllocationList(sizes=(2, 3)), settings
        )
        assert report.bytes_before == full_report.bytes_before
        assert report.retained_indices == full_report.retained_indices

    def test_matches_full_matrix_reference_for_trace(self):
        trace = generate_trace(
            SyntheticSpec(layers=3, heads=4, seq_len=40, sparsity=0.2, seed=19, layer_skew=1.5)
        )
        settings = ProcSettings(ows=8, pool_size=7)
        allocation = AllocationList(sizes=(5, 0, 32))
        from_trace = simulate_task(trace, allocation, settings)
        # The whole-matrix reference: float64 head mean over full matrices.
        for layer in range(3):
            full = trace.weights[layer].astype(np.float64).mean(axis=0)
            scores = score_window(full[32:], settings).scores
            assert from_trace.per_layer_r[layer] == retention(scores, allocation.sizes[layer])
            top = np.argsort(-scores, kind="stable")[: allocation.sizes[layer]]
            expected = np.sort(np.concatenate([top, np.arange(32, 40)]))
            assert from_trace.retained_indices[layer] == tuple(expected.tolist())

    def test_raw_array_source_rejected(self):
        trace = generate_trace(SyntheticSpec(layers=2, heads=1, seq_len=8, sparsity=0.5, seed=0))
        settings = ProcSettings(ows=2, pool_size=1)
        with pytest.raises(TypeError, match="AttentionTrace or a PrefillResult"):
            simulate_task(np.array(trace.weights), AllocationList(sizes=(1, 1)), settings)

    def test_zero_score_layer_retains_everything(self):
        # The second layer's window rows attend only inside the window.
        trace = make_trace([TWO_LAYER_ROWS[0], np.eye(5).tolist()])
        report = simulate_task(trace, AllocationList(sizes=(1, 0)), ProcSettings(ows=2, pool_size=1))
        assert report.per_layer_r[1] == 1.0
        assert report.retained_indices[1] == (3, 4)

    def test_allocation_length_mismatch_rejected(self):
        trace = generate_trace(SyntheticSpec(layers=2, heads=1, seq_len=8, sparsity=0.5, seed=0))
        with pytest.raises(ValueError, match="layers"):
            simulate_task(trace, AllocationList(sizes=(1,)), ProcSettings(ows=2, pool_size=1))

    @pytest.mark.parametrize("proj_dim", [-5, 0, 2.5, True, np.float64(8.0), "8"], ids=repr)
    def test_proj_dim_refused_by_name_before_scoring(self, proj_dim):
        trace = generate_trace(SyntheticSpec(layers=1, heads=1, seq_len=8, sparsity=0.5, seed=0))
        rule = ">= 1" if type(proj_dim) is int else "an integer"
        # Scoring would refuse this window; the width is refused first.
        with pytest.raises(ValueError, match=f"^proj_dim must be {rule}, got {re.escape(repr(proj_dim))}$"):
            simulate_task(trace, AllocationList(sizes=(1,)), ProcSettings(ows=8, pool_size=1), proj_dim=proj_dim)

    def test_numpy_proj_dim_counts_python_int_bytes(self):
        trace = generate_trace(SyntheticSpec(layers=2, heads=1, seq_len=16, sparsity=0.5, seed=7))
        settings = ProcSettings(ows=np.uint8(4), pool_size=np.int32(1))
        allocation = AllocationList(sizes=(3, 6))
        report = simulate_task(trace, allocation, settings, proj_dim=np.uint8(200))
        assert type(report.bytes_before) is type(report.bytes_after) is type(report.ows) is int
        assert report == simulate_task(trace, allocation, ProcSettings(ows=4, pool_size=1), proj_dim=200)
        assert report.bytes_after == sum(2 * (n + 4) * 200 * 4 for n in (3, 6))

    def test_oversized_layer_budget_rejected(self):
        trace = generate_trace(SyntheticSpec(layers=1, heads=1, seq_len=8, sparsity=0.5, seed=0))
        with pytest.raises(ValueError, match=r"^layer 0: n_i must be in \[0, 6\], got 7$"):
            simulate_task(trace, AllocationList(sizes=(7,)), ProcSettings(ows=2, pool_size=1))

    @pytest.mark.parametrize("allocation", [(3, 4), [3], np.array([3]), None], ids=repr)
    def test_allocation_must_be_an_allocation_list(self, allocation):
        trace = generate_trace(SyntheticSpec(layers=1, heads=1, seq_len=8, sparsity=0.5, seed=0))
        with pytest.raises(ValueError, match="^allocation must be an AllocationList, got "):
            simulate_task(trace, allocation, ProcSettings(ows=2, pool_size=1))


class TestReportKeepsCounts:
    def test_fields_are_what_was_counted_or_given(self):
        names = [f.name for f in dataclasses.fields(EvictionReport)]
        assert names == ["sizes", "ows", "retained_indices", "bytes_before", "bytes_after", "per_layer_r"]
        assert EvictionReport.window_policy == WINDOW_POLICY

    @settings(max_examples=60, deadline=None)
    @given(
        source=st.sampled_from(["trace", "mini", "full"]),
        layers=st.integers(1, 3),
        heads=st.integers(1, 3),
        seq_len=st.integers(2, 40),
        proj_dim=st.integers(1, 2**70),
        data=st.data(),
    )
    def test_ratio_is_the_size_formula_exactly(self, source, layers, heads, seq_len, proj_dim, data):
        ows = data.draw(st.integers(1, seq_len - 1))
        sizes = tuple(data.draw(st.lists(st.integers(0, seq_len - ows), min_size=layers, max_size=layers)))
        seed, width = data.draw(st.integers(0, 9)), data.draw(st.integers(1, 6))
        if source == "trace":
            src = generate_trace(SyntheticSpec(layers=layers, heads=heads, seq_len=seq_len, seed=seed))
        else:
            config = ToyModelConfig(layers=layers, heads=heads, model_dim=8, proj_dim=width, seq_len=seq_len, seed=seed)
            src = (full_prefill if source == "full" else mini_prefill)(config, rows=seq_len)
        settings = ProcSettings(ows=ows, pool_size=1)
        report = simulate_task(src, AllocationList(sizes=sizes), settings, proj_dim=proj_dim)
        assert report.compression_ratio == sum(n + ows for n in sizes) / (layers * seq_len)
        assert report.memory_reduction == 1.0 - report.compression_ratio
        assert report.r_avg == mean_retention(report.per_layer_r)
