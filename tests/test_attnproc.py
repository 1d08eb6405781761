"""Attention-processing pipeline: select, merge, pool."""

import re

import numpy as np
import pytest

from kvalloc.allocator import Constraint, allocate
from kvalloc.attnproc import ProcSettings, ScoreVector, process_trace, score_window, smooth
from kvalloc.metrics import retention_curve
from kvalloc.toymodel import ToyModelConfig, full_prefill, mini_prefill
from kvalloc.trace import SyntheticSpec, generate_trace

from conftest import where_exp_softmax

FIG_PIPELINE_MATRIX = [
    [1.0, 0.0, 0.0, 0.0],
    [0.5, 0.5, 0.0, 0.0],
    [0.2, 0.3, 0.5, 0.0],
    [0.1, 0.2, 0.3, 0.4],
]


def uniform_causal(t: int) -> np.ndarray:
    mat = np.tri(t)
    return mat / mat.sum(axis=1, keepdims=True)


class TestSettings:
    def test_even_pool_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            ProcSettings(ows=2, pool_size=4)

    def test_nonpositive_fields_rejected(self):
        with pytest.raises(ValueError):
            ProcSettings(ows=0, pool_size=1)
        with pytest.raises(ValueError):
            ProcSettings(ows=1, pool_size=-1)

    # The same values as ows are refused in test_metrics.TestSizeArguments::test_compression_ratio_rejects.
    @pytest.mark.parametrize("value", [True, np.True_, 3.0, np.float64(3.0), "3", None], ids=repr)
    def test_non_integer_pool_size_rejected_by_name(self, value):
        with pytest.raises(ValueError, match=f"^pool_size must be an integer, got {re.escape(repr(value))}$"):
            ProcSettings(pool_size=value)

    def test_numpy_integers_kept_as_python_ints(self):
        settings = ProcSettings(ows=np.uint8(10), pool_size=np.int64(3))
        assert settings == ProcSettings(ows=10, pool_size=3)
        assert type(settings.ows) is type(settings.pool_size) is int

    def test_window_must_fit_sequence(self):
        with pytest.raises(ValueError, match="ows"):
            ProcSettings(ows=4, pool_size=1).check_seq_len(4)

    def test_pool_must_fit_non_window_part(self):
        with pytest.raises(ValueError, match="pool_size"):
            ProcSettings(ows=2, pool_size=3).check_seq_len(4)


class TestProcessLayer:
    """One layer's whole matrix, scored by ``score_window`` on its last ``ows`` rows."""

    def test_select_merge_hand_example(self):
        # window rows over non-window columns are [[0.2, 0.3], [0.1, 0.2]]
        sv = score_window(np.array(FIG_PIPELINE_MATRIX)[2:], ProcSettings(ows=2, pool_size=1))
        assert sv.scores == pytest.approx([0.15, 0.25], abs=1e-12)

    def test_pool_size_one_is_identity(self):
        rng = np.random.default_rng(4)
        mat = where_exp_softmax(rng.normal(size=(10, 10)))
        merged = mat[8:, :8].mean(axis=0)
        sv = score_window(mat[8:], ProcSettings(ows=2, pool_size=1))
        assert np.array_equal(sv.scores, merged)

    def test_uniform_matrix_interior_positions_constant(self):
        sv = score_window(uniform_causal(6)[4:], ProcSettings(ows=2, pool_size=3))
        interior = sv.scores[1:-1]
        assert np.abs(interior - interior[0]).max() <= 1e-9
        flat = score_window(uniform_causal(6)[4:], ProcSettings(ows=2, pool_size=1))
        assert np.abs(flat.scores - flat.scores[0]).max() <= 1e-9

    def test_output_length_is_t_minus_ows_for_any_pool(self):
        mat = uniform_causal(12)
        for ps in (1, 3, 5, 7):
            assert len(score_window(mat[9:], ProcSettings(ows=3, pool_size=ps))) == 9

    def test_merge_mass_identity(self):
        rng = np.random.default_rng(9)
        mat = where_exp_softmax(rng.normal(size=(14, 14)))
        ows = 4
        sv = score_window(mat[14 - ows :], ProcSettings(ows=ows, pool_size=1))
        window_to_rest = mat[14 - ows :, : 14 - ows].sum()
        assert sv.scores.sum() == pytest.approx(window_to_rest / ows, abs=1e-12)

    def test_non_square_rejected(self):
        # A whole (here 3 x 4) matrix in place of its window rows is rejected.
        with pytest.raises(ValueError, match="window rows"):
            score_window(np.zeros((3, 4)), ProcSettings(ows=1, pool_size=1))

    def test_deterministic(self):
        mat = uniform_causal(9)
        settings = ProcSettings(ows=3, pool_size=3)
        a = score_window(mat[6:], settings)
        b = score_window(mat[6:], settings)
        assert np.array_equal(a.scores, b.scores)


class TestSmoothing:
    def test_zero_padding_at_edges(self):
        out = smooth(np.array([3.0, 3.0, 3.0, 3.0]), 3)
        assert out == pytest.approx([2.0, 3.0, 3.0, 2.0])

    def test_length_preserved(self):
        assert smooth(np.arange(10.0), 5).shape == (10,)


class TestProcessTrace:
    def test_single_head_matches_per_layer_map(self):
        trace = generate_trace(SyntheticSpec(layers=3, heads=1, seq_len=20, sparsity=0.3, seed=2))
        settings = ProcSettings(ows=4, pool_size=3)
        vectors = process_trace(trace, settings)
        for layer, sv in enumerate(vectors):
            direct = score_window(trace.weights[layer, 0, 16:].astype(np.float64), settings, layer=layer)
            assert np.array_equal(sv.scores, direct.scores)
            assert sv.layer == layer

    def test_two_heads_reduce_to_mean(self):
        trace = generate_trace(
            SyntheticSpec(layers=2, heads=2, seq_len=18, sparsity=0.25, seed=8, layer_skew=1.0)
        )
        settings = ProcSettings(ows=3, pool_size=1)
        vectors = process_trace(trace, settings)
        for layer, sv in enumerate(vectors):
            a = trace.weights[layer, 0].astype(np.float64)
            b = trace.weights[layer, 1].astype(np.float64)
            expected = score_window(((a + b) / 2.0)[15:], settings)
            assert np.abs(sv.scores - expected.scores).max() <= 1e-15

    def test_layer_count_and_order(self):
        trace = generate_trace(SyntheticSpec(layers=3, heads=1, seq_len=10, sparsity=0.5, seed=0))
        vectors = process_trace(trace, ProcSettings(ows=2, pool_size=1))
        assert [sv.layer for sv in vectors] == [0, 1, 2]

    def test_window_rows_match_full_matrix_reference(self):
        # Reference: average heads over the whole float64 matrix, then score it.
        trace = generate_trace(
            SyntheticSpec(layers=3, heads=4, seq_len=40, sparsity=0.2, seed=13, layer_skew=1.5)
        )
        for settings in (ProcSettings(ows=1, pool_size=1), ProcSettings(ows=8, pool_size=7)):
            got = process_trace(trace, settings)
            for layer, sv in enumerate(got):
                full = trace.weights[layer].astype(np.float64).mean(axis=0)
                expected = score_window(full[40 - settings.ows :], settings, layer=layer)
                assert sv.scores.tobytes() == expected.scores.tobytes()
                assert sv.layer == layer

    def test_window_too_large_rejected(self):
        trace = generate_trace(SyntheticSpec(layers=1, heads=2, seq_len=6, sparsity=0.5, seed=0))
        with pytest.raises(ValueError, match="ows 6 must be < seq_len 6"):
            process_trace(trace, ProcSettings(ows=6, pool_size=1))

    @pytest.mark.parametrize("prefill", [mini_prefill, full_prefill])
    def test_prefill_scored_from_its_window_rows_cast_before_the_head_mean(self, prefill):
        result = prefill(ToyModelConfig(layers=3, heads=2, model_dim=12, proj_dim=4, seq_len=20, seed=6), rows=20)
        settings = ProcSettings(ows=4, pool_size=3)
        got = process_trace(result, settings)
        assert [sv.layer for sv in got] == [0, 1, 2]
        for layer, sv in enumerate(got):
            rows = result.per_layer_attention[layer, :, 16:].astype(np.float64).mean(axis=0)
            assert sv.scores.tobytes() == score_window(rows, settings).scores.tobytes()

    def test_other_sources_rejected(self):
        trace = generate_trace(SyntheticSpec(layers=2, heads=1, seq_len=8, sparsity=0.5, seed=0))
        with pytest.raises(TypeError, match="AttentionTrace or a PrefillResult"):
            process_trace(np.array(trace.weights), ProcSettings(ows=2, pool_size=1))


class TestScoreWindow:
    def test_hand_example_from_window_rows(self):
        rows = np.array(FIG_PIPELINE_MATRIX)[2:]
        sv = score_window(rows, ProcSettings(ows=2, pool_size=1))
        assert sv.scores == pytest.approx([0.15, 0.25], abs=1e-12)

    @pytest.mark.parametrize("shape", [(3, 8), (1, 8), (2,), (2, 2, 8)])
    def test_row_count_must_equal_window(self, shape):
        with pytest.raises(ValueError, match="window rows"):
            score_window(np.zeros(shape), ProcSettings(ows=2, pool_size=1))

    def test_window_must_fit_row_length(self):
        with pytest.raises(ValueError, match="ows"):
            score_window(np.zeros((2, 2)), ProcSettings(ows=2, pool_size=1))


class TestScoreVector:
    def test_negative_scores_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ScoreVector(layer=0, scores=np.array([0.1, -0.2]))

    def test_a_float32_signalling_nan_is_refused_without_a_warning(self):
        scores = np.array([0x3F800000, 0x7F800001], dtype=np.uint32).view(np.float32)  # 1.0 and a signalling NaN
        with pytest.raises(ValueError, match="^scores must be nonnegative$"):
            ScoreVector(layer=0, scores=scores)

    def test_matrix_rejected(self):
        with pytest.raises(ValueError, match="vector"):
            ScoreVector(layer=0, scores=np.zeros((2, 2)))

    def test_owns_a_copy_of_the_callers_array(self):
        a = np.array([3.0, 1.0, 2.0])
        sv = ScoreVector(layer=0, scores=a)
        assert sv.scores is not a and a.flags.writeable
        a[0] = 9.0
        assert sv.scores.tolist() == [3.0, 1.0, 2.0]
        assert not sv.scores.flags.writeable

    def test_a_write_through_the_base_of_a_view_cannot_reach_it(self):
        b = np.array([3.0, 1.0, 2.0, 5.0])
        sv = ScoreVector(layer=0, scores=b[:3])
        curve = retention_curve(sv).tobytes()
        b[0] = -7.0
        assert sv.scores.tolist() == [3.0, 1.0, 2.0]
        assert allocate([sv], Constraint.budget(1)).sizes == (1,)
        assert retention_curve(sv).tobytes() == curve

