"""Retention metrics: hand values, invariants, and dual-path checks."""

import math

import numpy as np
import pytest

from kvalloc.metrics import (
    RetentionPoint,
    compression_ratio,
    isr,
    isr_difference,
    min_cache_size,
    min_size_table_csv,
    r_avg,
    retention,
    retention_curve,
    retention_table,
    topk_indices,
)
from kvalloc.attnproc import ScoreVector


class TestRetention:
    def test_hand_example(self):
        assert retention([0.4, 0.3, 0.2, 0.1], 2) == pytest.approx(0.7, abs=1e-12)

    def test_full_size_is_exactly_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = rng.uniform(0.0, 1.0, size=rng.integers(1, 30)) + 1e-9
            assert retention(w, w.size) == 1.0

    def test_zero_size_is_zero(self):
        assert retention([0.3, 0.7], 0) == 0.0

    def test_accepts_score_vector(self):
        sv = ScoreVector(layer=3, scores=np.array([0.4, 0.6]))
        assert retention(sv, 1) == pytest.approx(0.6)

    def test_all_zero_retains_everything_at_every_size(self):
        # Nothing to keep: retention is 1 from n = 0 on, and no slot gains anything.
        assert retention_curve([0.0, 0.0, 0.0]).tolist() == [1.0, 1.0, 1.0, 1.0]
        assert retention([0.0, 0.0], 0) == 1.0
        assert min_cache_size([0.0, 0.0], 1.0) == 0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            retention([0.5, 0.5], 3)
        with pytest.raises(ValueError):
            retention([0.5, 0.5], -1)

    def test_monotone_in_n(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            w = rng.uniform(0.0, 1.0, size=rng.integers(2, 40))
            if w.sum() == 0:
                continue
            curve = retention_curve(w)
            assert np.all(np.diff(curve) >= 0.0)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(13)
        w = rng.uniform(0.0, 1.0, size=25)
        shuffled = rng.permutation(w)
        for n in range(w.size + 1):
            assert retention(w, n) == retention(shuffled, n)

    def test_scale_invariant(self):
        rng = np.random.default_rng(17)
        w = rng.uniform(0.1, 1.0, size=12)
        for c in (1e-6, 3.0, 1e6):
            for n in range(w.size + 1):
                assert retention(c * w, n) == pytest.approx(retention(w, n), abs=1e-12)


class TestTopK:
    def test_ties_break_toward_lower_index(self):
        assert topk_indices([0.5, 0.5, 0.3], 2).tolist() == [0, 1]
        assert topk_indices([0.2, 0.2, 0.2], 3).tolist() == [0, 1, 2]

    def test_selects_largest(self):
        assert topk_indices([0.1, 0.9, 0.5], 2).tolist() == [1, 2]

    def test_bounds(self):
        with pytest.raises(ValueError):
            topk_indices([0.1], 2)


class TestISR:
    def test_hand_example(self):
        assert isr(0.64, 16) == pytest.approx(0.16, abs=1e-12)

    def test_zero_retention(self):
        assert isr(0.0, 37) == 0.0

    def test_log2_of_two_is_one(self):
        assert isr(1.0, 2) == 1.0

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_domain(self, n):
        with pytest.raises(ValueError):
            isr(0.5, n)


class TestISRDifference:
    def test_hand_example(self):
        got = isr_difference([0.5, 0.3, 0.2], 3)
        assert got == pytest.approx(1.0 / math.log2(3) - 0.8, abs=1e-12)

    def test_uniform_closed_form(self):
        m = 10
        w = np.full(m, 1.0 / m)
        for n in range(3, m + 1):
            expected = (n / m) / math.log2(n) - ((n - 1) / m) / math.log2(n - 1)
            assert isr_difference(w, n) == pytest.approx(expected, abs=1e-12)

    def test_single_nonzero_entry(self):
        got = isr_difference([0.8, 0.0, 0.0], 3)
        assert got == pytest.approx(1.0 / math.log2(3) - 1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 1, 0])
    def test_domain(self, n):
        with pytest.raises(ValueError):
            isr_difference([0.5, 0.3, 0.2], n)


class TestRAvg:
    def test_mean(self):
        assert r_avg([0.5, 0.9]) == pytest.approx(0.7, abs=1e-15)

    def test_constant(self):
        assert r_avg([0.42] * 7) == pytest.approx(0.42, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            r_avg([])


class TestMinCacheSize:
    def test_binary_search_matches_linear_scan(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            w = rng.uniform(0.0, 1.0, size=rng.integers(1, 50)) + 1e-12
            curve = retention_curve(w)
            for target in np.linspace(0.1, 1.0, 10):
                linear = next(n for n in range(curve.size) if curve[n] >= target)
                assert min_cache_size(w, float(target)) == linear

    def test_target_zero_needs_nothing(self):
        assert min_cache_size([0.5, 0.5], 0.0) == 0

    def test_target_one_needs_all_positive_scores(self):
        assert min_cache_size([0.5, 0.3, 0.2], 1.0) == 3
        assert min_cache_size([0.5, 0.5, 0.0], 1.0) == 2

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError):
            min_cache_size([0.5], 1.5)


class TestCompressionRatio:
    def test_formula(self):
        assert compression_ratio([4, 6], seq_len=10, ows=2) == pytest.approx(14 / 20)

    def test_full_capacity_is_one(self):
        assert compression_ratio([8, 8], seq_len=10, ows=2) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compression_ratio([], seq_len=10, ows=2)


class TestTables:
    def test_retention_table_points(self):
        vectors = [
            ScoreVector(layer=0, scores=np.array([0.4, 0.3, 0.2, 0.1])),
            ScoreVector(layer=1, scores=np.array([0.7, 0.2, 0.1, 0.0])),
        ]
        points = retention_table(vectors, [0, 2, 4])
        assert points[0] == RetentionPoint(layer=0, n=0, r=0.0)
        assert points[1].r == pytest.approx(0.7, abs=1e-12)
        assert points[5].r == 1.0

    def test_min_size_table(self):
        vectors = [ScoreVector(layer=0, scores=np.array([0.7, 0.2, 0.1]))]
        csv_text = min_size_table_csv(vectors, [0.5, 1.0])
        lines = csv_text.strip().split("\n")
        assert lines[0] == "layer,r_target,n_min"
        assert lines[1] == "0,0.5,1"
        assert lines[2] == "0,1.0,3"
