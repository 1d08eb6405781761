"""Retention metrics: hand values, invariants, and dual-path checks.

The compression ratio is derived by each eviction report from the bytes it
counts; its cases here build reports.
"""

import re
from functools import cached_property

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kvalloc.metrics import (
    RetentionPoint,
    min_size_table_csv,
    r_avg,
    retention,
    retention_curve,
    retention_table,
    topk_indices,
)
from kvalloc import allocator, attnproc
from kvalloc.allocator import AllocationList
from kvalloc.attnproc import ProcSettings, ScoreVector
from kvalloc.eviction import simulate_task
from kvalloc.trace import SyntheticSpec, generate_trace


def min_size(w, target) -> int:
    """``n_min`` of one score list at one target, read from ``min_size_table_csv``."""
    table = min_size_table_csv([ScoreVector(layer=0, scores=np.asarray(w, dtype=np.float64))], [target])
    return int(table.splitlines()[1].rsplit(",", 1)[1])


def argsort_curve(w) -> np.ndarray:
    """The retention curve through the stable index sort: the reference for the value sort."""
    scores = np.ascontiguousarray(w, dtype=np.float64)
    ordered = scores[np.argsort(-scores, kind="stable")]
    cum = np.cumsum(ordered)
    if cum[-1] == 0:
        return np.ones(scores.size + 1)
    return np.concatenate([[0.0], cum / cum[-1]])


def point_list(vectors, sizes) -> list[RetentionPoint]:
    """``retention_table`` as it was once built: a list with one ``RetentionPoint`` object per point."""
    points = []
    for sv in vectors:
        curve = retention_curve(sv)
        points.extend(RetentionPoint(layer=sv.layer, n=int(n), r=float(curve[n])) for n in sizes)
    return points


# Scores that tie, vanish or underflow: zeros of both signs, subnormals and the smallest normal.
EDGE_SCORES = st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 0.25, 0.5, 1.0])
SCORES = st.one_of(EDGE_SCORES, st.floats(min_value=0.0, max_value=1e6, allow_subnormal=True))


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
        assert min_size([0.0, 0.0], 1.0) == 0

    def test_empty_vector_has_no_curve(self):
        with pytest.raises(ValueError, match="^empty score vector$"):
            retention_curve([])

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

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.lists(SCORES, min_size=1, max_size=64),
            st.lists(st.sampled_from([0.0, -0.0]), min_size=1, max_size=8),
        )
    )
    @example([0.0])
    @example([-0.0])
    @example([7.5])
    @example([0.0, -0.0, 0.0])
    @example([-0.0, 0.5, 0.0, 0.5, 5e-324])
    @example([5e-324, 5e-324, 1e-310])
    def test_value_sort_has_the_bits_of_the_stable_index_sort(self, values):
        assert retention_curve(values).tobytes() == argsort_curve(values).tobytes()
        assert ScoreVector(layer=0, scores=values).curve.tobytes() == argsort_curve(values).tobytes()


class TestTopK:
    def test_ties_break_toward_lower_index(self):
        assert topk_indices([0.5, 0.5, 0.3], 2).tolist() == [0, 1]
        assert topk_indices([0.2, 0.2, 0.2], 3).tolist() == [0, 1, 2]

    def test_selects_largest(self):
        assert topk_indices([0.1, 0.9, 0.5], 2).tolist() == [1, 2]

    def test_bounds(self):
        with pytest.raises(ValueError):
            topk_indices([0.1], 2)


SCORES_4 = ScoreVector(layer=0, scores=np.array([0.4, 0.3, 0.2, 0.1]))
# Cache sizes are AllocationList's: integers or numpy integers, never bools, at least 0.
BAD_SIZES = [1.5, 2.0, True, False, -1, "2", None, np.float64(1.0), np.bool_(True)]


class TestSizeArguments:
    @pytest.mark.parametrize("n", BAD_SIZES, ids=repr)
    def test_retention_rejects(self, n):
        with pytest.raises(ValueError, match=f"got {re.escape(repr(n))}"):
            retention(SCORES_4, n)

    @pytest.mark.parametrize("n", BAD_SIZES, ids=repr)
    def test_topk_indices_rejects(self, n):
        with pytest.raises(ValueError, match=f"got {re.escape(repr(n))}"):
            topk_indices(SCORES_4, n)

    @pytest.mark.parametrize("n", BAD_SIZES, ids=repr)
    def test_retention_table_rejects(self, n):
        with pytest.raises(ValueError, match=f"got {re.escape(repr(n))}"):
            retention_table([SCORES_4], [0, n])

    # A report's compression ratio is derived from its sizes and window size, which are refused where they are built.
    @pytest.mark.parametrize("n", BAD_SIZES, ids=repr)
    def test_compression_ratio_rejects(self, n):
        with pytest.raises(ValueError, match=f"^sizes\\[1\\] must be .*, got {re.escape(repr(n))}$"):
            AllocationList(sizes=[2, n])
        with pytest.raises(ValueError, match=f"^ows must be .*, got {re.escape(repr(n))}$"):
            ProcSettings(ows=n)

    @pytest.mark.parametrize("target", [True, False, np.bool_(True), "0.5", None, float("nan"), -0.1, 1.5], ids=repr)
    def test_min_size_targets_rejected(self, target):
        with pytest.raises(ValueError, match=f"got {re.escape(repr(target))}"):
            min_size_table_csv([SCORES_4], [0.5, target])
        with pytest.raises(ValueError, match=f"got {re.escape(repr(target))}"):
            min_size_table_csv([SCORES_4], [target])

    def test_numpy_integers_are_sizes(self):
        n = np.int64(2)
        assert retention(SCORES_4, n) == retention(SCORES_4, 2)
        assert topk_indices(SCORES_4, np.uint8(2)).tolist() == [0, 1]
        assert list(retention_table([SCORES_4], [n])) == [RetentionPoint(layer=0, n=2, r=retention(SCORES_4, 2))]


class TestRAvg:
    def test_mean(self):
        assert r_avg([0.5, 0.9]) == pytest.approx(0.7, abs=1e-15)

    def test_constant(self):
        assert r_avg([0.42] * 7) == pytest.approx(0.42, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            r_avg([])

    def test_adds_left_to_right(self):
        # A compensated sum (Python 3.12's sum() of floats) gives 1 + 2e-16 before the division.
        assert r_avg([1.0, 1e-16, 1e-16]) == 1.0 / 3


class TestMinCacheSize:
    def test_binary_search_matches_linear_scan(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            w = rng.uniform(0.0, 1.0, size=rng.integers(1, 50)) + 1e-12
            curve = retention_curve(w)
            for target in np.linspace(0.1, 1.0, 10):
                linear = next(n for n in range(curve.size) if curve[n] >= target)
                assert min_size(w, float(target)) == linear

    def test_target_zero_needs_nothing(self):
        assert min_size([0.5, 0.5], 0.0) == 0

    def test_target_one_needs_all_positive_scores(self):
        assert min_size([0.5, 0.3, 0.2], 1.0) == 3
        assert min_size([0.5, 0.5, 0.0], 1.0) == 2

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError):
            min_size([0.5], 1.5)


def report(sizes, seq_len: int, ows=2):
    trace = generate_trace(SyntheticSpec(layers=len(sizes), heads=1, seq_len=seq_len, seed=4))
    return simulate_task(trace, AllocationList(sizes=sizes), ProcSettings(ows=ows, pool_size=1))


class TestCompressionRatio:
    def test_formula(self):
        assert report((4, 6), seq_len=10).compression_ratio == 14 / 20

    def test_full_capacity_is_one(self):
        assert report((8, 8), seq_len=10).compression_ratio == 1.0

    def test_empty_rejected(self):
        trace = generate_trace(SyntheticSpec(layers=1, heads=1, seq_len=10))
        with pytest.raises(ValueError, match="^allocation has 0 layers, scores have 1$"):
            simulate_task(trace, AllocationList(sizes=()), ProcSettings(ows=2, pool_size=1))

    def test_numpy_integer_lengths_accepted(self):
        # Bytes are counted in Python ints: a uint8 n_i + ows neither wraps nor overflows.
        uint8 = report((np.uint8(250),), seq_len=300, ows=np.uint8(10))
        assert uint8.bytes_after == 260 * 2 * 64 * 4
        assert uint8.compression_ratio == 260 / 300
        assert report((np.int64(4), 6), seq_len=10, ows=np.int64(2)) == report((4, 6), seq_len=10)

    # What the ratio is derived from is refused where it is built: the trace, the window, the allocation's fit.
    @pytest.mark.parametrize(
        "sizes,seq_len,ows,message",
        [
            ([4], 0, 2, "seq_len must be >= 2, got 0"),
            ([4], True, 2, "seq_len must be an integer, got True"),
            ([4], 10.0, 2, "seq_len must be an integer, got 10.0"),
            ([4], 10, -20, "ows must be >= 1, got -20"),
            ([4], 10, 0, "ows must be >= 1, got 0"),
            ([4], 10, np.True_, "ows must be an integer, got np.True_"),
            ([40], 10, 2, "layer 0: n_i must be in [0, 8], got 40"),
            ([8, 9], 10, 2, "layer 1: n_i must be in [0, 8], got 9"),
        ],
    )
    def test_seq_len_and_ows_rejected_by_value(self, sizes, seq_len, ows, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            report(sizes, seq_len=seq_len, ows=ows)


class TestTables:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(1, 12), max_size=5),
        st.lists(st.integers(0, 12), max_size=6),
        st.integers(0, 2**32 - 1),
    )
    def test_table_is_the_point_list(self, lengths, sizes, seed):
        rng = np.random.default_rng(seed)
        vectors = [
            ScoreVector(layer=3 * i + 1, scores=rng.integers(0, 3, size=max(length, max(sizes, default=0))) / 2.0)
            for i, length in enumerate(lengths)
        ]
        table = retention_table(vectors, sizes)
        expected = point_list(vectors, sizes)
        assert len(table) == len(expected)
        assert list(table) == expected
        assert [table[i] for i in range(-len(expected), 0)] == expected
        for cut in (slice(None), slice(1, None, 2), slice(None, None, -1), slice(-3, 99), slice(5, 2)):
            assert table[cut] == expected[cut]
        for bad in (len(expected), -len(expected) - 1):
            with pytest.raises(IndexError):
                table[bad]
        with pytest.raises(TypeError):
            table[1.0]

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


class TestOneCurvePerVector:
    def test_every_consumer_reads_the_vectors_one_curve(self, monkeypatch):
        built = []

        def counting(sv):
            built.append(sv.scores)
            return real(sv)

        real = ScoreVector.curve.func
        curve = cached_property(counting)
        curve.__set_name__(ScoreVector, "curve")
        monkeypatch.setattr(ScoreVector, "curve", curve)
        settings = ProcSettings(ows=2, pool_size=3)
        trace = generate_trace(SyntheticSpec(layers=4, heads=2, seq_len=24, seed=3))
        vectors = attnproc.process_trace(trace, settings)
        sizes = [0, 1, 5, 22]
        for _ in range(2):
            for constraint in (allocator.Constraint.budget(30), allocator.Constraint.target(0.8)):
                allocation = allocator.allocate(vectors, constraint)
                allocator.oracle_allocate(vectors, constraint)
                allocator.allocation_r_avg(vectors, allocation)
            for sv in vectors:
                retention(sv, 3)
                assert retention_curve(sv) is sv.curve
            retention_table(vectors, sizes)
            min_size_table_csv(vectors, [0.5, 0.9])
        assert [id(s) for s in built] == [id(sv.scores) for sv in vectors]
        # simulate_task scores the trace into vectors of its own; each is sorted once too.
        simulate_task(trace, allocation, settings)
        assert len(built) == 2 * len(vectors) and len({id(s) for s in built}) == len(built)

    def test_the_curve_is_read_only(self):
        sv = ScoreVector(layer=0, scores=np.array([0.7, 0.2, 0.1]))
        with pytest.raises(ValueError, match="read-only"):
            sv.curve[0] = 1.0
        assert not retention_curve([0.7, 0.2, 0.1]).flags.writeable


class TestRawArraysAreVectors:
    """A raw array is checked into a ``ScoreVector`` on the way in, so both give the same bits."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.lists(st.floats(0.0, 1e3), min_size=1, max_size=10), min_size=1, max_size=4),
        st.data(),
        st.floats(min_value=0.01, max_value=1.0),
    )
    def test_every_consumer_gives_the_same_bits(self, layers, data, target):
        raw = [np.asarray(w) for w in layers]
        vectors = [ScoreVector(layer=i, scores=w) for i, w in enumerate(layers)]
        for w, sv in zip(raw, vectors):
            assert retention_curve(w).tobytes() == retention_curve(sv).tobytes()
            n = data.draw(st.integers(0, len(w)))
            assert topk_indices(w, n).tobytes() == topk_indices(sv, n).tobytes()
        budget = allocator.Constraint.budget(data.draw(st.integers(0, sum(map(len, raw)))))
        for constraint in (budget, allocator.Constraint.target(target)):
            for solve in (allocator.allocate, allocator.oracle_allocate):
                allocation = solve(raw, constraint)
                assert allocation == solve(vectors, constraint)
                r_raw = allocator.allocation_r_avg(raw, allocation)
                assert r_raw.hex() == allocator.allocation_r_avg(vectors, allocation).hex()
