"""Greedy allocation against hand enumeration and the exact oracle."""

import itertools
import json
import re
import signal
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvalloc.allocator import (
    AllocationList,
    Constraint,
    allocate,
    allocation_r_avg,
    oracle_allocate,
    uniform_allocation,
)
from kvalloc.attnproc import ScoreVector
from kvalloc.metrics import r_avg, retention, retention_curve

W1 = [0.5, 0.3, 0.2]
W2 = [0.9, 0.05, 0.05]


def seeded_scores(rng: np.random.Generator, layers: int, length: int) -> list[np.ndarray]:
    return [rng.uniform(0.01, 1.0, size=length) for _ in range(layers)]


def token_at_a_time(scores, constraint: Constraint) -> tuple[int, ...]:
    """Reference greedy: grant one slot at a time to the layer with the
    largest next step, lowest layer first on ties."""
    curves = [retention_curve(w) for w in scores]
    steps = [np.append(np.diff(c), -np.inf) for c in curves]
    sizes = [0] * len(curves)
    while (
        sum(sizes) < constraint.value
        if constraint.mode == "budget"
        else r_avg(float(c[n]) for c, n in zip(curves, sizes)) < constraint.value
    ):
        sizes[int(np.argmax([s[n] for s, n in zip(steps, sizes)]))] += 1
    return tuple(sizes)


def tied_layer(rng: np.random.Generator, length: int) -> np.ndarray:
    """Scores with many exact ties: small integers, or one repeated value."""
    scale = float(rng.choice([1e-3, 1.0, 7.0]))
    if rng.random() < 0.5:
        w = rng.integers(0, 4, size=length).astype(np.float64)
        w[rng.integers(length)] += 1.0
        return w * scale
    return np.full(length, float(rng.choice([0.1, 1 / 3, 0.7]))) * scale


def tied_instances() -> list[list[np.ndarray]]:
    rng = np.random.default_rng(61)
    return [
        [tied_layer(rng, int(rng.integers(1, 13))) for _ in range(int(rng.integers(1, 5)))]
        for _ in range(150)
    ]


class TestConstraint:
    def test_budget_mode(self):
        c = Constraint.budget(5)
        assert c.mode == "budget" and c.value == 5

    def test_target_mode(self):
        c = Constraint.target(0.9)
        assert c.mode == "target" and c.value == 0.9

    def test_target_one_allowed(self):
        Constraint.target(1.0)

    @pytest.mark.parametrize("bad", [1.0001, 0.0, -0.5, 2.0])
    def test_bad_target_rejected(self, bad):
        with pytest.raises(ValueError):
            Constraint.target(bad)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            Constraint.budget(-1)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            Constraint(mode="both", value=1)


class TestBudgetMode:
    def test_two_layer_hand_example(self):
        alloc = allocate([W1, W2], Constraint.budget(2))
        assert alloc.sizes == (1, 1)
        assert allocation_r_avg([W1, W2], alloc) == pytest.approx(0.7, abs=1e-12)
        # the three compositions of 2 evaluate to 0.475, 0.7, 0.4
        by_hand = {
            (0, 2): r_avg([retention(W1, 0), retention(W2, 2)]),
            (1, 1): r_avg([retention(W1, 1), retention(W2, 1)]),
            (2, 0): r_avg([retention(W1, 2), retention(W2, 0)]),
        }
        assert by_hand[(0, 2)] == pytest.approx(0.475, abs=1e-12)
        assert by_hand[(1, 1)] == pytest.approx(0.7, abs=1e-12)
        assert by_hand[(2, 0)] == pytest.approx(0.4, abs=1e-12)
        assert max(by_hand, key=by_hand.get) == (1, 1)

    def test_zero_budget_allocates_nothing(self):
        alloc = allocate([W1, W2], Constraint.budget(0))
        assert alloc.sizes == (0, 0)

    def test_budget_conservation(self):
        rng = np.random.default_rng(31)
        scores = seeded_scores(rng, 4, 9)
        for n in range(0, 37, 3):
            assert allocate(scores, Constraint.budget(n)).total == n

    def test_budget_above_capacity_rejected(self):
        with pytest.raises(ValueError, match=r"^budget must be in \[0, 6\], got 7$"):
            allocate([W1, W2], Constraint.budget(7))

    def test_full_budget_fills_everything(self):
        alloc = allocate([W1, W2], Constraint.budget(6))
        assert alloc.sizes == (3, 3)

    def test_monotone_r_avg_in_budget(self):
        rng = np.random.default_rng(37)
        scores = seeded_scores(rng, 3, 8)
        values = [
            allocation_r_avg(scores, allocate(scores, Constraint.budget(n)))
            for n in range(25)
        ]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    def test_tie_breaks_toward_lower_layer(self):
        scores = [[0.5, 0.5], [0.5, 0.5]]
        assert allocate(scores, Constraint.budget(1)).sizes == (1, 0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(41)
        scores = seeded_scores(rng, 3, 7)
        base = allocate(scores, Constraint.budget(10))
        for c in (1e-6, 7.0, 1e6):
            scaled = [scores[0] * c, scores[1], scores[2]]
            assert allocate(scaled, Constraint.budget(10)).sizes == base.sizes

    def test_exchange_property(self):
        rng = np.random.default_rng(43)
        scores = seeded_scores(rng, 3, 6)
        alloc = allocate(scores, Constraint.budget(9))
        best = allocation_r_avg(scores, alloc)
        for i in range(3):
            for j in range(3):
                if i == j or alloc.sizes[i] == 0 or alloc.sizes[j] >= 6:
                    continue
                moved = list(alloc.sizes)
                moved[i] -= 1
                moved[j] += 1
                assert allocation_r_avg(scores, AllocationList(tuple(moved))) <= best + 1e-12


class TestTargetMode:
    def test_two_layer_hand_example(self):
        alloc = allocate([W1, W2], Constraint.target(0.7))
        assert alloc.sizes == (1, 1)
        assert alloc.total == 2

    def test_no_total_one_allocation_reaches_070(self):
        best_total_one = max(
            r_avg([retention(W1, 1), retention(W2, 0)]),
            r_avg([retention(W1, 0), retention(W2, 1)]),
        )
        assert best_total_one < 0.7

    def test_target_one_needs_every_positive_token(self):
        alloc = allocate([W1, W2], Constraint.target(1.0))
        assert alloc.sizes == (3, 3)

    def test_small_target_stops_early(self):
        alloc = allocate([W1, W2], Constraint.target(0.4))
        assert alloc.sizes == (0, 1)
        assert allocation_r_avg([W1, W2], alloc) >= 0.4

    def test_stops_at_first_satisfying_iteration(self):
        # the greedy total is minimal, so removing any single token from the
        # result must fall below the target again
        rng = np.random.default_rng(47)
        scores = seeded_scores(rng, 3, 8)
        for target in (0.3, 0.55, 0.8):
            alloc = allocate(scores, Constraint.target(target))
            assert allocation_r_avg(scores, alloc) >= target
            for i in range(3):
                if alloc.sizes[i] == 0:
                    continue
                fewer = list(alloc.sizes)
                fewer[i] -= 1
                assert allocation_r_avg(scores, AllocationList(tuple(fewer))) < target

    def test_minimal_total_matches_oracle(self):
        rng = np.random.default_rng(53)
        scores = seeded_scores(rng, 3, 5)
        for target in np.linspace(0.1, 1.0, 10):
            greedy = allocate(scores, Constraint.target(float(target)))
            reference = oracle_allocate(scores, Constraint.target(float(target)))
            assert greedy.total == reference.total


class TestMatchesTokenAtATimeLoop:
    """``allocate`` returns the reference loop's exact sizes, ties included."""

    def test_instances_include_rising_steps(self):
        # cum / total steps up by an ulp on some of these layers; without the
        # running minimum the water level would reorder such a layer's slots
        rising = [
            w for layers in tied_instances() for w in layers
            if np.any(np.diff(np.diff(retention_curve(w))) > 0)
        ]
        assert len(rising) >= 20

    def test_budget_mode_identical_sizes(self):
        for scores in tied_instances():
            capacity = sum(len(w) for w in scores)
            for n in range(capacity + 1):
                c = Constraint.budget(n)
                assert allocate(scores, c).sizes == token_at_a_time(scores, c), (scores, n)

    def test_target_mode_identical_sizes(self):
        targets = [0.05, 0.2, 1 / 3, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 1.0]
        for scores in tied_instances():
            for r in targets:
                c = Constraint.target(r)
                assert allocate(scores, c).sizes == token_at_a_time(scores, c), (scores, r)

    def test_many_layers_identical_sizes(self):
        # near-uniform layers of distinct lengths put each layer's steps in
        # its own band; tied layers add exact ties across layers
        rng = np.random.default_rng(71)
        for _ in range(8):
            scores = [
                1.0 + 1e-3 * rng.random(int(rng.integers(1, 40)))
                if rng.random() < 0.5
                else tied_layer(rng, int(rng.integers(1, 40)))
                for _ in range(int(rng.integers(8, 25)))
            ]
            capacity = sum(len(w) for w in scores)
            for c in (
                *(Constraint.budget(int(f * capacity)) for f in (0.1, 0.5, 0.9)),
                *(Constraint.target(r) for r in (0.3, 0.8, 0.99)),
            ):
                assert allocate(scores, c).sizes == token_at_a_time(scores, c)

    def test_zero_layers_identical_sizes(self):
        rng = np.random.default_rng(73)
        for scores in tied_instances()[:60]:
            scores = list(scores)
            scores.insert(int(rng.integers(len(scores) + 1)), np.zeros(int(rng.integers(1, 6))))
            capacity = sum(len(w) for w in scores)
            for c in (
                *(Constraint.budget(n) for n in range(capacity + 1)),
                *(Constraint.target(r) for r in (0.2, 0.6, 0.9, 1.0)),
            ):
                assert allocate(scores, c).sizes == token_at_a_time(scores, c), (scores, c)

    def test_uniform_scores_identical_sizes(self):
        rng = np.random.default_rng(67)
        for _ in range(20):
            scores = seeded_scores(rng, int(rng.integers(1, 6)), int(rng.integers(1, 30)))
            for c in (Constraint.budget(int(rng.integers(0, 5))), Constraint.target(0.75)):
                assert allocate(scores, c).sizes == token_at_a_time(scores, c)


# All-zero layers included: their curves are all ones, with nothing to gain.
small_layer = st.lists(st.integers(0, 3), min_size=1, max_size=4) | st.lists(
    st.just(0), min_size=1, max_size=4
)


class TestOracleProperty:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(small_layer, min_size=1, max_size=3), st.sampled_from([1e-3, 1.0, 1 / 3]))
    def test_budget_mode_reaches_oracle_r_avg(self, layers, scale):
        scores = [np.asarray(w, dtype=np.float64) * scale for w in layers]
        for n in range(sum(len(w) for w in layers) + 1):
            c = Constraint.budget(n)
            assert allocation_r_avg(scores, allocate(scores, c)) == pytest.approx(
                allocation_r_avg(scores, oracle_allocate(scores, c)), abs=1e-9
            )

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(small_layer, min_size=1, max_size=3),
        st.floats(min_value=0.01, max_value=1.0),
    )
    def test_target_mode_matches_oracle_total(self, layers, target):
        scores = [np.asarray(w, dtype=np.float64) for w in layers]
        c = Constraint.target(target)
        assert allocate(scores, c).total == oracle_allocate(scores, c).total


def every_composition(scores, constraint) -> float | int:
    """By ``itertools.product``: the best ``r_avg`` at a total of N, or the least total reaching the target."""
    curves = [retention_curve(w) for w in scores]
    found = [
        (sum(sizes), r_avg(float(c[n]) for c, n in zip(curves, sizes)))
        for sizes in itertools.product(*(range(c.size) for c in curves))
    ]
    if constraint.mode == "budget":
        return max(r for total, r in found if total == constraint.value)
    return min(total for total, r in found if r >= constraint.value)


class TestOracleAgainstEveryComposition:
    """The dynamic program is exact: its sums are the enumeration's own, to the bit."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(small_layer, min_size=1, max_size=3), st.floats(min_value=0.01, max_value=1.0))
    def test_budget_r_avg_and_target_total(self, layers, target):
        # integer scores make ties across layers and compositions
        scores = [np.asarray(w, dtype=np.float64) for w in layers]
        for n in range(sum(len(w) for w in layers) + 1):
            c = Constraint.budget(n)
            alloc = oracle_allocate(scores, c)
            assert alloc.total == n
            assert allocation_r_avg(scores, alloc) == every_composition(scores, c)
        c = Constraint.target(target)
        alloc = oracle_allocate(scores, c)
        assert alloc.total == every_composition(scores, c)
        assert allocation_r_avg(scores, alloc) == every_composition(scores, Constraint.budget(alloc.total))


class TestOracleAtLargerShapes:
    """Past the sizes an enumeration reaches, greedy and oracle still agree."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.lists(st.integers(0, 50), min_size=20, max_size=80), min_size=5, max_size=8),
        st.data(),
        st.floats(min_value=0.01, max_value=1.0),
    )
    def test_greedy_matches_oracle(self, layers, data, target):
        scores = [np.asarray(w, dtype=np.float64) for w in layers]
        c = Constraint.budget(data.draw(st.integers(0, sum(len(w) for w in layers))))
        assert allocation_r_avg(scores, allocate(scores, c)) == pytest.approx(
            allocation_r_avg(scores, oracle_allocate(scores, c)), abs=1e-9
        )
        c = Constraint.target(target)
        assert allocate(scores, c).total == oracle_allocate(scores, c).total


class TestOracle:
    def test_two_layer_hand_example(self):
        assert oracle_allocate([W1, W2], Constraint.budget(2)).sizes == (1, 1)

    def test_single_layer_budget(self):
        for n in range(4):
            assert oracle_allocate([W1], Constraint.budget(n)).sizes == (min(n, 3),)

    def test_equal_scores_lexicographic_representative(self):
        scores = [[0.25, 0.25], [0.25, 0.25]]
        alloc = oracle_allocate(scores, Constraint.budget(2))
        assert alloc.sizes == (0, 2)
        assert allocation_r_avg(scores, alloc) == pytest.approx(
            allocation_r_avg(scores, allocate(scores, Constraint.budget(2))), abs=1e-15
        )

    def test_reaches_past_enumeration_size(self):
        # 201**4 compositions: more than an enumeration of them could visit
        scores = [np.full(200, 1.0)] * 4
        c = Constraint.budget(10)
        assert allocation_r_avg(scores, oracle_allocate(scores, c)) == allocation_r_avg(scores, allocate(scores, c))

    def test_empty_scores_rejected(self):
        with pytest.raises(ValueError, match="^need at least one layer of scores$"):
            oracle_allocate([], Constraint.budget(0))

    def test_matches_greedy_on_small_grid(self):
        rng = np.random.default_rng(59)
        for layers in (1, 2, 3):
            for length in (2, 4):
                scores = seeded_scores(rng, layers, length)
                for n in range(layers * length + 1):
                    greedy = allocate(scores, Constraint.budget(n))
                    reference = oracle_allocate(scores, Constraint.budget(n))
                    assert allocation_r_avg(scores, greedy) == pytest.approx(
                        allocation_r_avg(scores, reference), abs=1e-9
                    )


class TestAllocationList:
    def test_json_read(self):
        assert AllocationList.from_json('{"sizes":[3,0,5]}') == AllocationList(sizes=(3, 0, 5))

    def test_negative_sizes_rejected(self):
        with pytest.raises(ValueError):
            AllocationList(sizes=(1, -1))

    def test_bad_json_rejected(self):
        with pytest.raises(ValueError):
            AllocationList.from_json(json.dumps([1, 2]))

    def test_numpy_integers_accepted(self):
        alloc = AllocationList(sizes=(np.int64(3), np.int32(0), 5))
        assert alloc.sizes == (3, 0, 5)
        assert all(type(n) is int for n in alloc.sizes)
        assert AllocationList(sizes=np.array([4, 1])).sizes == (4, 1)

    @pytest.mark.parametrize(
        "bad", [1.9, 2.0, True, False, "3", None, np.float64(2.0), np.bool_(True)], ids=repr
    )
    def test_non_integer_sizes_rejected(self, bad):
        with pytest.raises(ValueError, match=f"^sizes\\[1\\] must be an integer, got {re.escape(repr(bad))}$"):
            AllocationList(sizes=(1, bad))

    @pytest.mark.parametrize(
        "text", ['{"sizes":[1.9,2]}', '{"sizes":[1,true]}', '{"sizes":["3"]}', '{"sizes":3}']
    )
    def test_non_integer_json_rejected(self, text):
        with pytest.raises(ValueError):
            AllocationList.from_json(text)

    def test_nesting_past_the_recursion_limit_rejected(self):
        depth = 100_000
        with pytest.raises(ValueError, match="^malformed allocation JSON: maximum recursion depth exceeded"):
            AllocationList.from_json('{"sizes":' + "[" * depth + "]" * depth + "}")


class TestUniformAllocation:
    def test_even_spread(self):
        assert uniform_allocation(9, 3, 10).sizes == (3, 3, 3)

    def test_remainder_to_early_layers(self):
        assert uniform_allocation(10, 3, 10).sizes == (4, 3, 3)

    def test_capacity_redistribution(self):
        assert uniform_allocation(10, 3, 4).sizes == (4, 3, 3)
        assert uniform_allocation(11, 3, 4).sizes == (4, 4, 3)

    def test_total_preserved(self):
        for total in range(13):
            assert uniform_allocation(total, 4, 3).total == total

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            uniform_allocation(13, 4, 3)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((True, 1, 5), "total_size must be an integer, got True"),
            ((2.0, 1, 5), "total_size must be an integer, got 2.0"),
            ((-1, 1, 5), "total_size must be in [0, 5], got -1"),
            ((2, 2.0, 5), "num_layers must be an integer, got 2.0"),
            ((2, np.True_, 5), "num_layers must be an integer, got np.True_"),
            ((0, 0, 5), "num_layers must be >= 1, got 0"),
            ((2, 1, 2.5), "capacity_per_layer must be an integer, got 2.5"),
            ((2, 1, False), "capacity_per_layer must be an integer, got False"),
            ((2, 1, "5"), "capacity_per_layer must be an integer, got '5'"),
            ((13, 4, 3), "total_size must be in [0, 12], got 13"),
        ],
    )
    def test_non_integer_arguments_refused_by_name(self, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            uniform_allocation(*args)

    def test_numpy_integer_arguments_accepted(self):
        assert uniform_allocation(np.int64(10), np.uint8(3), np.int32(4)).sizes == (4, 3, 3)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 14), st.data())
    def test_even_within_capacity(self, layers, cap, data):
        total = data.draw(st.integers(0, layers * cap))
        sizes = uniform_allocation(total, layers, cap).sizes
        assert len(sizes) == layers and sum(sizes) == total
        assert max(sizes) <= cap and max(sizes) - min(sizes) <= 1


@contextmanager
def time_limit(seconds: int):
    """Fail a call that does not return in time instead of hanging the run."""

    def expire(signum, frame):
        raise TimeoutError(f"call did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


BAD_SCORES = {
    "nan": [1.0, float("nan"), 2.0],
    "inf": [1.0, float("inf"), 2.0],
    "-inf": [1.0, float("-inf"), 2.0],
    "overflowing-sum": [1e308, 1e308, 1.0],
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", BAD_SCORES.values(), ids=BAD_SCORES.keys())
class TestNonFiniteScores:
    def test_score_vector_rejects(self, bad):
        with pytest.raises(ValueError, match="nonnegative|finite sum"):
            ScoreVector(layer=0, scores=np.array(bad))

    def test_retention_curve_rejects(self, bad):
        with pytest.raises(ValueError, match="nonnegative|finite sum"):
            retention_curve(np.array(bad))

    @pytest.mark.parametrize("constraint", [Constraint.budget(1), Constraint.target(0.5)], ids=["budget", "target"])
    @pytest.mark.parametrize("allocator", [allocate, oracle_allocate])
    def test_allocators_reject(self, bad, allocator, constraint):
        with time_limit(10), pytest.raises(ValueError, match="nonnegative|finite sum"):
            allocator([np.array(bad), np.array([3.0, 1.0, 1.0])], constraint)


class TestValidation:
    def test_empty_scores_rejected(self):
        with pytest.raises(ValueError):
            allocate([], Constraint.budget(0))

    def test_empty_layer_rejected(self):
        with pytest.raises(ValueError, match="^empty score vector$"):
            allocate([np.array([])], Constraint.budget(0))

    def test_zero_sum_layer_gets_no_slots(self):
        # An all-zero layer keeps everything at size 0, and no slot gains anything there.
        zero = [0.0, 0.0]
        assert allocate([zero, W1], Constraint.budget(1)).sizes == (0, 1)
        assert allocate([zero, W1], Constraint.budget(3)).sizes == (0, 3)
        assert allocation_r_avg([zero, W1], AllocationList(sizes=(0, 1))) == pytest.approx(0.75)
        assert allocate([W1, zero], Constraint.target(0.85)).sizes == (2, 0)
        assert allocate([zero, zero], Constraint.target(1.0)).sizes == (0, 0)

    def test_zero_sum_layer_takes_slots_past_the_others_capacity(self):
        # Past every positive step the budget is spent on zero steps, in layer order.
        assert allocate([[0.0, 0.0], W1], Constraint.budget(4)).sizes == (1, 3)
        assert allocate([W1, [0.0, 0.0]], Constraint.budget(4)).sizes == (3, 1)

    @pytest.mark.parametrize("value", [5, np.int64(5), np.uint8(5), 0])
    def test_budget_accepts_integers(self, value):
        c = Constraint.budget(value)
        assert c.value == value and type(c.value) is int

    @pytest.mark.parametrize("value", [True, False, np.True_, 5.0, np.float64(5), "5", None, [5]])
    def test_budget_rejects_non_integers(self, value):
        with pytest.raises(ValueError, match="budget"):
            Constraint.budget(value)

    @pytest.mark.parametrize("value", [0.5, 1, np.float32(0.5), np.int64(1), Fraction(1, 2)])
    def test_target_accepts_real_numbers(self, value):
        c = Constraint.target(value)
        assert c.value == float(value) and type(c.value) is float

    @pytest.mark.parametrize("value", [True, np.True_, "0.5", None, [0.5], 0.5j, float("nan")])
    def test_target_rejects_non_reals(self, value):
        with pytest.raises(ValueError, match="target"):
            Constraint.target(value)

    def test_allocation_r_avg_length_mismatch(self):
        with pytest.raises(ValueError):
            allocation_r_avg([W1], AllocationList(sizes=(1, 1)))

    def test_allocation_r_avg_size_above_capacity(self):
        with pytest.raises(ValueError, match=r"^layer 0: n_i must be in \[0, 2\], got 5$"):
            allocation_r_avg([[1.0, 2.0]], AllocationList((5,)))
        with pytest.raises(ValueError, match=r"^layer 1: n_i must be in \[0, 3\], got 4$"):
            allocation_r_avg([W2, W1], AllocationList((3, 4)))
        assert allocation_r_avg([W2, W1], AllocationList((3, 3))) == 1.0

    @pytest.mark.parametrize("allocation", [(1,), [1], np.array([1]), None], ids=repr)
    def test_allocation_r_avg_takes_only_an_allocation_list(self, allocation):
        with pytest.raises(ValueError, match="^allocation must be an AllocationList, got "):
            allocation_r_avg([[1.0, 2.0]], allocation)
