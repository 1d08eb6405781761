"""Allocation averaging, similarity, and profile persistence."""

import json
import re

import numpy as np
import pytest

from kvalloc.allocator import AllocationList, Constraint, allocate, allocation_r_avg, uniform_allocation
from kvalloc.attnproc import ProcSettings, process_trace
from kvalloc.sampling import (
    AllocationProfile,
    average_allocations,
    build_profile,
    load_profile,
    profile_similarity,
    save_profile,
)
from kvalloc.trace import SyntheticSpec, generate_trace


def alloc(*sizes: int) -> AllocationList:
    return AllocationList(sizes=sizes)


class TestAverageAllocations:
    def test_plain_means(self):
        assert average_allocations([alloc(4, 2), alloc(2, 4)]).sizes == (3, 3)

    def test_single_sample_unchanged(self):
        assert average_allocations([alloc(5, 0, 2)]).sizes == (5, 0, 2)

    def test_largest_remainder_correction(self):
        # means are [1.5, 1.0], target total round(2.5) = 3 (half up)
        assert average_allocations([alloc(3, 0), alloc(0, 2)]).sizes == (2, 1)

    def test_total_equals_rounded_mean_total(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            layers = int(rng.integers(1, 6))
            count = int(rng.integers(1, 7))
            samples = [
                alloc(*rng.integers(0, 20, size=layers).tolist()) for _ in range(count)
            ]
            averaged = average_allocations(samples)
            grand = sum(s.total for s in samples)
            # round-half-up of grand/count
            assert averaged.total == (2 * grand + count) // (2 * count)

    def test_idempotent_on_identical_samples(self):
        sample = alloc(7, 1, 4)
        assert average_allocations([sample] * 5).sizes == sample.sizes

    def test_permutation_equivariant(self):
        samples = [alloc(6, 1, 3), alloc(2, 5, 3)]
        base = average_allocations(samples).sizes
        perm = [2, 0, 1]
        permuted = [alloc(*(s.sizes[i] for i in perm)) for s in samples]
        assert average_allocations(permuted).sizes == tuple(base[i] for i in perm)

    def test_remainder_ties_prefer_lower_layer(self):
        # means [0.5, 0.5], target total round(1.0) = 1
        assert average_allocations([alloc(1, 0), alloc(0, 1)]).sizes == (1, 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_allocations([])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="layer count"):
            average_allocations([alloc(1, 2), alloc(1, 2, 3)])


class TestProfileSimilarity:
    def test_identical_samples(self):
        assert profile_similarity([alloc(1, 2, 3), alloc(1, 2, 3)]) == pytest.approx(1.0)

    def test_exact_anticorrelation(self):
        assert profile_similarity([alloc(1, 2, 3), alloc(3, 2, 1)]) == pytest.approx(-1.0, abs=1e-12)

    def test_constant_vector_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            profile_similarity([alloc(2, 2, 2), alloc(1, 2, 3)])

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            profile_similarity([alloc(1, 2)])

    def test_same_family_tasks_correlate(self):
        # empirical threshold on the generator, not a modelling claim
        settings = ProcSettings(ows=8, pool_size=7)
        lists = []
        for seed in (201, 202, 203):
            spec = SyntheticSpec(
                layers=6, heads=1, seq_len=128, sparsity=0.08, seed=seed, layer_skew=2.5
            )
            vectors = process_trace(generate_trace(spec), settings)
            lists.append(allocate(vectors, Constraint.budget(216)))
        assert profile_similarity(lists) > 0.5


class TestProfileReuse:
    def test_averaged_list_beats_uniform_on_held_out_task(self):
        settings = ProcSettings(ows=8, pool_size=7)
        family = dict(layers=6, heads=1, seq_len=128, sparsity=0.08, layer_skew=2.5)
        budget = 216
        lists = []
        for seed in (301, 302, 303, 304):
            vectors = process_trace(generate_trace(SyntheticSpec(seed=seed, **family)), settings)
            lists.append(allocate(vectors, Constraint.budget(budget)))
        averaged = average_allocations(lists)

        held_out = process_trace(generate_trace(SyntheticSpec(seed=999, **family)), settings)
        uniform = uniform_allocation(averaged.total, 6, 128 - 8)
        assert allocation_r_avg(held_out, averaged) >= allocation_r_avg(held_out, uniform)


class TestProfilePersistence:
    def test_roundtrip(self, tmp_path):
        profile = build_profile("qa", [alloc(4, 2), alloc(2, 4)])
        path = tmp_path / "profile.json"
        save_profile(profile, path)
        loaded = load_profile(path)
        assert loaded == profile
        assert loaded.averaged.sizes == (3, 3)

    def test_file_bytes_are_to_json_line(self, tmp_path):
        profile = build_profile("qa", [alloc(4, 2), alloc(2, 4)])
        path = tmp_path / "profile.json"
        save_profile(profile, path)
        assert path.read_text(encoding="utf-8") == profile.to_json() + "\n"
        assert profile.to_json() == '{"task_type":"qa","samples":[[4,2],[2,4]],"averaged":[3,3]}'

    @pytest.mark.parametrize("ratio", ["0.2", '"a"', "null"])
    def test_old_sample_ratio_key_ignored(self, tmp_path, ratio):
        path = tmp_path / "profile.json"
        path.write_text(
            '{"task_type":"qa","samples":[[4,2],[2,4]],"averaged":[3,3],"sample_ratio":%s}' % ratio,
            encoding="utf-8",
        )
        assert load_profile(path) == build_profile("qa", [alloc(4, 2), alloc(2, 4)])

    @pytest.mark.parametrize("task_type", [["x"], 3, None, True])
    def test_task_type_must_be_a_string(self, tmp_path, task_type):
        with pytest.raises(ValueError, match="task_type"):
            build_profile(task_type, [alloc(1, 2)])
        path = tmp_path / "profile.json"
        path.write_text(
            json.dumps({"task_type": task_type, "samples": [[1, 2]], "averaged": [1, 2]}),
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="task_type"):
            load_profile(path)

    @pytest.mark.parametrize(
        "text",
        [
            '{"task_type":"qa","samples":[[1.9,2]],"averaged":[1,2]}',
            '{"task_type":"qa","samples":[[1,2]],"averaged":[1,true]}',
            '{"task_type":"qa","samples":[[1,2]],"averaged":["1",2]}',
            '{"task_type":"qa","samples":5,"averaged":[1,2]}',
            '[1,2]',
        ],
    )
    def test_malformed_sizes_rejected(self, tmp_path, text):
        path = tmp_path / "profile.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError):
            load_profile(path)

    def test_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"task_type":"qa"}', encoding="utf-8")
        with pytest.raises(ValueError, match="missing keys"):
            load_profile(path)

    def test_profile_validates_layer_counts(self):
        with pytest.raises(ValueError, match=r"^samples disagree on layer count: \[2, 3\]$"):
            AllocationProfile(task_type="qa", samples=(alloc(1, 2), alloc(1, 2, 3)))

    def test_profile_needs_samples(self):
        with pytest.raises(ValueError, match="^profile needs at least one sample$"):
            AllocationProfile(task_type="qa", samples=())

    def test_averaged_is_computed_not_given(self):
        profile = AllocationProfile(task_type="qa", samples=(alloc(4, 2), alloc(2, 4)))
        assert profile.averaged == average_allocations(profile.samples) == alloc(3, 3)
        with pytest.raises(TypeError):
            AllocationProfile(task_type="qa", samples=(alloc(1),), averaged=alloc(1))

    @pytest.mark.parametrize(
        "averaged, message",
        [
            ("[1,2]", "profile averaged [1, 2] is not its samples' average [3, 3]"),
            ("[3,3,0]", "profile averaged [3, 3, 0] is not its samples' average [3, 3]"),
        ],
    )
    def test_averaged_that_is_not_the_samples_average_rejected(self, tmp_path, averaged, message):
        path = tmp_path / "profile.json"
        path.write_text('{"task_type":"qa","samples":[[4,2],[2,4]],"averaged":%s}' % averaged, encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_profile(path)
