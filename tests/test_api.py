"""Public API snapshot: any name added to or dropped from ``kvalloc`` shows up here."""

import pytest

import kvalloc

PUBLIC_NAMES = [
    "AllocationList",
    "AllocationProfile",
    "AttentionTrace",
    "Constraint",
    "EvictionReport",
    "PrefillResult",
    "ProcSettings",
    "RetentionPoint",
    "ScoreVector",
    "SyntheticSpec",
    "ToyModelConfig",
    "TraceFormatError",
    "TraceHeader",
    "allocate",
    "allocation_r_avg",
    "build_profile",
    "evict_layer",
    "full_prefill",
    "generate_trace",
    "load_profile",
    "load_trace",
    "mini_prefill",
    "oracle_allocate",
    "process_trace",
    "profile_similarity",
    "r_avg",
    "retention",
    "retention_curve",
    "save_profile",
    "save_trace",
    "simulate_task",
    "uniform_allocation",
]


def test_all_is_the_snapshot():
    assert sorted(kvalloc.__all__) == PUBLIC_NAMES
    assert len(kvalloc.__all__) == len(set(kvalloc.__all__)) == 32


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_name_imports(name):
    namespace = {}
    exec(f"from kvalloc import {name}", namespace)
    assert namespace[name] is getattr(kvalloc, name)


@pytest.mark.parametrize(
    "make",
    [
        lambda: kvalloc.generate_trace(kvalloc.SyntheticSpec(1, 1, 4)),
        lambda: kvalloc.ScoreVector(0, [1.0, 2.0]),
        lambda: kvalloc.full_prefill(kvalloc.ToyModelConfig(layers=1, seq_len=4)),
    ],
    ids=["AttentionTrace", "ScoreVector", "PrefillResult"],
)
def test_array_holders_compare_and_hash_by_identity(make):
    # Their fields are arrays, whose == is elementwise: a field-wise == or hash would raise.
    a, b = make(), make()
    assert a == a and a != b
    assert hash(a) == hash(a) and isinstance(hash(b), int)
    assert a in [b, a] and a not in [b]
