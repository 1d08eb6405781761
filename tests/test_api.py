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
