"""Per-layer KV-cache budget allocation and eviction simulation toolkit.

The pipeline: attention traces (recorded or synthetic) are distilled into
per-layer token scores, a greedy allocator turns those scores into per-layer
cache sizes under a budget or retention target, and an eviction simulator
applies the allocation and accounts for the memory saved. A deterministic
toy transformer provides end-to-end runs, and allocation profiles let one
averaged allocation be reused across tasks of the same type.
"""

from .allocator import (
    AllocationList,
    Constraint,
    allocate,
    allocation_r_avg,
    oracle_allocate,
    uniform_allocation,
)
from .attnproc import ProcSettings, ScoreVector, process_trace
from .eviction import EvictionReport, evict_layer, simulate_task
from .metrics import (
    RetentionPoint,
    r_avg,
    retention,
    retention_curve,
)
from .sampling import (
    AllocationProfile,
    build_profile,
    load_profile,
    profile_similarity,
    save_profile,
)
from .toymodel import PrefillResult, ToyModelConfig, full_prefill, mini_prefill
from .trace import (
    AttentionTrace,
    SyntheticSpec,
    TraceFormatError,
    TraceHeader,
    generate_trace,
    load_trace,
    save_trace,
)

__version__ = "0.1.0"

__all__ = [
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
