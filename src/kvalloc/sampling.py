"""Allocation reuse across tasks of one type.

Running the scoring pass and the allocator for every task costs time. Tasks
of the same type tend to want similar per-layer cache sizes, so the caller
can process a small sample of tasks fully (the paper samples 10%), average
their allocation lists into a profile, and reuse the average for the rest.

Averaging preserves totals exactly: per-layer means are rounded with a
largest-remainder correction so that the output total equals the rounded
mean of the sample totals. All arithmetic is integer-exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .allocator import AllocationList
from .trace import json_object

# Share of a task stream a caller samples to build a profile (the paper's 10%).
DEFAULT_SAMPLE_RATIO = 0.10


def _layer_count(samples: Sequence[AllocationList]) -> int:
    """The layer count every sample shares; raises ValueError if they disagree."""
    lengths = {len(s) for s in samples}
    if len(lengths) != 1:
        raise ValueError(f"samples disagree on layer count: {sorted(lengths)}")
    return lengths.pop()


def average_allocations(samples: Sequence[AllocationList]) -> AllocationList:
    """Per-layer mean allocation, total-preserving.

    Each layer gets the floor of its mean size; the remaining slots (up to
    the rounded mean total, half rounding up) go to the layers with the
    largest fractional remainders, lower layer index first on ties.
    """
    if not len(samples):
        raise ValueError("need at least one allocation sample")
    count = len(samples)
    layer_sums = [sum(s.sizes[i] for s in samples) for i in range(_layer_count(samples))]
    # round-half-up of (sum of totals) / count, kept in integers
    grand_total = sum(layer_sums)
    target_total = (2 * grand_total + count) // (2 * count)
    floors = [s // count for s in layer_sums]
    remainders = [s % count for s in layer_sums]
    deficit = target_total - sum(floors)
    order = sorted(range(len(floors)), key=lambda i: (-remainders[i], i))
    sizes = list(floors)
    for i in order[:deficit]:
        sizes[i] += 1
    return AllocationList(sizes=tuple(sizes))


def profile_similarity(samples: Sequence[AllocationList]) -> float:
    """Mean pairwise Pearson correlation of per-layer size vectors.

    Quantifies how consistent the cross-layer allocation trend is across
    sampled tasks; requires at least two samples and non-constant vectors.
    """
    if len(samples) < 2:
        raise ValueError("need at least two samples to measure similarity")
    _layer_count(samples)
    vectors = [np.asarray(s.sizes, dtype=np.float64) for s in samples]
    for idx, v in enumerate(vectors):
        if np.ptp(v) == 0:
            raise ValueError(f"sample {idx} is constant across layers; correlation undefined")
    correlations = []
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            correlations.append(float(np.corrcoef(vectors[i], vectors[j])[0, 1]))
    return float(np.mean(correlations))


@dataclass(frozen=True)
class AllocationProfile:
    """Recorded allocations for one task type; ``averaged``, their reusable average, is computed from them."""

    task_type: str
    samples: tuple[AllocationList, ...]
    averaged: AllocationList = field(init=False)

    def __post_init__(self) -> None:
        if not isinstance(self.task_type, str):
            raise ValueError(f"task_type must be a string, got {self.task_type!r}")
        if not self.samples:
            raise ValueError("profile needs at least one sample")
        object.__setattr__(self, "averaged", average_allocations(self.samples))

    def to_json(self) -> str:
        payload = {
            "task_type": self.task_type,
            "samples": [list(s.sizes) for s in self.samples],
            "averaged": list(self.averaged.sizes),
        }
        return json.dumps(payload, separators=(",", ":"))


def build_profile(task_type: str, samples: Sequence[AllocationList]) -> AllocationProfile:
    """Assemble a profile, computing the averaged list from the samples."""
    return AllocationProfile(task_type=task_type, samples=tuple(samples))


def save_profile(profile: AllocationProfile, path: str | Path) -> None:
    Path(path).write_text(profile.to_json() + "\n", encoding="utf-8")


def load_profile(path: str | Path) -> AllocationProfile:
    """Read a profile file, whose ``averaged`` must be its samples' average; other keys are ignored."""
    obj = json_object(Path(path).read_bytes(), "profile file", ("task_type", "samples", "averaged"))
    if not isinstance(obj["samples"], list):
        raise ValueError("profile samples must be a list of allocations")
    samples = tuple(AllocationList(sizes=s) for s in obj["samples"])
    averaged = AllocationList(sizes=obj["averaged"])
    profile = AllocationProfile(task_type=obj["task_type"], samples=samples)
    if averaged != profile.averaged:
        raise ValueError(
            f"profile averaged {list(averaged.sizes)} is not its samples' average {list(profile.averaged.sizes)}"
        )
    return profile
