"""Greedy per-layer cache-size allocation with an exhaustive verification oracle.

Given one score vector per layer, the greedy gives each cache slot to the
layer whose best unselected token has the largest normalized score. Each
layer's scores are sorted, so that is one water level over all layers: every
token above it is kept. Two constraint modes exist: spend exactly a total
budget of ``N`` slots (maximizing the average retention), or reach a target
average retention with as few slots as possible.

``oracle_allocate`` solves the same problems by enumerating every integer
composition; the test suite holds the greedy to it.
"""

from __future__ import annotations

import itertools
import json
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import metrics
from .attnproc import ScoreVector

ORACLE_MAX_COMBINATIONS = 10**6


@dataclass(frozen=True)
class AllocationList:
    """Per-layer cache sizes ``n_1 .. n_l`` in tokens: nonnegative ints, never bools."""

    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        sizes = self.sizes
        if not isinstance(sizes, (list, tuple, np.ndarray)) or not all(
            isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= 0 for n in sizes
        ):
            raise ValueError(f"cache sizes must be a sequence of integers >= 0, got {sizes!r}")
        object.__setattr__(self, "sizes", tuple(int(n) for n in sizes))

    def __len__(self) -> int:
        return len(self.sizes)

    @property
    def total(self) -> int:
        return sum(self.sizes)

    def to_json(self) -> str:
        return json.dumps({"sizes": list(self.sizes)}, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "AllocationList":
        obj = json.loads(text)
        if not isinstance(obj, dict) or "sizes" not in obj:
            raise ValueError('allocation JSON must be an object with a "sizes" key')
        return cls(sizes=obj["sizes"])


@dataclass(frozen=True)
class Constraint:
    """Either a total-size budget (an integer) or a target average retention (a real), never a bool."""

    mode: str
    value: int | float

    def __post_init__(self) -> None:
        value = self.value
        if self.mode == "budget":
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < 0:
                raise ValueError(f"budget must be a nonnegative integer, got {value!r}")
            object.__setattr__(self, "value", int(value))
        elif self.mode == "target":
            if not isinstance(value, numbers.Real) or isinstance(value, bool) or not 0.0 < value <= 1.0:
                raise ValueError(f"target average retention must be in (0, 1], got {value!r}")
            object.__setattr__(self, "value", float(value))
        else:
            raise ValueError(f"unknown constraint mode {self.mode!r}")

    @classmethod
    def budget(cls, total_size: int) -> "Constraint":
        return cls(mode="budget", value=total_size)

    @classmethod
    def target(cls, target_r_avg: float) -> "Constraint":
        return cls(mode="target", value=target_r_avg)


def _granted(
    curves: list[np.ndarray], level: float, start: Sequence[int], stop: Sequence[int]
) -> tuple[list[int], list[int]]:
    """Per layer, the slots whose step is above ``level``, and at or above it.

    A layer's step ``j`` is ``curve[j + 1] - curve[j]``. A layer grants its
    slots in rank order, so its count ends at its first step at or below the
    level even where ``cum / total`` steps back up by an ulp after it: the
    level is compared with the running minimum of the steps. Layer ``i`` is
    searched only in ``[start[i], stop[i]]``, where both counts are known to
    lie; a last step of -1, below every level, ends the layer.
    """
    above, at_least = [], []
    for curve, a, b in zip(curves, start, stop):
        steps = np.append(np.diff(curve[a : b + 1]), -1.0)
        above.append(a + int(np.argmax(steps <= level)))
        at_least.append(a + int(np.argmax(steps < level)))
    return above, at_least


def _water_level(
    curves: list[np.ndarray], enough: Callable[[list[int]], bool]
) -> tuple[list[int], list[int]]:
    """``_granted`` at the highest level whose at-or-above counts are ``enough``.

    Between a level where ``enough`` holds (level 0 grants everything) and one
    where it fails, each layer's counts lie in a window. A round tries the
    weighted median of the windows' middle running-minimum steps, so it drops
    at least a quarter of the steps left, until no window is left.
    """
    low = _granted(curves, 0.0, [0] * len(curves), [c.size - 1 for c in curves])
    high = [0] * len(curves)
    while True:
        middles = sorted(
            (float(np.diff(c[a : (a + b) // 2 + 2]).min()), b - a)
            for c, a, b in zip(curves, high, low[0])
            if b > a
        )
        if not middles:
            return low
        left = sum(w for _, w in middles) // 2
        for level, w in middles:
            left -= w
            if left < 0:
                break
        counts = _granted(curves, level, high, low[0])
        if enough(counts[1]):
            low = counts
        else:
            high = counts[1]


def _hand_out(above: list[int], at_least: list[int], k: int) -> list[int]:
    """Sizes after ``k`` slots: every step above the level, then ties in layer order."""
    sizes, left = [], k - sum(above)
    for n, m in zip(above, at_least):
        sizes.append(n + min(m - n, left))
        left -= sizes[-1] - n
    return sizes


def allocation_r_avg(
    scores: Sequence[ScoreVector | np.ndarray], allocation: AllocationList
) -> float:
    """Average retention achieved by an allocation on the given scores."""
    curves = [metrics.retention_curve(w) for w in scores]
    if len(allocation) != len(curves):
        raise ValueError(f"allocation has {len(allocation)} layers, scores have {len(curves)}")
    return metrics.r_avg(float(curves[i][n]) for i, n in enumerate(allocation.sizes))


def allocate(
    scores: Sequence[ScoreVector | np.ndarray], constraint: Constraint
) -> AllocationList:
    """Greedy allocation under a budget or retention target, as one water level.

    The greedy grants slots in (-step, layer, rank) order, so after ``k``
    slots every step above the ``k``-th largest is granted, plus the steps
    equal to it in layer order. It stops at the first ``k`` that is enough:
    ``N`` slots, or an average retention (by ``metrics.r_avg``) reaching the
    target. Per-layer normalization makes the outcome invariant to rescaling
    any layer's scores.
    """
    curves = [metrics.retention_curve(w) for w in scores]
    if not curves:
        raise ValueError("need at least one layer of scores")
    if constraint.mode == "budget":
        total_size = int(constraint.value)
        capacity = sum(c.size - 1 for c in curves)
        if total_size > capacity:
            raise ValueError(f"budget {total_size} exceeds capacity {capacity}")

        def enough(sizes: list[int]) -> bool:
            return sum(sizes) >= total_size

    else:
        target = float(constraint.value)

        def enough(sizes: list[int]) -> bool:
            return metrics.r_avg(float(c[n]) for c, n in zip(curves, sizes)) >= target

    above, at_least = _water_level(curves, enough)
    # Enough never turns false as slots are granted; the first k lies among the ties.
    lo, hi = sum(above), sum(at_least)
    while lo < hi:
        mid = (lo + hi) // 2
        if enough(_hand_out(above, at_least, mid)):
            hi = mid
        else:
            lo = mid + 1
    return AllocationList(sizes=tuple(_hand_out(above, at_least, lo)))


def oracle_allocate(
    scores: Sequence[ScoreVector | np.ndarray], constraint: Constraint
) -> AllocationList:
    """Brute-force reference: enumerate every composition, pick the optimum.

    Budget mode maximizes the average retention among compositions summing
    exactly to ``N``; target mode minimizes the total among compositions
    reaching the target. Ties resolve to the lexicographically smallest
    composition. Guarded against search spaces above ``10**6`` combinations.
    """
    curves = [metrics.retention_curve(w) for w in scores]
    caps = [c.size - 1 for c in curves]
    space = 1
    for cap in caps:
        space *= cap + 1
        if space > ORACLE_MAX_COMBINATIONS:
            raise ValueError(
                f"search space exceeds {ORACLE_MAX_COMBINATIONS} combinations; "
                "use the greedy allocator"
            )
    ranges = [range(cap + 1) for cap in caps]

    if constraint.mode == "budget":
        total_size = int(constraint.value)
        if total_size > sum(caps):
            raise ValueError(f"budget {total_size} exceeds capacity {sum(caps)}")
        best_sizes, best_r = None, -1.0
        for combo in itertools.product(*ranges):
            if sum(combo) != total_size:
                continue
            r = metrics.r_avg(float(curves[i][n]) for i, n in enumerate(combo))
            if r > best_r:
                best_sizes, best_r = combo, r
        assert best_sizes is not None
        return AllocationList(sizes=best_sizes)

    target = float(constraint.value)
    best_sizes, best_total = None, sum(caps) + 1
    for combo in itertools.product(*ranges):
        total = sum(combo)
        if total >= best_total:
            continue
        r = metrics.r_avg(float(curves[i][n]) for i, n in enumerate(combo))
        if r >= target:
            best_sizes, best_total = combo, total
    assert best_sizes is not None
    return AllocationList(sizes=best_sizes)


def uniform_allocation(
    total_size: int, num_layers: int, capacity_per_layer: int
) -> AllocationList:
    """Spread a total budget as evenly as possible; the remainder goes to the earliest layers.

    With ``total_size <= num_layers * capacity_per_layer`` no layer gets
    more than its capacity.
    """
    if num_layers < 1:
        raise ValueError("need at least one layer")
    if not 0 <= total_size <= num_layers * capacity_per_layer:
        raise ValueError(
            f"total {total_size} outside [0, {num_layers * capacity_per_layer}]"
        )
    base, extra = divmod(total_size, num_layers)
    return AllocationList(sizes=tuple(base + (1 if i < extra else 0) for i in range(num_layers)))
