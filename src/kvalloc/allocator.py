"""Greedy per-layer cache-size allocation with an exact verification oracle.

Given one score vector per layer, the greedy gives each cache slot to the
layer whose best unselected token has the largest normalized score. Each
layer's scores are sorted, so that is one water level over all layers: every
token above it is kept. Two constraint modes exist: spend exactly a total
budget of ``N`` slots (maximizing the average retention), or reach a target
average retention with as few slots as possible.

``oracle_allocate`` solves the same problems exactly, by dynamic programming
over layers: after each layer it holds the best retention sum for every
total, so it reaches real trace shapes without enumerating compositions. The
test suite and ``kvalloc allocate --oracle`` hold the greedy to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import metrics
from .attnproc import ScoreVector
from .trace import checked_integer, checked_real, json_object


@dataclass(frozen=True)
class AllocationList:
    """Per-layer cache sizes ``n_1 .. n_l`` in tokens: nonnegative ints, never bools."""

    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        sizes = self.sizes
        if not isinstance(sizes, (list, tuple, np.ndarray)):
            raise ValueError(f"cache sizes must be a list, tuple or array, got {sizes!r}")
        object.__setattr__(self, "sizes", tuple(checked_integer(f"sizes[{i}]", n) for i, n in enumerate(sizes)))

    def __len__(self) -> int:
        return len(self.sizes)

    @property
    def total(self) -> int:
        return sum(self.sizes)

    @classmethod
    def from_json(cls, data: bytes | str) -> "AllocationList":
        """The sizes of a ``{"sizes": [...]}`` object, as ``trace.json_object`` reads it; other keys are ignored."""
        return cls(sizes=json_object(data, "allocation JSON", ("sizes",))["sizes"])


@dataclass(frozen=True)
class Constraint:
    """Either a total-size budget (an integer) or a target average retention (a real), never a bool."""

    mode: str
    value: int | float

    def __post_init__(self) -> None:
        if self.mode == "budget":
            value = checked_integer("budget", self.value)
        elif self.mode == "target":
            value = checked_real("target average retention", self.value, 0.0, 1.0, open_least=True)
        else:
            raise ValueError(f"unknown constraint mode {self.mode!r}")
        object.__setattr__(self, "value", value)

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


def fitted_sizes(allocation: AllocationList, capacities: Sequence[int]) -> tuple[int, ...]:
    """``allocation``'s sizes; ValueError unless it is an ``AllocationList``, layer ``i``'s in ``[0, capacities[i]]``."""
    if not isinstance(allocation, AllocationList):
        raise ValueError(f"allocation must be an AllocationList, got {type(allocation).__name__}")
    if len(allocation) != len(capacities):
        raise ValueError(f"allocation has {len(allocation)} layers, scores have {len(capacities)}")
    return tuple(checked_integer(f"layer {i}: n_i", n, 0, c) for i, (n, c) in enumerate(zip(allocation.sizes, capacities)))


def allocation_r_avg(
    scores: Sequence[ScoreVector | np.ndarray], allocation: AllocationList
) -> float:
    """Average retention achieved by an allocation on the given scores."""
    curves = [metrics.retention_curve(w) for w in scores]
    sizes = fitted_sizes(allocation, [c.size - 1 for c in curves])
    return metrics.r_avg(float(curve[n]) for curve, n in zip(curves, sizes))


def _curves(scores: Sequence[ScoreVector | np.ndarray], constraint: Constraint) -> list[np.ndarray]:
    """Each layer's retention curve; ValueError if there are none, or a budget is more than their slots."""
    curves = [metrics.retention_curve(w) for w in scores]
    if not curves:
        raise ValueError("need at least one layer of scores")
    if constraint.mode == "budget":
        checked_integer("budget", constraint.value, 0, sum(c.size - 1 for c in curves))
    return curves


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
    curves = _curves(scores, constraint)
    if constraint.mode == "budget":
        total_size = constraint.value

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
    """Exact reference by dynamic programming over layers, for any number of layers and tokens.

    ``best[b]`` is the largest retention sum over the compositions of ``b``
    slots among the layers seen so far, added left to right as
    ``metrics.r_avg`` adds. Rounding ``x + c`` never reverses the order of
    two ``x``, so each layer's max-plus step keeps exactly the maximum of
    those sums. Budget mode maximizes the average retention at a total of
    exactly ``N``; target mode takes the smallest total whose best average
    reaches the target, and the best composition at that total. On a tie,
    each layer, from the last, takes the most slots. It costs
    ``O(layers * total * tokens)``.
    """
    curves = _curves(scores, constraint)
    # Budget mode never reads a total above N.
    width = (constraint.value if constraint.mode == "budget" else sum(c.size - 1 for c in curves)) + 1

    best, picks = curves[0][:width], []
    for curve in curves[1:]:
        grown = np.full(min(best.size + curve.size - 1, width), -np.inf)
        pick = np.zeros(grown.size, dtype=np.intp)
        for n, v in enumerate(curve[: grown.size]):
            sums = best[: grown.size - n] + v
            # >= on ties: the largest n reaching the maximum is kept.
            better = sums >= grown[n : n + sums.size]
            np.copyto(grown[n : n + sums.size], sums, where=better)
            np.copyto(pick[n : n + sums.size], n, where=better)
        best = grown
        picks.append(pick)

    if constraint.mode == "budget":
        b = width - 1
    else:
        b = int(np.argmax(best / len(curves) >= float(constraint.value)))
    sizes = []
    for pick in reversed(picks):
        sizes.append(int(pick[b]))
        b -= sizes[-1]
    sizes.append(b)
    return AllocationList(sizes=tuple(reversed(sizes)))


def uniform_allocation(
    total_size: int, num_layers: int, capacity_per_layer: int
) -> AllocationList:
    """Spread a total budget as evenly as possible; the remainder goes to the earliest layers.

    Each argument is a ``checked_integer``: ``num_layers`` at least 1, the
    others at least 0 and ``total_size`` at most ``num_layers *
    capacity_per_layer``, so no layer gets more than its capacity; anything
    else is refused by name.
    """
    num_layers = checked_integer("num_layers", num_layers, 1)
    capacity = checked_integer("capacity_per_layer", capacity_per_layer)
    total_size = checked_integer("total_size", total_size, 0, num_layers * capacity)
    base, extra = divmod(total_size, num_layers)
    return AllocationList(sizes=tuple(base + (1 if i < extra else 0) for i in range(num_layers)))
