#!/usr/bin/env python3
"""The greedy allocator, step by step, checked against the exact oracle.

On a tiny instance we can watch the mechanism: two lists, one holding the
current per-layer sizes, the other each layer's next-best marginal gain
(the next step of its retention curve). Every iteration grants one cache
slot to the layer with the largest gain. ``allocate`` reaches the same sizes
without the loop, as one water level over all layers' steps. The exact
oracle, a dynamic program that holds the best retention sum for every total
after each layer, confirms the result is optimal.
"""

import numpy as np

from kvalloc import (
    Constraint,
    allocate,
    allocation_r_avg,
    oracle_allocate,
    retention_curve,
)

scores = [
    np.array([0.50, 0.30, 0.20]),   # layer 0: fairly concentrated
    np.array([0.90, 0.05, 0.05]),   # layer 1: one dominant token
    np.array([0.25, 0.25, 0.25]),   # layer 2: flat
]
budget = 4

print("hand-run of the greedy loop:")
sizes = [0, 0, 0]
for step in range(budget):
    gains = [np.diff(retention_curve(w))[n] for w, n in zip(scores, sizes)]
    pick = int(np.argmax(gains))
    sizes[pick] += 1
    shown = ", ".join(f"L{i}:{g:.3f}" for i, g in enumerate(gains))
    print(f"  step {step + 1}: gains [{shown}] -> layer {pick}, sizes {sizes}")

result = allocate(scores, Constraint.budget(budget))
print(f"\nallocate(budget={budget})        -> {list(result.sizes)}"
      f"  r_avg {allocation_r_avg(scores, result):.4f}")
assert tuple(sizes) == result.sizes

brute = oracle_allocate(scores, Constraint.budget(budget))
print(f"oracle_allocate(budget={budget}) -> {list(brute.sizes)}"
      f"  r_avg {allocation_r_avg(scores, brute):.4f}")

print("\ntarget mode: smallest total reaching an average retention")
for target in (0.5, 0.8, 0.95, 1.0):
    got = allocate(scores, Constraint.target(target))
    ref = oracle_allocate(scores, Constraint.target(target))
    print(f"  target {target:4}: greedy total {got.total} {list(got.sizes)}, "
          f"oracle total {ref.total}")

print("\nbudget sweep: achieved r_avg only ever goes up")
values = [allocation_r_avg(scores, allocate(scores, Constraint.budget(n))) for n in range(10)]
print("  " + " ".join(f"{v:.3f}" for v in values))
