#!/usr/bin/env python3
"""End-to-end pipeline on the toy transformer.

A cache-free mini prefill collects per-layer attention, keeping the
observation-window rows that scoring reads, the allocator turns it into
per-layer cache sizes, and the eviction simulator applies them. The full
prefill exists to show two things: its window rows equal the mini pass's (so
the plan transfers), and its K/V footprint is what eviction then shrinks.
"""

import numpy as np

from kvalloc import (
    Constraint,
    ProcSettings,
    ToyModelConfig,
    allocate,
    full_prefill,
    mini_prefill,
    process_trace,
    simulate_task,
    uniform_allocation,
)

config = ToyModelConfig(layers=4, heads=2, model_dim=24, proj_dim=8, seq_len=96, seed=11)
settings = ProcSettings(ows=8, pool_size=7)

mini = mini_prefill(config, rows=settings.ows)
full = full_prefill(config, rows=settings.ows)
gap = np.abs(mini.weights - full.weights).max()
print(f"mini vs full window attention rows: max |diff| = {gap:.2e}")
print(f"live K/V bytes during mini prefill: {mini.kv_bytes}")
print(f"live K/V bytes during full prefill: {full.kv_bytes}\n")

scores = process_trace(mini, settings)
budget = int(0.3 * config.layers * (config.seq_len - settings.ows))
allocation = allocate(scores, Constraint.budget(budget))
print(f"budget {budget} tokens -> per-layer sizes {list(allocation.sizes)}")

report = simulate_task(full, allocation, settings)
uniform = uniform_allocation(budget, config.layers, config.seq_len - settings.ows)
uniform_report = simulate_task(full, uniform, settings)

# A report is data: what it counted, and the ratios and mean derived from that.
print(f"\n{'':13}{'ratio':>8}{'reduction':>11}{'r_avg':>8}{'bytes kept':>20}")
for name, each in (("personalized", report), ("uniform", uniform_report)):
    kept = f"{each.bytes_after} of {each.bytes_before}"
    print(f"{name:13}{each.compression_ratio:8.1%}{each.memory_reduction:11.1%}{each.r_avg:8.4f}{kept:>20}")
print(f"({report.window_policy})")

print(f"\nsame total, retention {report.r_avg:.4f} vs {uniform_report.r_avg:.4f}.")
print("A randomly initialized model has little cross-layer skew, so the two")
print("are close here; on structured traces the gap is real (demos 01 and 05).")
