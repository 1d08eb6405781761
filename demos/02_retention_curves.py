#!/usr/bin/env python3
"""Retention curves: how much importance survives a given cache size.

For each layer, retention(n) is the score mass of the top-n tokens over the
total. Two views of the same sensitivity story:

  1. fix the cache size, read off retention per layer;
  2. fix a retention target, read off the minimal cache size per layer.
"""

from kvalloc import (
    ProcSettings,
    SyntheticSpec,
    generate_trace,
    process_trace,
    retention,
)
from kvalloc.metrics import min_size_table_csv

spec = SyntheticSpec(layers=6, heads=1, seq_len=128, sparsity=0.08, seed=7, layer_skew=2.5)
settings = ProcSettings(ows=8, pool_size=7)
scores = process_trace(generate_trace(spec), settings)
capacity = spec.seq_len - settings.ows

sizes = [4, 8, 16, 32, 64, capacity]
print("retention by cache size (rows: layers)")
print("  n:   " + "".join(f"{n:>8}" for n in sizes))
for sv in scores:
    row = "".join(f"{retention(sv, n):8.3f}" for n in sizes)
    print(f"  L{sv.layer}: {row}")

print("\nminimal cache size reaching a retention target (the CSV `kvalloc curves --targets` writes)")
print(min_size_table_csv(scores, [0.5, 0.7, 0.9, 0.99]), end="")

print("\nSame budget, very different payoffs per layer: that spread is the")
print("whole case for sizing each layer's cache individually.")
