"""Memory bounds of the trace data path, as multiples of the trace payload.

tracemalloc sees numpy's buffers, so a peak here counts every array a call
allocates. Scoring and eviction read only the observation-window rows, so
they stay far below one payload; loading holds exactly one payload-sized
array; saving writes the trace's own buffer. Generation holds the payload
plus one head's float64 temporaries, and building the trace checks it one
block at a time without a second payload.
"""

import tracemalloc

import pytest

from kvalloc.allocator import AllocationList
from kvalloc.attnproc import ProcSettings, process_trace
from kvalloc.eviction import simulate_task
from kvalloc.trace import SyntheticSpec, generate_trace, load_trace, save_trace

SPEC = SyntheticSpec(layers=4, heads=2, seq_len=256, sparsity=0.1, seed=3, layer_skew=1.0)
SETTINGS = ProcSettings(ows=8, pool_size=7)
PAYLOAD = SPEC.layers * SPEC.heads * SPEC.seq_len * SPEC.seq_len * 4


@pytest.fixture(scope="module")
def trace():
    return generate_trace(SPEC)


def peak_over_payload(fn, *args):
    """Peak bytes traced while ``fn`` runs, over the payload size."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    del result
    return peak / PAYLOAD


def test_generation_checks_without_copying_the_payload():
    assert peak_over_payload(generate_trace, SPEC) < 2.5


def test_save_writes_without_copying_the_payload(trace, tmp_path):
    assert peak_over_payload(save_trace, trace, tmp_path / "t.bin") < 0.25


def test_load_holds_one_payload(trace, tmp_path):
    path = tmp_path / "t.bin"
    save_trace(trace, path)
    assert peak_over_payload(load_trace, path) < 1.25


def test_scoring_reads_only_window_rows(trace):
    assert peak_over_payload(process_trace, trace, SETTINGS) < 0.1


def test_simulation_reads_only_window_rows(trace):
    allocation = AllocationList(sizes=(10, 40, 90, 160))
    assert peak_over_payload(simulate_task, trace, allocation, SETTINGS) < 0.1
