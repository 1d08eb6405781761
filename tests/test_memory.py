"""Memory bounds of the trace data path and the toy prefill.

tracemalloc sees numpy's buffers, so a peak here counts every array a call
allocates. Trace bounds are multiples of the trace payload. Scoring and
eviction read only the observation-window rows, so they stay far below one
payload; loading holds one payload-sized array and one (t, t) float32 buffer;
saving writes the trace's own buffer. Generation holds the payload plus one
float64 band of rows, and building the trace checks it one block at a time
without a second payload. The streaming paths hold no payload at all:
``read_window`` holds one (t, t) float32 guard block, one chunk buffer and the
window rows, and ``write_synthetic`` the block, the chunk buffer and one
float64 band of rows. They are measured at 16 x 2 blocks, so a whole-payload
copy would read as 1.0.

tracemalloc counts the (t, t) guard block at its full size, but the streaming
paths never touch it: rows go through a separate ``CHUNK_BYTES`` buffer, and
untouched pages are never resident. numpy asks for huge pages on arrays of
4 MiB or more, so a row touched in the block itself would cost a 2 MiB page.
So the CLI's peak resident size is measured too, on a 1 x 1 x 4096 trace, a
64 MiB matrix: ``gen`` must stay within 3 MiB of a process that imports
``kvalloc.cli`` and draws from numpy's generator, as ``gen`` must, and
``allocate`` within 3 MiB of one that only imports ``kvalloc.cli``. ``scores``
of a piped trace followed by 64 MiB it does not promise, whose tail is counted
through the chunk buffer, must stay within 16 MiB of the latter.

A prefill keeps only the last rows of each head's attention. It computes
every head's logits and softmax 128 rows at a time, in place in one float32
band buffer, so beyond its kept rows a prefill holds that band buffer,
per-layer activations, the K/V cache and a few row vectors: not a t x t
temporary per step, nor a square per (layer, head). One bound is a multiple
of the whole (layers, heads, t, t) float32 array a prefill would hold; the
other doubles the layers of a default prefill, which may add only their K/V
and kept rows, 4 bytes a weight as a trace stores them, where a square per
(layer, head) would add 1 MiB. The prefill still allocates one (t, t) square
first, as a guard that the shape fits, and never touches it, as
``read_window`` does its block: ``simulate --toy`` at 1 x 1 x 4096, where the
square is 64 MiB, must peak within 8 MiB of a process that imports
``kvalloc.cli`` and draws from numpy's generator.

A retention table keeps its ratios in one float64 array and builds each
``RetentionPoint`` when it is read, so what it returns is bounded per point
(8 bytes of ratio plus a share of the layer and size lists). One object per
point costs about 90 bytes, and a caller that keeps tables, as the benchmark
keeps every operation's outcome, would grow by that much per point.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from kvalloc.allocator import AllocationList
from kvalloc.attnproc import DEFAULT_OWS, ProcSettings, ScoreVector, process_trace
from kvalloc.eviction import simulate_task
from kvalloc.metrics import retention_table
from kvalloc.toymodel import ToyModelConfig, default_input, full_prefill, mini_prefill
from kvalloc.trace import (
    SyntheticSpec, generate_trace, load_trace, read_window, save_trace, write_synthetic,
)

SPEC = SyntheticSpec(layers=4, heads=2, seq_len=256, sparsity=0.1, seed=3, layer_skew=1.0)
SETTINGS = ProcSettings(ows=8, pool_size=7)
PAYLOAD = SPEC.layers * SPEC.heads * SPEC.seq_len * SPEC.seq_len * 4
TOY = ToyModelConfig(layers=2, heads=2, model_dim=16, proj_dim=8, seq_len=256)
ATTENTION = TOY.layers * TOY.heads * TOY.seq_len * TOY.seq_len * 4
STREAM = SyntheticSpec(layers=16, heads=2, seq_len=256, sparsity=0.1, seed=3, layer_skew=1.0)
STREAM_PAYLOAD = STREAM.layers * STREAM.heads * STREAM.seq_len * STREAM.seq_len * 4


@pytest.fixture(scope="module")
def trace():
    return generate_trace(SPEC)


def peak_bytes(fn, *args):
    """Peak bytes traced while ``fn`` runs."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    del result
    return peak


# A child's ru_maxrss starts at the peak resident size of the process that
# spawned it, so each command runs under this small launcher, which reports
# the command's exit code and peak resident KiB (Linux units).
LAUNCHER = """\
import os, sys
pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""
SRC = str(Path(__file__).resolve().parent.parent / "src")


def launch(*argv: str, stdin=None) -> tuple[int, int, str]:
    """The command's exit code, peak resident KiB and stderr; ``stdin`` is passed to it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", LAUNCHER, *argv],
        env=env, stdin=stdin, capture_output=True, text=True, timeout=120, check=True,
    )
    code, kib = map(int, result.stdout.splitlines()[-1].split())
    return code, kib, result.stderr


def peak_rss_kib(*argv: str) -> int:
    code, kib, stderr = launch(*argv)
    assert code == 0, stderr
    return kib


def peak_over_payload(fn, *args):
    return peak_bytes(fn, *args) / PAYLOAD


def test_generation_checks_without_copying_the_payload():
    assert peak_over_payload(generate_trace, SPEC) < 2.0


def test_save_writes_without_copying_the_payload(trace, tmp_path):
    assert peak_over_payload(save_trace, trace, tmp_path / "t.bin") < 0.25


def test_load_holds_one_payload(trace, tmp_path):
    path = tmp_path / "t.bin"
    save_trace(trace, path)
    assert peak_over_payload(load_trace, path) < 1.25


def test_window_reader_holds_one_block(tmp_path):
    path = tmp_path / "t.bin"
    write_synthetic(STREAM, path)
    assert peak_bytes(read_window, path, SETTINGS.ows) / STREAM_PAYLOAD < 0.15


def test_synthetic_writer_holds_one_block(tmp_path):
    assert peak_bytes(write_synthetic, STREAM, tmp_path / "t.bin") / STREAM_PAYLOAD < 0.3


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
def test_cli_touches_one_chunk_of_a_large_matrix(tmp_path):
    path = str(tmp_path / "t.bin")
    baseline = peak_rss_kib("-c", "import kvalloc.cli")
    generator = peak_rss_kib("-c", "import kvalloc.cli, numpy; numpy.random.default_rng(0)")
    gen = peak_rss_kib("-m", "kvalloc.cli", "gen", "--layers", "1", "--seq-len", "4096", "-o", path)
    allocate = peak_rss_kib("-m", "kvalloc.cli", "allocate", path, "--budget", "100")
    assert gen < generator + 3 * 1024, (generator, gen)
    assert allocate < baseline + 3 * 1024, (baseline, allocate)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
def test_a_long_toy_prefill_touches_no_square():
    # At 4096 tokens a (t, t) float32 square is 64 MiB; the prefill's band buffer is 2 MiB.
    generator = peak_rss_kib("-c", "import kvalloc.cli, numpy; numpy.random.default_rng(0)")
    toy = peak_rss_kib(
        "-m", "kvalloc.cli", "simulate", "--toy", "--layers", "1", "--heads", "1", "--seq-len", "4096",
        "--auto", "--budget", "10",
    )
    assert toy < generator + 8 * 1024, (generator, toy)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
def test_an_over_long_pipe_is_counted_not_held(tmp_path):
    # A valid trace followed by 64 MiB it does not promise, piped: the tail is
    # counted through the reader's chunk buffer, not read into one bytes object.
    path, payload = tmp_path / "t.bin", 64 * 64 * 4
    write_synthetic(SyntheticSpec(layers=1, heads=1, seq_len=64), path)
    with open(path, "ab") as fh:
        fh.truncate(path.stat().st_size + (64 << 20))
    baseline = peak_rss_kib("-c", "import kvalloc.cli")
    with subprocess.Popen(["cat", str(path)], stdout=subprocess.PIPE) as cat:
        code, kib, stderr = launch("-m", "kvalloc.cli", "scores", "/dev/stdin", stdin=cat.stdout)
        cat.stdout.close()
    assert code == 2
    expected = f"payload length {payload + (64 << 20)} bytes does not match header (expected {payload})"
    assert stderr == f"error: {expected}\n"
    assert kib < baseline + 16 * 1024, (baseline, kib)


def test_scoring_reads_only_window_rows(trace):
    assert peak_over_payload(process_trace, trace, SETTINGS) < 0.1


def test_simulation_reads_only_window_rows(trace):
    allocation = AllocationList(sizes=(10, 40, 90, 160))
    assert peak_over_payload(simulate_task, trace, allocation, SETTINGS) < 0.1


@pytest.mark.parametrize("prefill", [full_prefill, mini_prefill])
def test_prefill_holds_little_beyond_its_attention(prefill):
    # The input is the caller's; drawing it here also warms numpy's generator.
    x = default_input(TOY)
    assert peak_bytes(prefill, TOY, x) / ATTENTION <= 1.5


@pytest.mark.parametrize("prefill", [full_prefill, mini_prefill])
def test_prefill_peak_does_not_grow_with_its_squares(prefill):
    deep = ToyModelConfig(**{**vars(TOY), "layers": 2 * TOY.layers})
    x = default_input(TOY)
    peaks = []
    for config in (TOY, deep):
        prefill(config, x)  # draws and caches the weight set, which also grows with the layers
        peaks.append(min(peak_bytes(prefill, config, x) for _ in range(5)))
    kv_per_token = 2 * TOY.proj_dim * 4 if prefill is full_prefill else 0
    added = TOY.layers * TOY.heads * TOY.seq_len * (DEFAULT_OWS * 4 + kv_per_token)
    assert peaks[1] - peaks[0] <= added + 64 * 1024, (peaks, added)


@pytest.mark.parametrize("prefill", [full_prefill, mini_prefill])
def test_prefill_peak_grows_by_one_band_per_head(prefill):
    # At 1024 tokens a head's 128-row band is 512 KiB and its (t, t) square 4 MiB. Each added head may
    # cost its band, its kept rows, its K/V (one layer's for a mini pass) and a few (t, p) vectors.
    t, p, layers = 1024, 8, 2
    configs = [ToyModelConfig(layers=layers, heads=heads, model_dim=16, proj_dim=p, seq_len=t) for heads in (4, 8)]
    peaks = []
    for config in configs:
        x = default_input(config)
        prefill(config, x)  # draws and caches the weight set
        peaks.append(min(peak_bytes(prefill, config, x) for _ in range(3)))
    kv_layers = layers if prefill is full_prefill else 1
    per_head = 128 * t * 4 + layers * DEFAULT_OWS * t * 4 + kv_layers * 2 * t * p * 4 + 8 * t * p * 4
    assert (peaks[1] - peaks[0]) / 4 <= per_head, (peaks, per_head)


def test_retention_table_holds_one_array():
    rng = np.random.default_rng(5)
    vectors = [ScoreVector(layer=i, scores=rng.lognormal(size=1024)) for i in range(64)]
    sizes = [2**k for k in range(11)] + [3, 100, 500, 1000]
    for v in vectors:  # each vector keeps its curve; only the table is measured
        v.curve
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        table = retention_table(vectors, sizes)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(table) == 64 * 15
    assert held / len(table) <= 16


def test_a_vector_builds_its_curve_once_and_holds_its_bytes():
    sv = ScoreVector(layer=0, scores=np.random.default_rng(6).lognormal(size=4096))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        curve = sv.curve
        held = tracemalloc.get_traced_memory()[0] - base
        again = sv.curve
        held_again = tracemalloc.get_traced_memory()[0] - base - held
    finally:
        tracemalloc.stop()
    assert again is curve and held_again < 1024
    assert curve.nbytes == 8 * (len(sv) + 1)
    assert curve.nbytes <= held <= curve.nbytes + 1024
