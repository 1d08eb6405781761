"""Toy transformer: determinism, causality, and mini/full prefill agreement."""

import os
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kvalloc.attnproc import ProcSettings, process_trace
from kvalloc import toymodel
from kvalloc.eviction import evict_layer
from kvalloc.toymodel import (
    PrefillResult,
    ToyModelConfig,
    _Weights,
    default_input,
    full_prefill,
    mini_prefill,
)
from kvalloc.trace import AttentionTrace, TraceFormatError, TraceHeader, load_trace, save_trace


def per_head_forward(config: ToyModelConfig, x: np.ndarray, *, full: bool) -> PrefillResult:
    """Reference forward in float32, one head and one 128-row band at a time: each band's logits,
    masked with np.where, its exponentials, their row sums, weights and contexts are new arrays,
    copied into the attention and context arrays afterwards. The contexts are the band's
    ``exp @ v`` divided by its row sums. Every matrix is whole, and every layer but the last
    runs all its rows through the MLP, whatever rows are kept, band by band with a lone last
    row joining the band before it, as the prefill does: a whole-matrix MLP gives other bits
    at some shapes. Only the weights are shared."""

    def rms(v):
        return v / np.sqrt(np.mean(v * v, axis=-1, keepdims=True) + 1e-6)

    weights = _Weights(config)
    t, p, h = config.seq_len, config.proj_dim, config.heads
    x = np.array(x, dtype=np.float32)  # a copy: its rows are updated band by band
    attention = np.zeros((config.layers, h, t, t), dtype=np.float32)
    kv_pairs = []
    for layer_idx, lw in enumerate(weights.layers):
        xn = rms(x)
        keys, values, contexts = (np.empty((h, t, p), dtype=np.float32) for _ in range(3))
        for head in range(h):
            q = (xn @ lw["wq"][head]) / float(np.sqrt(p))
            keys[head], values[head] = xn @ lw["wk"][head], xn @ lw["wv"][head]
            for i0 in range(0, t, 128):
                i1 = min(i0 + 128, t)
                logits = np.where(np.tri(i1 - i0, i1, k=i0, dtype=bool), q[i0:i1] @ keys[head, :i1].T, -np.inf)
                e = np.exp(logits - logits.max(axis=1, keepdims=True))
                sums = e.sum(axis=1, keepdims=True)
                attention[layer_idx, head, i0:i1, :i1] = e / sums
                contexts[head, i0:i1] = (e @ values[head, :i1]) / sums
        kv_pairs.append((keys, values))
        if layer_idx == config.layers - 1:
            return PrefillResult(attention, kv_pairs=np.array(kv_pairs) if full else None)
        mixed, edges = contexts.transpose(1, 0, 2).reshape(t, h * p), [*range(0, t - 1, 128), t]
        for i0, i1 in zip(edges, edges[1:]):
            x[i0:i1] = x[i0:i1] + mixed[i0:i1] @ lw["wo"]
            x[i0:i1] = x[i0:i1] + np.tanh(rms(x[i0:i1]) @ lw["w1"]) @ lw["w2"]


class TestConfig:
    def test_dimensions_must_be_positive(self):
        with pytest.raises(ValueError, match="layers"):
            ToyModelConfig(layers=0)
        with pytest.raises(ValueError, match="proj_dim"):
            ToyModelConfig(proj_dim=0)

    @pytest.mark.parametrize("field", ["layers", "heads", "model_dim", "proj_dim", "seq_len", "seed"])
    @pytest.mark.parametrize("value", [True, 2.0, np.float64(2.0), "2"], ids=repr)
    def test_non_integer_fields_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            ToyModelConfig(**{field: value})

    # The guard is one (t, t) float32 square whatever the heads: 4 TB at a million tokens.
    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("prefill", [full_prefill, mini_prefill])
    def test_a_shape_too_large_is_refused_before_anything_is_drawn(self, prefill, heads):
        config = ToyModelConfig(layers=1, heads=heads, model_dim=4, proj_dim=2, seq_len=10**6)
        drawn = _Weights.cache_info().misses
        numpy_says = r"Unable to allocate .* \(1000000, 1000000\) and data type float32"
        with pytest.raises(ValueError, match=f"^a toy pass of {re.escape(repr(config))} cannot be allocated: {numpy_says}$"):
            prefill(config)
        assert _Weights.cache_info().misses == drawn

    def test_single_token_refused_by_name(self):
        # A one-token prefill is no trace (TraceHeader needs seq_len >= 2) and has nothing to score.
        with pytest.raises(ValueError, match="^seq_len must be >= 2, got 1$"):
            ToyModelConfig(seq_len=1)
        assert ToyModelConfig(seq_len=2).seq_len == 2

    def test_negative_seed_rejected_by_name(self):
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            ToyModelConfig(seed=-1)
        assert ToyModelConfig(seed=np.uint64(2**64 - 1)).seed == 2**64 - 1

    # The last is a float32 signalling NaN, whose cast to float64 flags an invalid operation and warns of nothing.
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, np.array(0x7F800001, np.uint32).view(np.float32)[()]])
    @pytest.mark.parametrize("prefill", [full_prefill, mini_prefill])
    def test_non_finite_input_rejected(self, prefill, bad):
        config = ToyModelConfig(layers=1, seq_len=8)
        x = default_input(config)
        x[3, 5] = bad
        with pytest.raises(ValueError, match="^toy input x must be finite$"):
            prefill(config, x)

    @pytest.mark.parametrize("value", [1e30, -1e200, 1e300, np.finfo(np.float64).max])
    @pytest.mark.parametrize("prefill", [full_prefill, mini_prefill])
    def test_input_whose_float32_squares_overflow_rejected(self, prefill, value):
        # The norm's squares would overflow to inf, and the normalized rows would be all zeros.
        config = ToyModelConfig(layers=1, model_dim=2, seq_len=4)
        limit = np.sqrt(float(np.finfo(np.float32).max) / 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            message = "^toy input x must be below " + re.escape(f"{limit:.6g} in magnitude")
            with pytest.raises(ValueError, match=message):
                prefill(config, np.full((4, 2), value))

    @pytest.mark.parametrize("model_dim", [1, 2, 64])
    def test_input_just_below_the_limit_runs_clean(self, model_dim):
        config = ToyModelConfig(layers=2, heads=2, model_dim=model_dim, proj_dim=4, seq_len=6)
        limit = np.sqrt(float(np.finfo(np.float32).max) / model_dim)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="must be below"):
                full_prefill(config, np.full((6, model_dim), -limit))
            result = full_prefill(config, np.full((6, model_dim), np.nextafter(limit, 0.0)))
        assert np.isfinite(result.kv_pairs).all() and np.isfinite(result.weights).all()


class TestFullPrefill:
    def test_bit_identical_across_runs(self):
        config = ToyModelConfig(layers=3, heads=2, model_dim=10, proj_dim=5, seq_len=12, seed=7)
        a = full_prefill(config, rows=config.seq_len)
        b = full_prefill(config, rows=config.seq_len)
        assert a.per_layer_attention.shape == (3, 2, 12, 12)
        assert a.per_layer_attention.tobytes() == b.per_layer_attention.tobytes()
        for (ka, va), (kb, vb) in zip(a.kv_pairs, b.kv_pairs):
            assert ka.tobytes() == kb.tobytes() and va.tobytes() == vb.tobytes()

    def test_attention_rows_are_causal_distributions(self):
        config = ToyModelConfig(layers=1, heads=1, model_dim=8, proj_dim=4, seq_len=2, seed=1)
        result = full_prefill(config)
        attn = result.per_layer_attention[0, 0]
        assert attn[0, 1] == 0.0
        assert abs(attn[0, 0] - 1.0) <= 1e-6
        assert abs(attn[1].sum() - 1.0) <= 1e-6
        assert (attn[1] >= 0).all()

    def test_kv_byte_counter(self):
        config = ToyModelConfig(layers=4, heads=1, model_dim=8, proj_dim=6, seq_len=10, seed=2)
        result = full_prefill(config)
        assert result.kv_bytes == 2 * 4 * 10 * 6 * 4 == result.kv_pairs.nbytes
        assert result.kv_bytes == sum(k.nbytes + v.nbytes for k, v in result.kv_pairs)

    def test_kv_shapes_and_dtype(self):
        config = ToyModelConfig(layers=2, heads=3, model_dim=8, proj_dim=4, seq_len=9, seed=5)
        result = full_prefill(config)
        # One cache array, (layers, 2, heads, seq_len, proj_dim), that unpacks per layer into keys and values.
        assert result.kv_pairs.shape == (2, 2, 3, 9, 4)
        assert result.kv_pairs.dtype == np.float32 and result.kv_pairs.flags.c_contiguous
        assert len(result.kv_pairs) == 2
        for k, v in result.kv_pairs:
            assert k.shape == (3, 9, 4) and v.shape == (3, 9, 4)
            assert k.dtype == np.float32 and v.dtype == np.float32

    def test_cache_rows_feed_evict_layer(self):
        # The benchmark's own unpacking: a layer's keys and values, then one head's rows.
        config = ToyModelConfig(layers=3, heads=2, model_dim=8, proj_dim=5, seq_len=24, seed=6)
        settings = ProcSettings(ows=4, pool_size=3)
        queries = np.random.default_rng(0).standard_normal((3, 2, 24, 5))
        for layer, (keys, values) in enumerate(full_prefill(config).kv_pairs):
            for head in range(2):
                kept_k, kept_v, idx = evict_layer(queries[layer, head], keys[head], values[head], 6, settings)
                assert idx.shape == (6 + 4,)
                assert kept_k.tobytes() == keys[head][idx].tobytes()
                assert kept_v.tobytes() == values[head][idx].tobytes()

    def test_shape_mismatch_rejected(self):
        config = ToyModelConfig(layers=1, heads=1, model_dim=8, proj_dim=4, seq_len=6, seed=0)
        with pytest.raises(ValueError, match="input shape"):
            full_prefill(config, np.zeros((5, 8)))


class TestMiniPrefill:
    def test_attention_equals_full_prefill(self):
        for seed in range(5):
            config = ToyModelConfig(
                layers=4, heads=2, model_dim=12, proj_dim=6, seq_len=20, seed=seed
            )
            full = full_prefill(config, rows=config.seq_len)
            mini = mini_prefill(config, rows=config.seq_len)
            assert full.per_layer_attention.shape == (4, 2, 20, 20)
            diff = np.abs(full.per_layer_attention - mini.per_layer_attention).max()
            assert diff <= 1e-6

    def test_carries_attention_and_nothing_else(self):
        config = ToyModelConfig(layers=2, heads=1, model_dim=8, proj_dim=4, seq_len=8, seed=9)
        mini = mini_prefill(config)
        assert mini.kv_pairs is None
        assert mini.kv_bytes == 0

    def test_layer_count(self):
        config = ToyModelConfig(layers=3, heads=1, model_dim=6, proj_dim=3, seq_len=5, seed=4)
        assert mini_prefill(config).per_layer_attention.shape[0] == 3

    def test_explicit_input_matches_default(self):
        config = ToyModelConfig(layers=2, heads=1, model_dim=8, proj_dim=4, seq_len=7, seed=11)
        implicit = mini_prefill(config)
        explicit = mini_prefill(config, default_input(config))
        assert np.array_equal(implicit.per_layer_attention, explicit.per_layer_attention)


class TestKeptRows:
    """A prefill keeps the last ``rows`` rows of each head's attention, with the whole matrix's bits."""

    def test_default_keeps_the_observation_window(self):
        config = ToyModelConfig(layers=2, heads=3, model_dim=8, proj_dim=4, seq_len=20, seed=8)
        for prefill in (full_prefill, mini_prefill):
            result = prefill(config)
            assert result.per_layer_attention.shape == (2, 3, ProcSettings().ows, 20)
            assert result.attention_trace().weights.shape == (2, 3, ProcSettings().ows, 20)

    @pytest.mark.parametrize("rows", [0, -1, True, 8.0, np.float64(8.0), "8", None], ids=repr)
    @pytest.mark.parametrize("prefill", [full_prefill, mini_prefill])
    def test_rows_must_be_an_integer_of_at_least_one(self, prefill, rows):
        rule = ">= 1" if type(rows) is int else "an integer"
        with pytest.raises(ValueError, match=f"^rows must be {rule}, got {re.escape(repr(rows))}$"):
            prefill(ToyModelConfig(), rows=rows)

    @settings(max_examples=40, deadline=None)
    @given(
        # Short sequences, and both sides of the first and the third 128-row bands' ends.
        seq_len=st.one_of(st.integers(2, 40), st.integers(126, 130), st.integers(383, 385)),
        layers=st.integers(1, 3),
        heads=st.integers(1, 4),
        proj_dim=st.integers(1, 6),
        seed=st.integers(0, 99),
    )
    @example(seq_len=256, layers=2, heads=3, proj_dim=4, seed=0)  # whole bands only
    @example(seq_len=129, layers=2, heads=2, proj_dim=3, seed=1)  # a one-row last band
    @example(seq_len=385, layers=2, heads=3, proj_dim=4, seed=2)  # the same after two whole bands
    @example(seq_len=384, layers=1, heads=1, proj_dim=2, seed=3)  # three whole bands, one head
    def test_kept_rows_are_the_last_rows_of_the_whole_matrices(self, seq_len, layers, heads, proj_dim, seed):
        # Kept rows of 127-129 put the window's first row on either side of a band's start, so the last
        # layer computes one band or two.
        config = ToyModelConfig(layers=layers, heads=heads, model_dim=8, proj_dim=proj_dim, seq_len=seq_len, seed=seed)
        x = default_input(config)
        whole = full_prefill(config, x, rows=seq_len)
        for rows in (1, ProcSettings().ows, 127, 128, 129, seq_len, seq_len + 1):
            full, mini = full_prefill(config, x, rows=rows), mini_prefill(config, x, rows=rows)
            kept = whole.per_layer_attention[:, :, seq_len - min(rows, seq_len) :]
            assert full.per_layer_attention.shape == kept.shape
            assert full.per_layer_attention.tobytes() == kept.tobytes()
            assert mini.per_layer_attention.tobytes() == kept.tobytes()
            assert full.kv_pairs.tobytes() == whole.kv_pairs.tobytes()


class TestTraceExport:
    @pytest.mark.parametrize("prefill", [full_prefill, mini_prefill])
    def test_a_prefill_scores_as_its_trace_and_its_file(self, tmp_path, prefill):
        # Sizes measured on a prefill are reused for other tasks of its type, so
        # every path must score a task to the same bits.
        settings = ProcSettings(ows=4, pool_size=3)
        for seed in range(10):
            config = ToyModelConfig(layers=3, heads=2, model_dim=10, proj_dim=5, seq_len=24, seed=seed)
            result = prefill(config, rows=config.seq_len)
            save_trace(result, tmp_path / "prefill.bin")
            sources = (result, result.attention_trace(), load_trace(tmp_path / "prefill.bin"))
            scored = [[v.scores.tobytes() for v in process_trace(source, settings)] for source in sources]
            assert scored[0] == scored[1] == scored[2], seed
            assert result.weights.dtype == np.dtype("<f4")

    @pytest.mark.parametrize("prefill", [full_prefill, mini_prefill])
    def test_prefills_are_traces_of_float32_rows(self, prefill):
        config = ToyModelConfig(layers=2, heads=3, model_dim=8, proj_dim=4, seq_len=12, seed=5)
        result = prefill(config, rows=5)
        assert isinstance(result, AttentionTrace)
        assert result.header == TraceHeader(layers=2, heads=3, seq_len=12)
        assert result.weights.shape == (2, 3, 5, 12) and result.weights.dtype == np.dtype("<f4")
        assert not result.weights.flags.writeable
        assert result.per_layer_attention is result.weights
        assert result.attention_trace() is result

    @pytest.mark.parametrize("prefill", [full_prefill, mini_prefill])
    @pytest.mark.parametrize("rows", [1, 8, 100])
    def test_header_is_the_configs(self, prefill, rows):
        config = ToyModelConfig(layers=3, heads=2, model_dim=10, proj_dim=5, seq_len=16, seed=13)
        result = prefill(config, rows=rows)
        assert result.header == result.attention_trace().header == TraceHeader(layers=3, heads=2, seq_len=16)

    def test_prefill_rows_are_checked_when_built(self):
        weights = np.full((1, 1, 1, 2), 0.5)
        weights[0, 0, 0, 1] = np.nan
        with pytest.raises(TraceFormatError, match="non-finite weight at layer 0, head 0, row 1"):
            PrefillResult(weights)

    @pytest.mark.parametrize("prefill", [full_prefill, mini_prefill])
    def test_windowed_prefill_not_saved(self, tmp_path, prefill):
        result = prefill(ToyModelConfig(seq_len=16))
        with pytest.raises(TraceFormatError, match="cannot save the last 8 of 16 rows"):
            save_trace(result, tmp_path / "prefill.bin")
        assert not (tmp_path / "prefill.bin").exists()

    def test_prefill_result_is_plain_data(self):
        result = PrefillResult(np.full((1, 1, 1, 2), 0.5))
        assert result.kv_bytes == 0 and result.kv_pairs is None


class TestMatchesWhereExpReference:
    """The banded forward gives the exact bits of its where/exp reference, one head and band at a time."""

    @pytest.mark.parametrize("seq_len", [2, 127, 128, 129, 200, 300])
    def test_prefills_bit_equal(self, seq_len):
        rng = np.random.default_rng(seq_len)
        for _ in range(2):
            config = ToyModelConfig(
                layers=int(rng.integers(1, 4)),
                heads=int(rng.integers(1, 4)),
                model_dim=int(rng.integers(2, 17)),
                proj_dim=int(rng.integers(1, 9)),
                seq_len=seq_len,
                seed=int(rng.integers(1000)),
            )
            x = rng.uniform(-1.0, 1.0, size=(seq_len, config.model_dim))
            ref_full = per_head_forward(config, x, full=True)
            ref_mini = per_head_forward(config, x, full=False)
            full, mini = full_prefill(config, x, rows=seq_len), mini_prefill(config, x, rows=seq_len)
            assert full.per_layer_attention.tobytes() == ref_full.per_layer_attention.tobytes()
            assert mini.per_layer_attention.tobytes() == ref_mini.per_layer_attention.tobytes()
            assert full.kv_bytes == ref_full.kv_bytes
            for (k, v), (rk, rv) in zip(full.kv_pairs, ref_full.kv_pairs, strict=True):
                assert k.tobytes() == rk.tobytes() and v.tobytes() == rv.tobytes()


class TestWeights:
    def test_drawn_once_per_config_and_read_only(self):
        config = ToyModelConfig(layers=2, heads=2, model_dim=6, proj_dim=3, seq_len=4, seed=17)
        weights = _Weights(config)
        assert _Weights(ToyModelConfig(**vars(config))) is weights
        assert not any(a.flags.writeable for lw in weights.layers for a in lw.values())
        with pytest.raises(ValueError):
            weights.layers[0]["wq"][0, 0, 0] = 1.0

    def test_only_the_last_configs_set_is_kept(self):
        # A process runs one config at a time; an earlier seed's weights are let go.
        for seed in range(3):
            full_prefill(ToyModelConfig(seed=seed))
        assert _Weights.cache_info().currsize == 1


def prefill_bytes(result: PrefillResult) -> list[bytes]:
    """Attention, then each layer's K and V, as raw bytes."""
    out = [result.per_layer_attention.tobytes()]
    for k, v in () if result.kv_pairs is None else result.kv_pairs:
        out += [k.tobytes(), v.tobytes()]
    return out


class TestHeadsInOneBuffer:
    """A prefill runs every head's band in one buffer on the calling thread; the bits are the per-head reference's."""

    @pytest.mark.parametrize("prefill", [full_prefill, mini_prefill])
    @pytest.mark.parametrize("heads", [1, 2, 3, 4, 5, 8])
    def test_bit_equal_for_any_head_count(self, prefill, heads):
        # All heads share one band buffer, one K/V cache and one context array; at proj_dim 1 the
        # heads' context columns interleave element by element.
        for proj_dim in (5, 1):
            config = ToyModelConfig(layers=3, heads=heads, model_dim=12, proj_dim=proj_dim, seq_len=260, seed=heads)
            x = default_input(config)
            result = prefill_bytes(prefill(config, x, rows=config.seq_len))
            assert result == prefill_bytes(per_head_forward(config, x, full=prefill is full_prefill))

    @pytest.mark.parametrize(
        "layers, heads, model_dim, proj_dim, seq_len, seed",
        [(2, 2, 17, 4, 383, 1), (2, 4, 55, 4, 273, 1), (3, 3, 65, 15, 511, 1), (3, 6, 12, 4, 8, 9)],
    )
    def test_bit_equal_where_blas_rows_depend_on_the_height(self, layers, heads, model_dim, proj_dim, seq_len, seed):
        # At these widths BLAS gives some rows other last bits in a product of another height, and a one-row
        # product runs as a matrix-vector one, so the steps after the heads must run the reference's bands.
        config = ToyModelConfig(layers, heads, model_dim, proj_dim, seq_len, seed)
        x = default_input(config)
        assert prefill_bytes(full_prefill(config, x, rows=seq_len)) == prefill_bytes(
            per_head_forward(config, x, full=True)
        )

    @pytest.mark.parametrize("prefill", [full_prefill, mini_prefill])
    def test_a_prefill_starts_no_thread(self, monkeypatch, prefill):
        starts, inner = [], threading.Thread.start

        def count(thread):  # starts it too, so that a threaded prefill fails here rather than hangs
            starts.append(thread)
            inner(thread)

        monkeypatch.setattr(threading.Thread, "start", count)
        prefill(ToyModelConfig(layers=3, heads=4, model_dim=8, proj_dim=4, seq_len=256, seed=5))
        assert starts == []

    # A band's softmax mid-layer, or the residual rows' norm after layer 0's heads.
    @pytest.mark.parametrize("step", ["_band_weights", "_rms_normalize"])
    @pytest.mark.parametrize("prefill", [full_prefill, mini_prefill])
    def test_a_step_error_reaches_the_caller_and_leaves_no_trace(self, monkeypatch, prefill, step):
        config = ToyModelConfig(layers=2, heads=2, model_dim=8, proj_dim=4, seq_len=256, seed=3)
        expected = prefill_bytes(prefill(config, rows=config.seq_len))
        calls, inner = [], getattr(toymodel, step)

        def fail_on_the_second_call(*args):
            calls.append(None)
            if len(calls) == 2:
                raise MemoryError("step")
            return inner(*args)

        monkeypatch.setattr(toymodel, step, fail_on_the_second_call)
        with pytest.raises(MemoryError, match="^step$"):  # not wrapped as an allocation refusal
            prefill(config, rows=config.seq_len)
        monkeypatch.setattr(toymodel, step, inner)
        assert prefill_bytes(prefill(config, rows=config.seq_len)) == expected

    @pytest.mark.parametrize("prefill", [full_prefill, mini_prefill])
    def test_the_input_is_only_read(self, prefill):
        config = ToyModelConfig(layers=3, heads=2, model_dim=8, proj_dim=4, seq_len=256, seed=6)
        x = default_input(config)
        x.setflags(write=False)
        before = x.tobytes()
        result = prefill(config, x, rows=config.seq_len)
        assert x.tobytes() == before
        assert prefill_bytes(result) == prefill_bytes(prefill(config, x.copy(), rows=config.seq_len))

    def test_import_loads_no_executor(self):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = "import sys, kvalloc; print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"
