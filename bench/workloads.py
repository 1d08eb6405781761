"""The benchmark's workloads: seeded inputs, one operation, its correctness checks.

Each workload is a closed loop with one client: the runner calls ``setup``
(input generation plus a reduced warm-up operation that runs every code path
of the real one), then ``op`` repeatedly, one at a time, and ``check`` after
each ``op`` outside the timed region. Work an ``op`` must do inline only to
check its outputs runs under ``untimed`` and is subtracted from its time.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from kvalloc import allocator, attnproc, eviction, metrics, sampling, toymodel

HERE = Path(__file__).resolve().parent
OWS = 8  # the CLI's and ProcSettings' default observation window
SETTINGS = attnproc.ProcSettings()
MAX_ERRORS = 5


class Workload:
    name = ""

    def __init__(self, seed: int, quick: bool, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self._untimed = 0.0
        self._reference = None
        self.tracer = None

    @contextmanager
    def untimed(self):
        """Inline check work: excluded from the op's time, a "check" span when traced."""
        start = time.monotonic()
        try:
            if self.tracer is None:
                yield
            else:
                with self.tracer.span("check"):
                    yield
        finally:
            self._untimed += time.monotonic() - start

    def take_untimed(self) -> float:
        spent, self._untimed = self._untimed, 0.0
        return spent

    def _same_as_first(self, key, what: str) -> list[str]:
        """Every op of a run has the same inputs, so its outputs must repeat."""
        if self._reference is None:
            self._reference = key
            return []
        return [] if key == self._reference else [f"{what} differs from the first operation's"]

    def peak_rss_mb(self, outcomes: list[dict]) -> float:
        return _mb(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

    def cleanup(self) -> None:
        pass


def _mb(maxrss_kib: int) -> float:
    return maxrss_kib / 1024.0


class LongTrace(Workload):
    """``kvalloc gen`` -> ``allocate --budget`` -> ``simulate --auto --compare-uniform``.

    Each step is its own process. ``allocate`` and ``simulate`` read a trace
    that ``gen`` has just written, so it is hot in the page cache.
    """

    name = "long_trace"
    SPARSITY = "0.02"
    LAYER_SKEW = "2.5"
    BUDGET_SHARE = 0.2

    def __init__(self, seed, quick, workdir):
        super().__init__(seed, quick, workdir)
        self.layers, self.seq_len, self.warm_seq_len = (4, 64, 32) if quick else (32, 2048, 128)
        src = str(HERE.parent / "src")
        pythonpath = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + pythonpath if pythonpath else ""))
        self.path = workdir / "task.trace"
        self._warm_stdout = None

    def budget(self, seq_len: int) -> int:
        return int(self.BUDGET_SHARE * self.layers * (seq_len - OWS))

    def _commands(self, seq_len: int) -> list[tuple[str, list[str]]]:
        path, budget = str(self.path), str(self.budget(seq_len))
        return [
            ("gen", ["gen", "--layers", str(self.layers), "--heads", "1", "--seq-len", str(seq_len),
                     "--sparsity", self.SPARSITY, "--layer-skew", self.LAYER_SKEW,
                     "--seed", str(self.seed), "-o", path]),
            ("allocate", ["allocate", path, "--budget", budget]),
            ("simulate", ["simulate", path, "--auto", "--budget", budget, "--compare-uniform"]),
        ]

    def _step(self, command: str, argv: list[str], tracer) -> dict:
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        spans_path = self.workdir / f"spans-{command}.json"
        start = time.monotonic()
        if tracer is None:
            prog = [sys.executable, "-m", "kvalloc.cli"]
        else:
            prog = [sys.executable, str(HERE / "cli_traced.py"), str(spans_path), repr(start)]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(prog + argv, stdout=out, stderr=err, env=self.env)
            try:
                # wait4, not Popen.wait: it also returns the child's peak RSS.
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.monotonic() - start
        rss = _mb(usage.ru_maxrss)
        if tracer is not None:
            span = tracer.record(
                "cli." + command, start, start + wall,
                failed=proc.returncode != 0, counts={f"cli.{command}_peak_rss_mb": rss},
            )
            if proc.returncode == 0:
                tracer.adopt(json.loads(spans_path.read_text(encoding="utf-8")), parent=span["id"])
        return {
            "rc": proc.returncode,
            "wall_s": wall,
            "rss_mb": rss,
            "stdout": out_path.read_bytes(),
            "stderr": err_path.read_text(encoding="utf-8", errors="replace")[-500:],
        }

    def _pipeline(self, seq_len: int, tracer) -> dict:
        steps = {}
        for command, argv in self._commands(seq_len):
            steps[command] = self._step(command, argv, tracer)
            if steps[command]["rc"] != 0:
                break
        return steps

    def setup(self) -> None:
        steps = self._pipeline(self.warm_seq_len, None)
        errors = self._check_steps(steps, self.warm_seq_len)
        stdout = [steps[c]["stdout"] for c in ("allocate", "simulate")] if not errors else None
        if self._warm_stdout is None:
            self._warm_stdout = stdout
        elif stdout != self._warm_stdout:
            errors.append("warm-up stdout differs between repeats")
        if errors:
            raise RuntimeError("; ".join(errors))

    def op(self) -> dict:
        steps = self._pipeline(self.seq_len, self.tracer)
        return {
            "steps": steps,
            "stages": {f"cli_{c}_s": s["wall_s"] for c, s in steps.items()},
        }

    def _check_steps(self, steps: dict, seq_len: int) -> list[str]:
        failed = [f"{c} exited {s['rc']}: {s['stderr'].strip()}" for c, s in steps.items() if s["rc"] != 0]
        if failed or len(steps) != 3:
            return failed or ["pipeline stopped early"]
        alloc = json.loads(steps["allocate"]["stdout"])
        sim = json.loads(steps["simulate"]["stdout"])
        sizes, cap, budget = alloc["sizes"], seq_len - OWS, self.budget(seq_len)
        errors = []
        if len(sizes) != self.layers or sum(sizes) != budget:
            errors.append(f"allocation total {sum(sizes)} over {len(sizes)} layers, budget {budget}")
        if any(not 0 <= n <= cap for n in sizes):
            errors.append(f"a layer size lies outside [0, {cap}]")
        if sim["sizes"] != sizes:
            errors.append("simulate's sizes differ from allocate's")
        if sim["r_avg"] < sim["uniform"]["r_avg"]:
            errors.append(f"r_avg {sim['r_avg']} below uniform {sim['uniform']['r_avg']}")
        return errors

    def check(self, outcome: dict) -> list[str]:
        steps = outcome["steps"]
        errors = self._check_steps(steps, self.seq_len)
        if errors:
            return errors
        sim = json.loads(steps["simulate"]["stdout"])
        outcome["r_avg"] = sim["r_avg"]
        outcome["gain"] = sim["r_avg"] - sim["uniform"]["r_avg"]
        outcome["peak_rss_mb"] = max(s["rss_mb"] for s in steps.values())
        return self._same_as_first((steps["allocate"]["stdout"], steps["simulate"]["stdout"]), "stdout")

    def peak_rss_mb(self, outcomes: list[dict]) -> float:
        return float(np.median([o["peak_rss_mb"] for o in outcomes]))

    def cleanup(self) -> None:
        self.path.unlink(missing_ok=True)


def reference_curve(scores: np.ndarray) -> np.ndarray:
    """Retention for n = 0..len: descending cumulative mass over the total."""
    cum = np.cumsum(np.sort(scores)[::-1])
    return np.concatenate([[0.0], cum / cum[-1]])


def mean_retention(curves: list[np.ndarray], sizes) -> float:
    return sum(float(c[n]) for c, n in zip(curves, sizes)) / len(curves)


class WideAlloc(Workload):
    """``allocator.allocate`` and the ``metrics`` tables on many wide layers.

    Score vectors are heavy-tailed: the k-th largest is about ``k ** -beta``
    times lognormal noise, at shuffled positions, with a different ``beta``
    per layer, so layers differ in how much cache they need. A power law
    rather than raw Pareto draws keeps the amount of work (the slots the
    target mode grants) and r_avg nearly the same from seed to seed.
    """

    name = "wide_alloc"
    BUDGET_SHARE = 0.10
    TARGET = 0.9
    TARGETS = (0.5, 0.8, 0.9, 0.95, 0.99)
    WARM_LAYERS = 8

    def __init__(self, seed, quick, workdir):
        super().__init__(seed, quick, workdir)
        self.layers, self.tokens = (4, 256) if quick else (64, 16384)
        self.sizes = [2**k for k in range(int(math.log2(self.tokens)) + 1)]

    def _budget(self, layers: int) -> int:
        return int(self.BUDGET_SHARE * layers * self.tokens)

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        ranks = np.arange(1, self.tokens + 1, dtype=np.float64)
        self.vectors = [
            attnproc.ScoreVector(layer=i, scores=rng.permutation(ranks**-beta * rng.lognormal(0.0, 0.5, self.tokens)))
            for i, beta in enumerate(rng.permutation(np.linspace(0.5, 1.5, self.layers)))
        ]
        self.curves = [reference_curve(v.scores) for v in self.vectors]
        self._run(self.vectors[: min(self.WARM_LAYERS, self.layers)])

    def _run(self, vectors) -> dict:
        stages = {}
        start = time.monotonic()
        budget = allocator.allocate(vectors, allocator.Constraint.budget(self._budget(len(vectors))))
        stages["alloc_budget_s"] = time.monotonic() - start
        start = time.monotonic()
        target = allocator.allocate(vectors, allocator.Constraint.target(self.TARGET))
        stages["alloc_target_s"] = time.monotonic() - start
        start = time.monotonic()
        points = metrics.retention_table(vectors, self.sizes)
        min_sizes = metrics.min_size_table_csv(vectors, self.TARGETS)
        stages["curves_s"] = time.monotonic() - start
        return {"budget": budget, "target": target, "points": points, "min_sizes": min_sizes, "stages": stages}

    def op(self) -> dict:
        return self._run(self.vectors)

    def check(self, outcome: dict) -> list[str]:
        errors = []
        budget, target, tokens = outcome["budget"].sizes, outcome["target"].sizes, self.tokens
        if len(budget) != self.layers or sum(budget) != self._budget(self.layers):
            errors.append(f"budget allocation total {sum(budget)} != {self._budget(self.layers)}")
        if any(not 0 <= n <= tokens for n in budget + target):
            errors.append(f"a layer size lies outside [0, {tokens}]")
        reached = mean_retention(self.curves, target)
        if reached < self.TARGET:
            errors.append(f"target allocation reaches r_avg {reached} < {self.TARGET}")
        points = outcome["points"]
        if len(points) != self.layers * len(self.sizes) or any(
            p.r != self.curves[p.layer][p.n] for p in points
        ):
            errors.append("retention table disagrees with the reference curves")
        rows = outcome["min_sizes"].splitlines()[1:]
        expected = [
            f"{layer},{t!r},{int(np.searchsorted(curve, t, side='left'))}"
            for layer, curve in enumerate(self.curves)
            for t in self.TARGETS
        ]
        if rows != expected:
            errors.append("min-size table disagrees with the reference curves")
        errors += self._check_oracle()
        uniform = allocator.uniform_allocation(sum(budget), self.layers, tokens)
        outcome["r_avg"] = mean_retention(self.curves, budget)
        outcome["gain"] = outcome["r_avg"] - mean_retention(self.curves, uniform.sizes)
        return errors + self._same_as_first((budget, target), "allocation")

    def _check_oracle(self) -> list[str]:
        """Greedy must match the exhaustive oracle on a small seeded instance."""
        rng = np.random.default_rng([self.seed, 3])
        small = [rng.pareto(a, 6) for a in (0.8, 1.5, 3.0)]
        curves = [reference_curve(s) for s in small]
        errors = []
        for total in range(0, 19):
            c = allocator.Constraint.budget(total)
            greedy, oracle = allocator.allocate(small, c), allocator.oracle_allocate(small, c)
            if abs(mean_retention(curves, greedy.sizes) - mean_retention(curves, oracle.sizes)) > 1e-12:
                errors.append(f"greedy {greedy.sizes} != oracle {oracle.sizes} at budget {total}")
        for r in (0.3, 0.6, 0.9, 1.0):
            c = allocator.Constraint.target(r)
            greedy, oracle = allocator.allocate(small, c), allocator.oracle_allocate(small, c)
            if greedy.total != oracle.total:
                errors.append(f"greedy {greedy.sizes} != oracle {oracle.sizes} at target {r}")
        return errors


def _digest(array: np.ndarray) -> tuple:
    array = np.ascontiguousarray(array)
    return array.shape, array.dtype.str, hashlib.blake2b(array.data, digest_size=16).digest()


class ToyTaskStream(Workload):
    """The paper's reuse flow on the toy model, one stream of tasks of one type.

    A sample of tasks (``sampling.DEFAULT_SAMPLE_RATIO`` of them) runs the
    cheap mini prefill, scoring and the allocator; their averaged allocation
    goes through a profile file and is reused for every task's real prefill,
    simulation and per-(layer, head) eviction.
    """

    name = "toy_task_stream"
    BUDGET_SHARE = 0.2

    def __init__(self, seed, quick, workdir):
        super().__init__(seed, quick, workdir)
        if quick:
            self.config = toymodel.ToyModelConfig(layers=2, heads=2, model_dim=16, proj_dim=8, seq_len=32)
            self.tasks = 10
        else:
            self.config = toymodel.ToyModelConfig(layers=8, heads=4, model_dim=64, proj_dim=16, seq_len=512)
            self.tasks = 20
        self.sampled = math.ceil(sampling.DEFAULT_SAMPLE_RATIO * self.tasks)
        self.budget = int(self.BUDGET_SHARE * self.config.layers * (self.config.seq_len - OWS))
        self.profile_path = workdir / "profile.json"

    def setup(self) -> None:
        cfg = self.config
        rng = np.random.default_rng(self.seed)
        self.inputs = [rng.uniform(-1.0, 1.0, size=(cfg.seq_len, cfg.model_dim)) for _ in range(self.tasks)]
        self.queries = rng.standard_normal((cfg.layers, cfg.heads, cfg.seq_len, cfg.proj_dim))
        outcome = self._stream(tasks=[0], sampled=[0])
        self.take_untimed()
        if outcome["errors"]:
            raise RuntimeError("; ".join(outcome["errors"]))

    def op(self) -> dict:
        return self._stream(tasks=range(self.tasks), sampled=range(self.sampled))

    def _stream(self, tasks, sampled) -> dict:
        cfg, errors = self.config, []
        samples, mini = [], {}
        for i in sampled:
            prefill = toymodel.mini_prefill(cfg, self.inputs[i])
            with self.untimed():
                mini[i] = _digest(prefill.per_layer_attention)
            vectors = attnproc.process_trace(prefill.attention_trace(), SETTINGS)
            samples.append(allocator.allocate(vectors, allocator.Constraint.budget(self.budget)))
        profile = sampling.build_profile(self.name, samples)
        sampling.save_profile(profile, self.profile_path)
        loaded = sampling.load_profile(self.profile_path)
        with self.untimed():
            if loaded != profile:
                errors.append("profile changed in a save/load round trip")
        sizes = loaded.averaged.sizes
        task_s, r_avgs = [], []
        for i in tasks:
            start, untimed = time.monotonic(), self._untimed
            full = toymodel.full_prefill(cfg, self.inputs[i])
            report = eviction.simulate_task(full, loaded.averaged, SETTINGS)
            for layer, (keys, values) in enumerate(full.kv_pairs):
                for head in range(cfg.heads):
                    kept = eviction.evict_layer(
                        self.queries[layer, head], keys[head], values[head], sizes[layer], SETTINGS
                    )
                    with self.untimed():
                        errors += self._check_evict(kept, keys[head], values[head], sizes[layer])
            with self.untimed():
                if i in mini and _digest(full.per_layer_attention) != mini[i]:
                    errors.append(f"task {i}: mini and full prefill attention differ")
                if report.sizes != sizes:
                    errors.append(f"task {i}: simulated sizes differ from the profile's")
            r_avgs.append(report.r_avg)
            task_s.append(time.monotonic() - start - (self._untimed - untimed))
        if loaded.averaged.total != self.budget:
            errors.append(f"averaged allocation total {loaded.averaged.total} != budget {self.budget}")
        return {
            "errors": errors[:MAX_ERRORS],
            "sizes": sizes,
            "r_avgs": tuple(r_avgs),
            "r_avg": float(np.mean(r_avgs)),
            "stages": {"task_s": task_s},
            "counts": {"sampling.tasks_run": len(r_avgs), "sampling.tasks_reused": len(r_avgs) - len(samples)},
        }

    def _check_evict(self, kept, keys, values, n) -> list[str]:
        kept_k, kept_v, idx = kept
        t = self.config.seq_len
        if idx.shape != (n + OWS,) or np.any(np.diff(idx) <= 0) or list(idx[-OWS:]) != list(range(t - OWS, t)):
            return [f"evict_layer kept indices {idx.shape} do not hold {n} tokens plus the window"]
        if kept_k.tobytes() != keys[idx].tobytes() or kept_v.tobytes() != values[idx].tobytes():
            return ["evict_layer rows are not bit-equal slices of the input"]
        return []

    def check(self, outcome: dict) -> list[str]:
        return outcome["errors"] + self._same_as_first((outcome["sizes"], outcome["r_avgs"]), "result")


WORKLOADS = {w.name: w for w in (LongTrace, WideAlloc, ToyTaskStream)}
