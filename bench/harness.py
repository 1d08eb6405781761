"""Benchmark runner: set-up, the closed loop, checks, metrics and the report.

Imported by ``run.py`` after it has pinned thread pools and put the kvalloc
sources on ``sys.path``.
"""

from __future__ import annotations

import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent

SETUP_REPEATS = 7
MIN_OPS = 2
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)

END_TO_END = {
    "op_s": ("s", "lower", "median wall time of one operation: the gen/allocate/simulate pipeline "
             "(long_trace), budget + target allocation + both tables (wide_alloc), one task stream "
             "(toy_task_stream)"),
    "peak_rss_mb": ("MB", "lower", "measured; long_trace: largest child peak RSS of an operation "
                    "(os.wait4), median over operations; other workloads: this process's peak RSS"),
    "r_avg": ("ratio", "higher", "average retention of the personalized allocation; repeats exactly "
              "for one seed, so a change of results shows"),
    "setup_s": ("s", "lower", f"median of {SETUP_REPEATS} set-ups: input generation plus a reduced "
                "warm-up operation"),
}

# Which end-to-end metric each entry point's time should move, and where.
MOVES = {
    "trace.generate": "op_s and peak_rss_mb on long_trace",
    "trace.save": "op_s and peak_rss_mb on long_trace",
    "trace.load": "op_s and peak_rss_mb on long_trace",
    "trace.validate": "op_s and peak_rss_mb on long_trace",
    "attnproc.process_trace": "op_s on long_trace and toy_task_stream",
    "metrics.retention_table": "op_s (curves_s) on wide_alloc",
    "metrics.min_size_table": "op_s (curves_s) on wide_alloc",
    "allocator.allocate_budget": "op_s (alloc_budget_s) on wide_alloc; nothing on long_trace",
    "allocator.allocate_target": "op_s (alloc_target_s) on wide_alloc; nothing on long_trace",
    "toymodel.mini_prefill": "op_s (task_s) on toy_task_stream",
    "toymodel.full_prefill": "op_s (task_s) on toy_task_stream",
    "eviction.simulate_task": "op_s and peak_rss_mb on long_trace, op_s on toy_task_stream",
    "eviction.evict_layer": "op_s (task_s) on toy_task_stream",
    "sampling.build_profile": "op_s (tasks_per_s) on toy_task_stream",
    "sampling.profile_io": "op_s (tasks_per_s) on toy_task_stream",
    "cli.startup": "op_s on long_trace (interpreter start and imports, spawn to main)",
    "cli.gen": "op_s and peak_rss_mb on long_trace (whole child process)",
    "cli.allocate": "op_s and peak_rss_mb on long_trace (whole child process)",
    "cli.simulate": "op_s and peak_rss_mb on long_trace (whole child process)",
}

SHAPES = "computed from shapes, not measured"
COUNTS = {
    "trace.bytes_written": ("B", f"header + payload bytes save_trace wrote, per operation; {SHAPES}"),
    "trace.bytes_read": ("B", f"header + payload bytes load_trace read, per operation; {SHAPES}"),
    "allocator.slots_granted": ("count", "cache slots granted by allocate, per operation"),
    "toymodel.kv_bytes": ("B", f"K/V bytes kept by full_prefill, per operation; {SHAPES}"),
    "eviction.bytes_before": ("B", f"K/V bytes before eviction, per operation; {SHAPES}"),
    "eviction.bytes_after": ("B", f"K/V bytes after eviction, per operation; {SHAPES}; "
                             "base: eviction.bytes_before"),
    "eviction.compression_ratio": ("ratio", f"eviction.bytes_after / eviction.bytes_before; {SHAPES}"),
    "sampling.reuse_share": ("ratio", "tasks served from the profile without the allocator / tasks run"),
    "cli.gen_peak_rss_mb": ("MB", "peak RSS of the gen process (measured, os.wait4)"),
    "cli.allocate_peak_rss_mb": ("MB", "peak RSS of the allocate process (measured, os.wait4)"),
    "cli.simulate_peak_rss_mb": ("MB", "peak RSS of the simulate process (measured, os.wait4)"),
}


def per_layer_specs() -> dict[str, tuple[str, str, str]]:
    """name -> (unit, better, description) for every per-layer metric."""
    specs = {}
    for name, moves in MOVES.items():
        specs[name + "_s"] = ("s", "lower", f"busy seconds per operation (inclusive); moves {moves}")
        specs[name + "_calls"] = ("count", "lower", "calls per operation")
        specs[name + "_failed"] = ("count", "lower", "calls that raised or exited non-zero, whole run")
    for name, (unit, note) in COUNTS.items():
        specs[name] = (unit, "higher" if name == "sampling.reuse_share" else "lower", note)
    for layer in spans.LAYERS:
        specs[layer + ".self_s"] = ("s", "lower", f"seconds per operation inside {layer} entry points, "
                                    "minus their child spans")
    specs["op.self_s"] = ("s", "lower", "seconds per operation outside every layer span and inline check "
                          "(benchmark glue)")
    specs["tracing.op_traced_s"] = ("s", "lower", "median traced operation time in this run")
    specs["tracing.op_untraced_s"] = ("s", "lower", "median untraced operation time in this run")
    specs["tracing.overhead_s"] = ("s", "lower", "tracing.op_traced_s - tracing.op_untraced_s")
    return specs


def summarize(samples: list[float]) -> dict:
    """Median, sample count and the highest percentile with ten samples beyond it."""
    out = {"median": statistics.median(samples), "n": len(samples), "samples": samples}
    for p in PERCENTILES:
        if len(samples) * (1 - p / 100) >= 10:
            out[f"p{p:g}"] = float(np.percentile(samples, p))
            break
    return out


def per_layer_metrics(tracer, op_ids: list[int], traced_s: list[float], untraced_s: list[float]) -> dict:
    by_op = {op: [] for op in op_ids}
    for s in tracer.spans:
        if s["op"] in by_op:
            by_op[s["op"]].append(s)
    own = spans.self_seconds(tracer.spans)

    def median_per_op(value) -> float:
        return statistics.median(value(by_op[op]) for op in op_ids)

    def count(name):
        return lambda ss: sum(s["counts"].get(name, 0) for s in ss)

    values = {}
    for name in MOVES:
        values[name + "_s"] = median_per_op(lambda ss: sum(s["end"] - s["start"] for s in ss if s["name"] == name))
        values[name + "_calls"] = median_per_op(lambda ss: sum(s["name"] == name for s in ss))
        values[name + "_failed"] = sum(s["failed"] for s in tracer.spans if s["name"] == name)
    for name in COUNTS:
        values[name] = median_per_op(count(name))
    values["eviction.compression_ratio"] = median_per_op(
        lambda ss: count("eviction.bytes_after")(ss) / max(1, count("eviction.bytes_before")(ss))
    )
    values["sampling.reuse_share"] = median_per_op(
        lambda ss: count("sampling.tasks_reused")(ss) / max(1, count("sampling.tasks_run")(ss))
    )
    for layer in spans.LAYERS:
        values[layer + ".self_s"] = median_per_op(
            lambda ss: sum(own[s["id"]] for s in ss if s["name"].startswith(layer + "."))
        )
    values["op.self_s"] = median_per_op(lambda ss: sum(own[s["id"]] for s in ss if s["name"] == "op"))
    values["tracing.op_traced_s"] = statistics.median(traced_s)
    values["tracing.op_untraced_s"] = statistics.median(untraced_s)
    values["tracing.overhead_s"] = values["tracing.op_traced_s"] - values["tracing.op_untraced_s"]
    return values


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "loop": "closed, 1 client, one operation at a time",
    }


def run(name: str, seed: int, seconds: float, trace: bool, quick: bool = False) -> dict:
    """Set up, run the timed loop, check every operation; return the full record."""
    workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[name](seed, quick, workdir)
    tracer = spans.Tracer()
    try:
        setup_s = []
        for _ in range(SETUP_REPEATS):
            start = time.monotonic()
            workload.setup()
            setup_s.append(time.monotonic() - start)

        ops, failed, errors = [], 0, []
        loop_start = time.monotonic()
        while len(ops) < MIN_OPS or time.monotonic() - loop_start < seconds:
            traced = trace and len(ops) % 2 == 1
            tracer.op = len(ops)
            workload.tracer = tracer if traced else None
            if traced:
                tracer.install()
            start = time.monotonic()
            try:
                with tracer.span("op") if traced else nullcontext() as op_span:
                    outcome = workload.op()
                problems = []
            except Exception:
                outcome, problems = None, [traceback.format_exc(limit=3)]
            finally:
                elapsed = time.monotonic() - start - workload.take_untimed()
                if traced:
                    tracer.uninstall()
                workload.tracer = None
            if outcome is not None:
                if traced:
                    op_span["counts"] = outcome.get("counts", {})
                problems = workload.check(outcome)
            if problems:
                failed += 1
                errors.extend(problems)
                print(f"operation {len(ops)} failed: {problems[0]}", file=sys.stderr)
            ops.append({"s": elapsed, "traced": traced, "ok": not problems, "outcome": outcome})
        measured_s = time.monotonic() - loop_start
    finally:
        workload.cleanup()
        shutil.rmtree(workdir, ignore_errors=True)

    good = [op for op in ops if op["ok"]]
    untraced = [op for op in good if not op["traced"]]
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "quick": quick,
        "environment": environment(),
        "setup_s": summarize(setup_s),
        "op_s": summarize([op["s"] for op in untraced]) if untraced else None,
        "measured_s": measured_s,
        "attempted": len(ops), "failed": failed, "errors": errors[:20],
        "failed_ratio": failed / len(ops),
        "stages": _stages(untraced),
    }
    if good:
        first = good[0]["outcome"]
        record["r_avg"] = first["r_avg"]
        record["r_avg_gain_vs_uniform"] = first.get("gain")
    specs = per_layer_specs() if trace else END_TO_END
    traced = [op for op in good if op["traced"]]
    metrics = {}
    if not trace and untraced:
        metrics = {
            "setup_s": record["setup_s"]["median"],
            "op_s": record["op_s"]["median"],
            "peak_rss_mb": workload.peak_rss_mb([op["outcome"] for op in untraced]),
            "r_avg": record["r_avg"],
        }
    elif trace and traced and untraced:
        metrics = per_layer_metrics(
            tracer, [i for i, op in enumerate(ops) if op["traced"] and op["ok"]],
            [op["s"] for op in traced], [op["s"] for op in untraced],
        )
    record["metrics"] = {k: {"value": v, "unit": specs[k][0]} for k, v in metrics.items()}
    record["correct"] = failed == 0 and bool(metrics) and set(metrics) == set(specs)

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    stem = f"{'quick-' if quick else ''}{name}-seed{seed}-trace{int(trace)}"
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if trace:
        tracer.dump(out / f"{stem}-spans.json")
    _report(record, specs)
    return record


def _stages(ops: list[dict]) -> dict:
    """Workload-specific timings from untraced operations (e.g. alloc_budget_s, task_s)."""
    samples: dict[str, list[float]] = {}
    for op in ops:
        for key, value in op["outcome"]["stages"].items():
            samples.setdefault(key, []).extend(value if isinstance(value, list) else [value])
    stages = {key: summarize(v) for key, v in samples.items()}
    if "task_s" in stages and ops:
        per_op = [op["s"] for op in ops]
        stages["tasks_per_s"] = {"value": len(samples["task_s"]) / sum(per_op), "n": len(per_op)}
    return stages


def _report(record: dict, specs: dict) -> None:
    env = record["environment"]
    print(f"# kvalloc benchmark: workload={record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']} trace={record['trace']}")
    print(f"# python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
          + ", ".join(f"{k}={v}" for k, v in env["threads"].items()) + f"; {env['loop']}")
    if record["workload"] == "long_trace":
        print("# allocate and simulate read a trace that gen has just written: hot in the page cache")
    print(f"# operations {record['attempted']}, failed {record['failed']}, "
          f"failed_ratio {record['failed_ratio']:g}; r_avg {record.get('r_avg')}, "
          f"r_avg_gain_vs_uniform {record.get('r_avg_gain_vs_uniform')}")
    for key, stage in record["stages"].items():
        print(f"# stage {key}: " + ", ".join(f"{k} {v:.6g}" for k, v in stage.items() if k != "samples"))
    for key in ("setup_s", "op_s"):
        if record[key]:
            extra = [k for k in record[key] if k.startswith("p")]
            print(f"# {key}: median {record[key]['median']:.6g} s over n={record[key]['n']}"
                  + (f", {extra[0]} {record[key][extra[0]]:.6g} s" if extra
                     else "; no percentile above the median has ten samples beyond it"))
    for key, (unit, better, note) in specs.items():
        value = record["metrics"].get(key, {}).get("value")
        print(f"{key} = {value} {unit} ({better} is better) - {note}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))


def quick_check() -> int:
    """Run every workload at tiny shapes in both modes; check schema and names."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the benchmark's")
    for trace, section, specs in ((False, "end_to_end", END_TO_END), (True, "per_layer", per_layer_specs())):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[section]}
        if declared != {k: v[:2] for k, v in specs.items()}:
            problems.append(f"BENCHMARK.json {section} differs from the benchmark's metrics")
        for name in workloads.WORKLOADS:
            record = run(name, seed=1, seconds=0, trace=trace, quick=True)
            result = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{name} trace={int(trace)}: not correct: {record['errors'][:1]}")
            if set(result["metrics"]) != set(declared):
                problems.append(f"{name} trace={int(trace)}: metric names differ from {section}")
            for key, m in result["metrics"].items():
                if set(m) != {"value", "unit"} or not math.isfinite(m["value"]) or m["unit"] != declared[key][0]:
                    problems.append(f"{name} trace={int(trace)}: bad metric {key}: {m}")
    for p in problems:
        print(f"quick check: {p}", file=sys.stderr)
    print("quick check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


