"""Command-line surface for the trace -> scores -> allocation -> eviction pipeline.

Every command is deterministic given its flags and seed; machine-readable
output (JSON or CSV) goes to stdout, diagnostics to stderr, or nowhere if it
is closed. Exit codes: 0 on success, 2 on validation or usage errors (a closed
stdout, for a command that writes its result there, included), 1 on internal
errors (including a failed oracle cross-check). Every command checks its
flags before it reads a trace, so a bad flag is reported over a bad file.

This module owns the stdout formats: the library returns score vectors,
retention points, allocations and reports, and every command writes them
through ``_write_csv`` or ``_write_json``. Only the formats of files that the
library also reads back (traces, ``--allocation`` files, profiles) live next
to their readers, and ``curves --targets`` prints ``metrics.min_size_table_csv``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import os
import sys
from collections.abc import Iterable

from . import allocator, attnproc, eviction, metrics, sampling, toymodel, trace

ORACLE_CHECK_ATOL = 1e-9

# The keys of the simulate JSON object, in order: the report's fields and the values it derives from them.
REPORT_KEYS = ("sizes", "ows", "retained_indices", "compression_ratio", "memory_reduction",
               "bytes_before", "bytes_after", "per_layer_r", "r_avg", "window_policy")


def _add_proc_flags(parser: argparse.ArgumentParser) -> None:
    defaults = attnproc.ProcSettings()
    parser.add_argument("--ows", type=int, default=defaults.ows, help="observation window size")
    parser.add_argument("--pool-size", type=int, default=defaults.pool_size, help="smoothing kernel width (odd)")


def _add_constraint_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--budget", type=int, default=None, help="total cache size across layers")
    group.add_argument("--target-ravg", type=float, default=None, help="target average retention in (0, 1]")


def _add_format_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "csv"), default="json", dest="fmt")


def _write_csv(header: tuple[str, ...], rows: Iterable[tuple]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _write_json(obj: object) -> None:
    sys.stdout.write(json.dumps(obj, separators=(",", ":")) + "\n")


def _note(line: str) -> None:
    """Print a diagnostic line on stderr; a closed stderr drops it, and the command goes on."""
    with contextlib.suppress(OSError):
        print(line, file=sys.stderr)


def _constraint(args: argparse.Namespace) -> allocator.Constraint:
    if (args.budget is None) == (args.target_ravg is None):
        raise ValueError("exactly one of --budget or --target-ravg is required")
    if args.budget is not None:
        return allocator.Constraint.budget(args.budget)
    return allocator.Constraint.target(args.target_ravg)


def _settings(args: argparse.Namespace) -> attnproc.ProcSettings:
    return attnproc.ProcSettings(ows=args.ows, pool_size=args.pool_size)


def _cmd_gen(args: argparse.Namespace) -> int:
    spec = trace.SyntheticSpec(**{f.name: getattr(args, f.name) for f in dataclasses.fields(trace.SyntheticSpec)})
    trace.write_synthetic(spec, args.output)
    _note(f"wrote {args.output}")
    return 0


def _cmd_scores(args: argparse.Namespace) -> int:
    settings = _settings(args)
    vectors = attnproc.process_trace(trace.read_window(args.trace, args.ows), settings)
    if args.fmt == "csv":
        _write_csv(
            ("layer", "position", "score"),
            ((sv.layer, pos, repr(score)) for sv in vectors for pos, score in enumerate(sv.scores.tolist())),
        )
    else:
        _write_json([{"layer": sv.layer, "scores": sv.scores.tolist()} for sv in vectors])
    return 0


def _cmd_curves(args: argparse.Namespace) -> int:
    if (args.sizes is None) == (args.targets is None):
        raise ValueError("exactly one of --sizes or --targets is required")
    settings = _settings(args)
    sizes = None if args.sizes is None else [trace.checked_integer("n", int(x)) for x in args.sizes.split(",") if x]
    targets = None if args.targets is None else [
        trace.checked_real("target retention", float(x), 0.0, 1.0) for x in args.targets.split(",") if x
    ]
    vectors = attnproc.process_trace(trace.read_window(args.trace, args.ows), settings)
    if sizes is not None:
        points = metrics.retention_table(vectors, sizes)
        _write_csv(("layer", "n", "r"), ((p.layer, p.n, repr(p.r)) for p in points))
    else:
        sys.stdout.write(metrics.min_size_table_csv(vectors, targets))
    return 0


def _cmd_allocate(args: argparse.Namespace) -> int:
    settings, constraint = _settings(args), _constraint(args)
    vectors = attnproc.process_trace(trace.read_window(args.trace, args.ows), settings)
    allocation = allocator.allocate(vectors, constraint)
    achieved = allocator.allocation_r_avg(vectors, allocation)

    if args.oracle:
        reference = allocator.oracle_allocate(vectors, constraint)
        reference_r = allocator.allocation_r_avg(vectors, reference)
        if constraint.mode == "budget":
            mismatch = abs(achieved - reference_r) > ORACLE_CHECK_ATOL
        else:
            mismatch = allocation.total != reference.total
        if mismatch:
            _note(
                f"oracle mismatch: greedy sizes={list(allocation.sizes)} r_avg={achieved!r}, "
                f"oracle sizes={list(reference.sizes)} r_avg={reference_r!r}"
            )
            return 1
        _note("oracle check passed")

    if args.fmt == "csv":
        _write_csv(("layer", "n"), enumerate(allocation.sizes))
        _note(f"r_avg {achieved!r}")
    else:
        _write_json({"sizes": allocation.sizes, "r_avg": achieved})
    return 0


def _simulate_source(args: argparse.Namespace) -> trace.AttentionTrace:
    """Resolve the attention source for simulation: a trace's window rows, or a toy prefill's."""
    if args.toy:
        if args.trace is not None:
            raise ValueError("a trace path and --toy are mutually exclusive")
        config = toymodel.ToyModelConfig(
            **{f.name: getattr(args, f.name) for f in dataclasses.fields(toymodel.ToyModelConfig)}
        )
        return toymodel.mini_prefill(config, rows=args.ows)
    if args.trace is None:
        raise ValueError("either a trace path or --toy is required")
    return trace.read_window(args.trace, args.ows)


def _cmd_simulate(args: argparse.Namespace) -> int:
    settings = _settings(args)
    # Flag errors come before the trace is read or the prefill is run.
    if sum([args.allocation is not None, args.auto, args.profile is not None]) != 1:
        raise ValueError("exactly one of --allocation, --auto, or --profile is required")
    constraint = _constraint(args) if args.auto else None
    trace.checked_integer("proj_dim", args.proj_dim, 1)
    source = _simulate_source(args)
    if args.allocation is not None:
        with open(args.allocation, "rb") as fh:
            allocation = allocator.AllocationList.from_json(fh.read())
    elif args.profile is not None:
        allocation = sampling.load_profile(args.profile).averaged
    else:
        allocation = allocator.allocate(attnproc.process_trace(source, settings), constraint)
    reports = {"personalized": eviction.simulate_task(source, allocation, settings, proj_dim=args.proj_dim)}
    if args.compare_uniform:
        uniform = allocator.uniform_allocation(allocation.total, len(allocation), source.header.seq_len - settings.ows)
        reports["uniform"] = eviction.simulate_task(source, uniform, settings, proj_dim=args.proj_dim)

    payload = {}
    for method, report in reports.items():
        _note(
            f"{method}: compression ratio {report.compression_ratio * 100:.1f}% "
            f"(memory reduction {report.memory_reduction * 100:.1f}%), r_avg {report.r_avg:.4f}, "
            f"{report.bytes_after} of {report.bytes_before} bytes retained; {report.window_policy}"
        )
        fields = {key: getattr(report, key) for key in REPORT_KEYS}
        payload |= fields if method == "personalized" else {method: fields}

    if args.fmt == "csv":
        _write_csv(
            ("method", "layer", "n", "retained", "r"),
            (
                (method, layer, n, len(idx), repr(r))
                for method, each in reports.items()
                for layer, (n, idx, r) in enumerate(zip(each.sizes, each.retained_indices, each.per_layer_r))
            ),
        )
    else:
        _write_json(payload)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    settings, constraint = _settings(args), _constraint(args)
    lists = []
    for path in args.traces:
        vectors = attnproc.process_trace(trace.read_window(path, args.ows), settings)
        lists.append(allocator.allocate(vectors, constraint))
    profile = sampling.build_profile(args.task_type, lists)
    if len(lists) >= 2:
        try:
            similarity = sampling.profile_similarity(lists)
            _note(f"sample similarity {similarity:.4f}")
        except ValueError as exc:
            _note(f"sample similarity unavailable: {exc}")
    if args.output:
        sampling.save_profile(profile, args.output)
        _note(f"wrote {args.output}")
    else:
        sys.stdout.write(profile.to_json() + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kvalloc",
        description="Per-layer KV-cache budget allocation and eviction simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a seeded synthetic attention trace")
    gen.add_argument("--layers", type=int, required=True)
    gen.add_argument("--heads", type=int, default=1)
    gen.add_argument("--seq-len", type=int, required=True)
    gen.add_argument("--sparsity", type=float, default=0.1)
    gen.add_argument("--layer-skew", type=float, default=0.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output", required=True)
    gen.set_defaults(func=_cmd_gen)

    scores = sub.add_parser("scores", help="emit per-layer token scores from a trace")
    scores.add_argument("trace")
    _add_proc_flags(scores)
    _add_format_flag(scores)
    scores.set_defaults(func=_cmd_scores)

    curves = sub.add_parser("curves", help="emit retention-curve tables as CSV")
    curves.add_argument("trace")
    curves.add_argument("--sizes", default=None, help="comma-separated cache sizes for layer,n,r rows")
    curves.add_argument("--targets", default=None, help="comma-separated retention targets for layer,r_target,n_min rows")
    _add_proc_flags(curves)
    curves.set_defaults(func=_cmd_curves)

    alloc = sub.add_parser("allocate", help="compute a per-layer cache-size allocation")
    alloc.add_argument("trace")
    alloc.add_argument("--oracle", action="store_true", help="cross-check against the exact dynamic-programming oracle")
    _add_constraint_flags(alloc)
    _add_proc_flags(alloc)
    _add_format_flag(alloc)
    alloc.set_defaults(func=_cmd_allocate)

    sim = sub.add_parser("simulate", help="simulate eviction for one task and report")
    sim.add_argument("trace", nargs="?", default=None)
    sim.add_argument("--toy", action="store_true", help="drive a seeded toy-model run instead of a trace")
    for f in dataclasses.fields(toymodel.ToyModelConfig):
        sim.add_argument("--" + f.name.replace("_", "-"), type=int, default=f.default)
    sim.add_argument("--allocation", default=None, help="allocation JSON file")
    sim.add_argument("--auto", action="store_true", help="run the allocator inline")
    sim.add_argument("--profile", default=None, help="reuse the averaged allocation of a profile")
    sim.add_argument("--compare-uniform", action="store_true")
    _add_constraint_flags(sim)
    _add_proc_flags(sim)
    _add_format_flag(sim)
    sim.set_defaults(func=_cmd_simulate)

    prof = sub.add_parser("profile", help="build an allocation profile from sampled tasks")
    prof.add_argument("traces", nargs="+")
    prof.add_argument("--task-type", required=True)
    prof.add_argument("-o", "--output", default=None)
    _add_constraint_flags(prof)
    _add_proc_flags(prof)
    prof.set_defaults(func=_cmd_profile)

    return parser


def main(argv: list[str] | None = None) -> int:
    # With descriptor 2 closed ("2>&-") sys.stderr is None, and argparse would print its usage on stdout.
    if sys.stderr is None:
        sys.stderr = open(os.devnull, "w")
    parser = build_parser()
    args = parser.parse_args(argv)
    # A command without an output path writes its result to stdout; ">&-" leaves it None.
    if sys.stdout is None and getattr(args, "output", None) is None:
        _note("error: stdout is closed")
        return 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        _note(f"error: {exc}")
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        _note(f"internal error: {exc}")
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
