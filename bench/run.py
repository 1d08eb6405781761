"""kvalloc benchmark: one workload as a closed loop, end-to-end or traced.

    python3 bench/run.py --workload long_trace --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --quick

One client runs one operation at a time for ``--seconds`` seconds (at least
two operations) after seven set-ups. Every operation's outputs are checked;
a failed check counts as a failed operation. With ``--trace 0`` the last
stdout line carries the end-to-end metrics; with ``--trace 1`` operations
alternate untraced and traced, and it carries the per-layer metrics taken
from spans around calls into each kvalloc module, plus the tracing overhead.
Lines before it list every metric with its unit, its better direction and
what it measures. Full results (samples, percentiles, environment) and the
spans go to ``.bench_out/``; scratch files (the long_trace trace file) go to
``.bench_work/`` and are removed.

``--quick`` runs every workload at tiny shapes in both modes and checks the
output schema and metric names against ``BENCHMARK.json``.
"""

from __future__ import annotations

import os

# BLAS and OpenMP pools are pinned before numpy is first imported, here and
# in every child process, so timings do not depend on thread scheduling.
os.environ.update({var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")})

import argparse  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="long_trace, wide_alloc or toy_task_stream")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny shapes, all workloads, schema check")
    args = parser.parse_args(argv)
    if not args.quick and args.workload is None:
        parser.error("--workload is required unless --quick is given")

    # Benchmark the sources next to this directory, never an installed copy.
    if not (SRC / "kvalloc" / "__init__.py").is_file():
        print(f"error: no kvalloc sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    # On SIGTERM, unwind through the finally blocks that stop child processes
    # and remove scratch files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if args.quick:
        return harness.quick_check()
    if args.workload not in harness.workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(harness.workloads.WORKLOADS)}")
    record = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0 if record["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
