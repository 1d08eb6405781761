"""Run one ``kvalloc`` CLI command with its entry points wrapped in spans.

Usage: python3 bench/cli_traced.py SPANS_JSON SPAWN_TIME COMMAND [ARGS...]

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started this
process, so the ``cli.startup`` span covers interpreter start and imports.
Stdout and the exit code are the CLI's own; the spans go to SPANS_JSON.
"""

import sys
import time

from spans import Tracer


def main() -> int:
    spans_path, spawn_time, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    from kvalloc import cli

    tracer = Tracer()
    tracer.record("cli.startup", spawn_time, time.monotonic())
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
