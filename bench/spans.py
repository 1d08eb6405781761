"""In-memory spans around calls into kvalloc's public entry points.

A ``Tracer`` wraps the entry points listed in ``ENTRY_POINTS`` by replacing
the module attributes (and one method) that callers resolve at call time, so
calls made by the benchmark and calls made inside the ``kvalloc`` CLI both
land in a span. Spans are kept in memory and written out when a run ends.
Times come from ``time.monotonic`` (CLOCK_MONOTONIC on Linux), which is
system-wide, so spans recorded in a child process nest inside the parent's.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager


def _trace_bytes(header) -> int:
    # Computed from shapes: header line plus the f32 payload.
    return len(header.to_json_line()) + header.payload_bytes


def _allocate_name(args, kwargs) -> str:
    constraint = kwargs.get("constraint", args[1] if len(args) > 1 else None)
    return "allocator.allocate_" + constraint.mode


# (module, attribute, span name or a function of the call's arguments,
#  counts taken from the call's result and arguments)
ENTRY_POINTS = [
    ("trace", "generate_trace", "trace.generate", None),
    ("trace", "save_trace", "trace.save", lambda r, a, k: {"trace.bytes_written": _trace_bytes(a[0].header)}),
    ("trace", "load_trace", "trace.load", lambda r, a, k: {"trace.bytes_read": _trace_bytes(r.header)}),
    ("trace", "AttentionTrace.validate", "trace.validate", None),
    ("attnproc", "process_trace", "attnproc.process_trace", None),
    ("metrics", "retention_table", "metrics.retention_table", None),
    ("metrics", "min_size_table_csv", "metrics.min_size_table", None),
    ("allocator", "allocate", _allocate_name, lambda r, a, k: {"allocator.slots_granted": r.total}),
    ("toymodel", "mini_prefill", "toymodel.mini_prefill", None),
    ("toymodel", "full_prefill", "toymodel.full_prefill", lambda r, a, k: {"toymodel.kv_bytes": r.kv_bytes}),
    ("eviction", "simulate_task", "eviction.simulate_task",
     lambda r, a, k: {"eviction.bytes_before": r.bytes_before, "eviction.bytes_after": r.bytes_after}),
    ("eviction", "evict_layer", "eviction.evict_layer", None),
    ("sampling", "build_profile", "sampling.build_profile", None),
    ("sampling", "save_profile", "sampling.profile_io", None),
    ("sampling", "load_profile", "sampling.profile_io", None),
]

LAYERS = ["trace", "attnproc", "metrics", "allocator", "toymodel", "eviction", "sampling", "cli"]


class Tracer:
    """Records spans (name, start, end, parent, operation id) in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def record(self, name: str, start: float, end: float | None = None, **fields) -> dict:
        """Append a span under the innermost open one."""
        span = {
            "id": len(self.spans),
            "name": name,
            "start": start,
            "end": end,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            "failed": False,
            "counts": {},
        }
        span.update(fields)
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str):
        """Span around a block."""
        span = self.record(name, time.monotonic())
        self._stack.append(span["id"])
        try:
            yield span
        except BaseException:
            span["failed"] = True
            raise
        finally:
            span["end"] = time.monotonic()
            self._stack.pop()

    def adopt(self, spans: list[dict], parent: int) -> None:
        """Graft spans recorded by a child process under span ``parent``."""
        offset = len(self.spans)
        for s in spans:
            self.spans.append(
                dict(s, id=s["id"] + offset, op=self.op,
                     parent=parent if s["parent"] is None else s["parent"] + offset)
            )

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            with self.span(label) as span:
                result = fn(*args, **kwargs)
                if counter is not None:
                    span["counts"] = counter(result, args, kwargs)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every entry point with a span-recording wrapper."""
        for module_name, attr, name, counter in ENTRY_POINTS:
            owner = importlib.import_module("kvalloc." + module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def self_seconds(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return {sid: max(0.0, t) for sid, t in own.items()}
