"""Spans around rootsplit's public functions, for the traced benchmark run.

A traced run replaces each function in ``TRACED`` with a wrapper in every
``rootsplit`` module namespace that holds it (``rootsplit.splitting`` and
``rootsplit.pipeline`` both hold ``find_splittings``, for example), so calls
are seen however the program looks the function up. Spans stay in memory
until the run ends. Nothing in the program itself is changed on disk.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

#: (module, function) pairs that get a span in a traced run
TRACED = (
    ("cli", "main"),
    ("report", "emit"),
    ("pipeline", "classify_all"),
    ("pipeline", "classify_subsystem"),
    ("pipeline", "parse_h_spec"),
    ("pipeline", "describe_subsystem"),
    ("splitting", "find_splittings"),
    ("splitting", "case_analysis"),
    ("splitting", "check_constraints"),
    ("splitting", "verify_certificate"),
    ("subalgebra", "enumerate_closed_subsystems"),
    ("subalgebra", "closed_subsystem"),
    ("subalgebra", "is_wolf_pair"),
    ("subalgebra", "wolf_subsystem"),
    ("subalgebra", "is_symmetric_pair"),
    ("subalgebra", "isotropy_weights"),
    ("catalog", "components"),
    ("catalog", "identify_type"),
    ("catalog", "highest_root"),
    ("catalog", "normalize"),
    ("catalog", "weyl_group"),
    ("catalog", "build"),
    ("rootcore", "validate_root_system"),
)
NAMES = tuple(f"{m}.{f}" for m, f in TRACED)

#: work counts taken from a call's positional arguments and its result
COUNTERS = {
    "catalog.weyl_group": lambda args, r: {"elements": len(r.elements)},
    "subalgebra.enumerate_closed_subsystems": lambda args, r: {"classes": len(r)},
    "subalgebra.is_wolf_pair": lambda args, r: {"true": int(r)},
    "splitting.find_splittings": lambda args, r: {
        "weights_in": len(args[0].weights), "certificates": len(r), "hits": int(bool(r))},
    "report.emit": lambda args, r: {"bytes": len(r[0])},
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "counts")

    def __init__(self, name, start, parent, op):
        self.name, self.start, self.end = name, start, start
        self.parent, self.op, self.counts = parent, op, None


class Tracer:
    """Records a span (name, start and end in ns, parent span, op id) for
    every call of a traced function while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None  # id of the op now running, set by the harness
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, time.perf_counter_ns(), stack[-1] if stack else None, self.op)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
            if counter is not None:
                span.counts = counter(args, result)
            return result

        return wrapper

    def install(self) -> None:
        originals = [(mod, fn_name, getattr(importlib.import_module(f"rootsplit.{mod}"), fn_name))
                     for mod, fn_name in TRACED]
        modules = [m for n, m in sys.modules.items()
                   if n == "rootsplit" or n.startswith("rootsplit.")]
        for mod, fn_name, original in originals:
            wrapper = self._wrap(f"{mod}.{fn_name}", original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, attr, original))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def self_ns(self) -> list[int]:
        """Each span's duration minus the time its child spans cover (spans
        of one thread nest, so children never overlap)."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def table(self, ops: set) -> dict[str, dict[str, float]]:
        """Per-function calls, inclusive seconds, self seconds and summed
        work counts over the spans of the given ops."""
        out = {n: {"calls": 0, "s": 0.0, "self_s": 0.0} for n in NAMES}
        own = self.self_ns()
        for s, self_ns in zip(self.spans, own):
            if s.op not in ops:
                continue
            row = out[s.name]
            row["calls"] += 1
            row["s"] += (s.end - s.start) / 1e9
            row["self_s"] += self_ns / 1e9
            for k, v in (s.counts or {}).items():
                row[k] = row.get(k, 0) + v
        return out

    def tree_problems(self, op_windows: dict) -> list[str]:
        """Self times are >= 0, and each op's top-level spans lie inside the
        op's traced wall time (op_windows maps op id to (start, end) ns)."""
        problems = []
        for s, self_ns in zip(self.spans, self.self_ns()):
            if self_ns < 0:
                problems.append(f"span {s.name} of op {s.op} has negative self time")
            if s.parent is None:
                start, end = op_windows[s.op]
                if s.start < start or s.end > end:
                    problems.append(f"top-level span {s.name} lies outside op {s.op}")
        return problems

    def dump(self) -> list[dict]:
        return [{"name": s.name, "start_ns": s.start, "end_ns": s.end,
                 "parent": s.parent, "op": s.op} for s in self.spans]
