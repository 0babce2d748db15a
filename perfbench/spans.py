"""Span tracing of twcalc's public functions, applied from outside the package.

``Tracer.install`` replaces every public function defined in the six
twcalc modules with a wrapper, in every twcalc namespace that binds it
(``cli`` and ``regularity`` import names directly, and the package
re-exports them).  Each call records one span: name, start, end, parent
span and job.  Spans stay in memory until ``write``; per-layer metrics are
computed from them by ``layer_metrics``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

MODULES = ("hermite", "phase_space", "algebra", "oscillators", "regularity", "cli")


def _bytes_of(name: str, args, out) -> int:
    """Bytes a call moves, for the functions that report them."""
    if name == "algebra.wong_to_json":
        return len(out)
    if name == "algebra.wong_from_json":
        return len(args[0])
    if name == "algebra.twisted_left_matrix":
        return args[0].points_per_axis ** 4 * 16      # computed, not measured
    return 0


class Tracer:
    def __init__(self):
        self.spans: list = []          # [name, start, end, parent, job, bytes]
        self.job = None
        self.functions: set[str] = set()
        self._stack: list[int] = []
        self._restore: list = []

    def install(self):
        import twcalc

        mods = {m: importlib.import_module(f"twcalc.{m}") for m in MODULES}
        wrappers = {}
        for short, mod in mods.items():
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                label = attr[4:] if short == "cli" and attr.startswith("cmd_") else attr
                wrappers[fn] = self._wrap(fn, f"{short}.{label}")
                self.functions.add(f"{short}.{label}")
        for ns in (twcalc, *mods.values()):
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[obj])

    def uninstall(self):
        for ns, attr, obj in reversed(self._restore):
            setattr(ns, attr, obj)
        self._restore.clear()

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.job, 0])
            stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                spans[idx][5] = _bytes_of(name, args, out)
                return out
            finally:
                spans[idx][1:3] = [start, time.perf_counter()]
                stack.pop()
        return traced

    def write(self, path: str):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job", "bytes"],
                       "spans": self.spans}, fh)
            fh.write("\n")

    def layer_metrics(self) -> dict[str, float]:
        """``<module>.<function>.{s,calls,bytes}`` and ``<module>.self_s``.

        A function's seconds count only its outermost calls; self time is a
        span's duration minus the time its child spans cover.
        """
        child = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for fn in self.functions:
            out[f"{fn}.s"] = out[f"{fn}.calls"] = out[f"{fn}.bytes"] = 0.0
        for m in MODULES:
            out[f"{m}.self_s"] = 0.0
        for i, (name, start, end, parent, _, nbytes) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.bytes"] += nbytes
            out[f"{name.split('.')[0]}.self_s"] += (end - start) - child[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                out[f"{name}.s"] += end - start
        return {k: int(v) if k.endswith((".calls", ".bytes")) else v for k, v in out.items()}
