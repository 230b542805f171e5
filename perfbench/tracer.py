"""Spans and call counts at descyc's module boundaries, installed from outside.

A Tracer wraps named public functions of the package.  Each wrapper is bound
in place of the original under every name that refers to it in a loaded
``descyc.*`` module - the defining module, every module that imported it with
``from .x import f``, and module-level dict registries such as
``verify._SUITE_FUNCS`` - and the original bindings are put back on exit.

Spanned functions record (id, parent id, name, start, end) in memory; self
time is a span's duration minus the durations of its direct child spans.
Counted functions (the ones called once per mask in the hot loops) only bump
a counter.  Counters live in an anonymous shared mapping with one row per
process, handed out by the tracing process at each fork, so calls made inside
the forked workers of a parallel scan are counted too, without a lock.
Processes forked by those children are not given rows of their own.
"""

from __future__ import annotations

import functools
import json
import mmap
import os
import sys
import time
from collections import defaultdict

# Rows for the tracing process and the children it forks; a child past the
# last row fails with IndexError on its first counted call.
MAX_PROCESSES = 64


def _descyc_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "descyc" or name.startswith("descyc.")]


class Tracer:
    """Wraps ``spanned`` and ``counted`` functions, given as 'module.function'."""

    def __init__(self, spanned, counted=()):
        self.spanned = tuple(spanned)
        self.counted = tuple(counted)
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._stack = [0]
        width = max(len(self.counted), 1)
        self._counts = memoryview(mmap.mmap(-1, 8 * MAX_PROCESSES * width)).cast("q")
        self._rows_used = 1
        self._row = [0]  # offset of this process's row in _counts
        self._own_row = 0
        os.register_at_fork(before=self._hand_out_row, after_in_parent=self._keep_row)
        self._undo: list[tuple[object, object, object]] = []

    def _span_wrapper(self, name, func):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span_id = len(spans) + 1
            parent = stack[-1]
            stack.append(span_id)
            spans.append(None)  # reserve the id; filled in on exit
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id - 1] = (span_id, parent, name, start, end)

        return wrapper

    def _hand_out_row(self) -> None:
        # Runs in the forking process; the child keeps the row set here.
        self._own_row = self._row[0]
        self._row[0] = self._rows_used * len(self.counted)
        self._rows_used += 1

    def _keep_row(self) -> None:
        self._row[0] = self._own_row

    def _count_wrapper(self, index, func):
        counts, row = self._counts, self._row

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            counts[row[0] + index] += 1
            return func(*args, **kwargs)

        return wrapper

    def _rebind(self, original, wrapper):
        for module in _descyc_modules():
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if value is original:
                    self._undo.append((namespace, attr, original))
                    namespace[attr] = wrapper
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            self._undo.append((value, key, original))
                            value[key] = wrapper

    def _lookup(self, dotted):
        module_name, func_name = dotted.rsplit(".", 1)
        return getattr(sys.modules[f"descyc.{module_name}"], func_name)

    def __enter__(self) -> "Tracer":
        for name in self.spanned:
            func = self._lookup(name)
            self._rebind(func, self._span_wrapper(name, func))
        for index, name in enumerate(self.counted):
            func = self._lookup(name)
            self._rebind(func, self._count_wrapper(index, func))
        return self

    def __exit__(self, *exc) -> None:
        for namespace, key, original in reversed(self._undo):
            namespace[key] = original
        self._undo.clear()

    def summary(self) -> dict[str, float]:
        """'<name>.calls', '<name>.s' and '<name>.self_s' for every function."""
        child_time: dict[int, float] = defaultdict(float)
        for span_id, parent, _, start, end in self.spans:
            child_time[parent] += end - start
        out: dict[str, float] = {}
        for name in self.spanned:
            out[f"{name}.calls"] = 0
            out[f"{name}.s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        for span_id, _, name, start, end in self.spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - child_time[span_id]
        width = len(self.counted)
        for index, name in enumerate(self.counted):
            out[f"{name}.calls"] = sum(self._counts[index::width])
        return out

    def children_time(self, parent_name: str, child_name: str) -> tuple[float, float]:
        """(total time of ``parent_name`` spans, time of their direct ``child_name`` children)."""
        parents = {s[0]: s[4] - s[3] for s in self.spans if s[2] == parent_name}
        inner = sum(s[4] - s[3] for s in self.spans
                    if s[2] == child_name and s[1] in parents)
        return sum(parents.values()), inner

    def write(self, path) -> None:
        """Write the spans as JSON lines: id, parent, name, start_s, end_s."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps([span_id, parent, name, start, end]) + "\n")
