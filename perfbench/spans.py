"""In-memory span recorder for the traced benchmark run.

A span is one call into a layer: name, start, end, parent span and the id of
the step or frame (its group) it belongs to. Spans are appended to a list
while the run goes and written out once, when it ends. The benchmark is
single-threaded, so children of a span never overlap each other and a span's
self time is its duration minus the sum of its children's durations.

Calls the benchmark makes itself are wrapped with ``Tracer.span``. Calls the
package makes internally (``evaluate`` calling ``log_mel``, ``grad_check``
calling ``backward``) are reached by ``Tracer.patched``, which swaps the
module attribute the caller looks up for a wrapper around the same function
and puts the original back on exit. Nothing is patched in an untraced run.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from contextlib import contextmanager, nullcontext

NAME, START, END, PARENT, GROUP = range(5)
CALIBRATION_CALLS = 10000
CALIBRATION_REPEATS = 5


def _loop_s(fn, calls: int) -> float:
    t = time.perf_counter()
    for _ in range(calls):
        fn()
    return time.perf_counter() - t


def nospan(name):
    """Stands in for ``Tracer.span`` and ``Tracer.group`` in an untraced run."""
    return nullcontext()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._group: int | None = None
        self._groups = 0

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        rec = [name, time.perf_counter(), None, parent, self._group]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[END] = time.perf_counter()
            self._open.pop()

    @contextmanager
    def group(self, name: str):
        """A root span that opens a new step, frame or setup group."""
        outer = self._group
        self._groups += 1
        self._group = self._groups
        try:
            with self.span(name):
                yield
        finally:
            self._group = outer

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def wrap_section(self, section, layer_of: dict):
        """Wrap ``tensor.section`` so each section also opens a span."""
        @contextmanager
        def traced(name):
            with self.span(f"{layer_of[name]}.{name}"), section(name):
                yield
        return traced

    def cost_per_span_s(self) -> float:
        """Median time a wrapped call adds to a bare call of a no-op function.

        The calibration spans are dropped again, so no report counts them.
        """
        def noop():
            pass
        wrapped = self.wrap(noop, "calibration")
        first = len(self.spans)
        costs = []
        for _ in range(CALIBRATION_REPEATS):
            costs.append(_loop_s(wrapped, CALIBRATION_CALLS)
                         - _loop_s(noop, CALIBRATION_CALLS))
            del self.spans[first:]
        return max(statistics.median(costs), 0.0) / CALIBRATION_CALLS

    @contextmanager
    def patched(self, targets):
        """Temporarily replace ``obj.attr`` by ``make(original)`` for each target."""
        saved = []
        try:
            for obj, attr, make in targets:
                original = getattr(obj, attr)
                saved.append((obj, attr, original))
                setattr(obj, attr, make(original))
            yield
        finally:
            for obj, attr, original in reversed(saved):
                setattr(obj, attr, original)

    # -- queries ------------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] is not None:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def durations_ms(self, name: str) -> list[float]:
        return [(s[END] - s[START]) * 1e3 for s in self.spans if s[NAME] == name]

    def self_ms(self, name: str) -> list[float]:
        own = self.self_times()
        return [own[i] * 1e3 for i, s in enumerate(self.spans) if s[NAME] == name]

    def child_sums_ms(self, parent_name: str, child_name: str) -> list[float]:
        """Per ``parent_name`` span, the summed duration of its ``child_name`` children."""
        sums = {i: 0.0 for i, s in enumerate(self.spans) if s[NAME] == parent_name}
        for s in self.spans:
            if s[NAME] == child_name and s[PARENT] in sums:
                sums[s[PARENT]] += (s[END] - s[START]) * 1e3
        return list(sums.values())

    def group_sums_ms(self, root_name: str, name: str) -> list[float]:
        """Per group opened under ``root_name``, the summed duration of ``name`` spans."""
        roots = {s[GROUP]: 0.0 for s in self.spans
                 if s[NAME] == root_name and s[PARENT] is None}
        for s in self.spans:
            if s[NAME] == name and s[GROUP] in roots:
                roots[s[GROUP]] += (s[END] - s[START]) * 1e3
        return list(roots.values())

    def count_per_group(self, root_name: str, name: str) -> float:
        roots = {s[GROUP] for s in self.spans
                 if s[NAME] == root_name and s[PARENT] is None}
        if not roots:
            return 0.0
        calls = sum(1 for s in self.spans if s[NAME] == name and s[GROUP] in roots)
        return calls / len(roots)

    def summary(self) -> dict:
        """Per span name: calls, total and self milliseconds."""
        own = self.self_times()
        out: dict[str, dict] = {}
        for i, s in enumerate(self.spans):
            row = out.setdefault(s[NAME], {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += (s[END] - s[START]) * 1e3
            row["self_ms"] += own[i] * 1e3
        return out

    def write(self, path):
        """One JSON object per span, times in ms from the first span's start."""
        t0 = self.spans[0][START] if self.spans else 0.0
        own = self.self_times()
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": s[NAME], "group": s[GROUP], "parent": s[PARENT],
                    "start_ms": (s[START] - t0) * 1e3, "end_ms": (s[END] - t0) * 1e3,
                    "self_ms": own[i] * 1e3}) + "\n")
