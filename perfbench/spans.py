"""In-memory span tracer that wraps public functions at their call sites.

A wrapper is installed by rebinding the name a caller looks up (for
example ``riskmdp.solvers.bellman_T``), so nothing inside ``src/``
changes. Each call records one span: name, parent span, start, end and
an optional attribute computed after the end time from the arguments and
the result. Spans are kept in memory and written out once at the end.

Functions called once per state-action pair (``DualSet.sup``,
``bellman_L``) are never wrapped; their counts are derived from the
models instead.
"""

from __future__ import annotations

import functools
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, t0, t1, attr]
        self.active = False
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object, object]] = []

    def wrapper(self, name: str, func, attr=None):
        """A traced stand-in for ``func`` that records spans while active."""
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not self.active:
                return func(*args, **kwargs)
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if attr is not None:
                rec[4] = attr(args, kwargs, result)
            return result

        return traced

    def bind(self, module, attr_name: str, traced) -> None:
        self._bindings.append((module, attr_name, getattr(module, attr_name), traced))

    def install(self) -> None:
        for module, attr_name, _, traced in self._bindings:
            setattr(module, attr_name, traced)

    def uninstall(self) -> None:
        for module, attr_name, original, _ in self._bindings:
            setattr(module, attr_name, original)

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its direct children cover."""
        out = [rec[3] - rec[2] for rec in self.spans]
        for rec in self.spans:
            if rec[1] >= 0:
                out[rec[1]] -= rec[3] - rec[2]
        return out

    def write_csv(self, path) -> None:
        base = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,parent,name,start_ns,duration_ns,attr\n")
            for i, (name, parent, t0, t1, attr) in enumerate(self.spans):
                fh.write(
                    f"{i},{parent},{name},{round((t0 - base) * 1e9)},"
                    f"{round((t1 - t0) * 1e9)},{_attr_text(attr)}\n"
                )


def _attr_text(attr) -> str:
    if attr is None:
        return ""
    if isinstance(attr, tuple):
        return ";".join(str(v) for v in attr)
    return str(attr)
