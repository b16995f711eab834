"""Spans recorded from outside the program, around calls into its layers.

:class:`Tracer` replaces chosen functions and methods with wrappers that
record one span per call -- name, start, end, parent span, cell id --
and puts the originals back on :meth:`Tracer.restore`.  Nothing inside
the program is changed or asked to cooperate, so what is traced is the
code that runs untraced.  Spans stay in memory; :meth:`chrome_trace`
renders them as Chrome-trace JSON at the end of the run.
"""

from __future__ import annotations

import time
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int = 0
    parent: int = -1          # index into Tracer.spans; -1 for a root
    cell: str | None = None
    label: str | None = None
    work: int = 0             # units of work done, e.g. instructions

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


# Called before the call with result None (for the cell, so nested spans
# inherit it) and after it with the result (for the label and work):
# (args, kwargs, result) -> (cell, label, work); any may be None.
Describe = Callable[[tuple, dict, object], tuple]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _call(self, name: str, fn, args: tuple, kwargs: dict,
              describe: Describe | None):
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter_ns(), parent=parent)
        if describe is not None:
            span.cell = describe(args, kwargs, None)[0]
        if span.cell is None and parent >= 0:
            span.cell = self.spans[parent].cell
        index = len(self.spans)
        self.spans.append(span)
        self._stack.append(index)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            span.end_ns = time.perf_counter_ns()
            self._stack.pop()
            if describe is not None:
                _, span.label, work = describe(args, kwargs, result)
                span.work = work or 0

    def wrap(self, owner: object, attr: str, name: str,
             describe: Describe | None = None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``owner`` is a module (for a function as bound there) or a class
        (for a method or classmethod it defines).
        """
        raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        call = self._call
        if isinstance(raw, classmethod):
            func = raw.__func__

            def wrapper(cls, *args, **kwargs):
                return call(name, func, (cls, *args), kwargs, describe)

            replacement: object = classmethod(wrapper)
        else:
            def wrapper(*args, **kwargs):
                return call(name, raw, args, kwargs, describe)

            replacement = wrapper
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put every wrapped callable back, newest first."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # -- analysis ------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_ns[span.parent] += span.end_ns - span.start_ns
        totals: dict[str, float] = defaultdict(float)
        for span, inner in zip(self.spans, child_ns):
            totals[span.name] += (span.end_ns - span.start_ns - inner) / 1e9
        return dict(totals)

    def totals(self, name: str) -> tuple[int, int]:
        """Call count and summed work of spans named ``name``."""
        calls = work = 0
        for span in self.spans:
            if span.name == name:
                calls += 1
                work += span.work
        return calls, work

    def chrome_trace(self) -> dict:
        """The spans as a Chrome-trace (``chrome://tracing``) document."""
        origin = min((s.start_ns for s in self.spans), default=0)
        events = []
        for index, span in enumerate(self.spans):
            args = {"parent": span.parent}
            if span.cell is not None:
                args["cell"] = span.cell
            if span.label is not None:
                args["label"] = span.label
            events.append({
                "name": span.name if span.label is None
                else f"{span.name}[{span.label}]",
                "cat": span.name.rsplit(".", 1)[0],
                "ph": "X", "pid": 0, "tid": 0,
                "ts": (span.start_ns - origin) / 1e3,
                "dur": (span.end_ns - span.start_ns) / 1e3,
                "args": {**args, "id": index},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}
