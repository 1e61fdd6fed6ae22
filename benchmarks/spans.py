"""In-memory span recorder and the self-time arithmetic over its spans.

A span has a name ``<layer>.<what>``, a start, an end and a parent.  Spans
nest through a per-thread stack.  A thread whose stack is empty (a worker
of the library's level pool, which carries no context across threads)
attaches its spans to the recorder's anchor: the open span that was opened
with ``anchor=True``.  Spans opened with ``scope=True`` start a new scope,
inside which the instrumentation counts repeated requests.
"""

from __future__ import annotations

import math
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    scope: int
    thread: int
    start: float
    end: float = math.nan
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Keeps every span in memory, in opening order."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self._clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()
        self._anchor: Span | None = None

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, *, scope: bool = False, anchor: bool = False,
             attrs: dict | None = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self._anchor
        with self._lock:
            sid = len(self.spans)
            span = Span(sid=sid, name=name,
                        parent=None if parent is None else parent.sid,
                        scope=sid if scope or parent is None else parent.scope,
                        thread=threading.get_ident(), start=self._clock(),
                        attrs=attrs or {})
            self.spans.append(span)
        stack.append(span)
        if anchor:
            self._anchor = span
        return span

    def close(self, span: Span) -> None:
        span.end = self._clock()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        stack.pop()
        if self._anchor is span:
            self._anchor = None


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


class SpanTree:
    """Closed spans indexed by id, parent and name."""

    def __init__(self, spans: list[Span]):
        self.by_id = {s.sid: s for s in spans}
        self.children: dict[int, list[Span]] = defaultdict(list)
        self.by_name: dict[str, list[Span]] = defaultdict(list)
        for span in spans:
            self.by_name[span.name].append(span)
            if span.parent is not None:
                self.children[span.parent].append(span)

    def self_time(self, span: Span) -> float:
        """The span's duration minus the part of it its children cover."""
        inside = [(max(c.start, span.start), min(c.end, span.end))
                  for c in self.children.get(span.sid, ())]
        return span.duration - covered((s, e) for s, e in inside if e > s)

    def layer_self_time(self, span: Span) -> float:
        """Time the span's layer spends inside it: its self time plus the
        layer self time of its same-layer children (summed over threads)."""
        return self.self_time(span) + sum(
            self.layer_self_time(c) for c in self.children.get(span.sid, ())
            if c.layer == span.layer)

    def outermost(self, name: str) -> list[Span]:
        """Spans called ``name`` with no ancestor of the same name, so a
        recursive call is not counted twice."""
        out = []
        for span in self.by_name.get(name, ()):
            parent = self.by_id.get(span.parent)
            while parent is not None and parent.name != name:
                parent = self.by_id.get(parent.parent)
            if parent is None:
                out.append(span)
        return out
