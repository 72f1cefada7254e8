"""Span recording at the package's layer boundaries, installed from outside.

The tracer replaces a module attribute (the name one layer uses to call
another, e.g. ``mdhtest.rolling.gs_test``) with a wrapper that records a
span around each call, and restores the attribute afterwards. The package
itself is never edited. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import threading
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Callable, Optional


@dataclass(frozen=True)
class Span:
    id: int
    name: str  # "<layer>.<function>" of the callee
    start: float
    end: float
    parent: Optional[int]
    op: int

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; one per wrapped call, linked to the enclosing span.

    A call made on a worker thread with no open span of its own is parented
    to the innermost open span of the main thread, which is the call that
    fanned the work out (e.g. ``run_rolling`` waiting on its pool).
    """

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = 0
        self._ids = iter(range(1 << 62))
        self._id_lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list = []

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        with self._id_lock:
            sid = next(self._ids)
        stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self.op))

    def wrap(self, name: str, fn: Callable, on_result: Optional[Callable] = None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    @contextmanager
    def installed(self, boundaries):
        """Patch (module, attribute, span name[, on_result]) boundaries; undo on exit."""
        saved = []
        try:
            for module, attr, name, *hook in boundaries:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, *hook))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def _covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> its duration minus the part of it that its children cover.

    Children that ran in parallel on worker threads overlap; the union of
    their intervals is what is subtracted, so a parent that only waited on
    its pool gets a self time near zero.
    """
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - _covered(
            (max(lo, s.start), min(hi, s.end)) for lo, hi in children.get(s.id, ())
        )
        for s in spans
    }
