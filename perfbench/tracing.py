"""In-memory span tracer for the traced benchmark run.

Spans are recorded around calls into each layer's public functions.
The calls are wrapped from the benchmark's side: :func:`patched`
replaces a function in the namespace that calls it, for the duration
of a ``with`` block, and restores it afterwards.  Nothing in the
program under test is edited.

A span's *self time* is its duration minus the time covered by the
spans it caused (its direct children).  The program is single-threaded
on the benchmark's side, so a stack is enough to find the parent.
"""
from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index into Tracer.spans, -1 for a root span
    child_s: float = 0.0  # summed duration of direct children

    @property
    def duration_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration_s - self.child_s


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(idx)
        try:
            yield
        finally:
            s = self.spans[idx]
            s.end = time.perf_counter()
            self._stack.pop()
            if parent >= 0:
                self.spans[parent].child_s += s.duration_s

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recorded as span ``name``; ``on_result(args, kwargs,
        result)`` sees every call's result (for counters)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if on_result is not None:
                on_result(args, kwargs, out)
            return out

        return traced

    # -- aggregation -------------------------------------------------
    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total_s(self, name: str) -> float:
        return sum(s.duration_s for s in self.named(name))

    def self_total_s(self, name: str) -> float:
        return sum(s.self_s for s in self.named(name))

    def under(self, name: str, parent_name: str) -> list[Span]:
        """Spans ``name`` whose direct parent is a ``parent_name`` span."""
        return [
            s
            for s in self.named(name)
            if s.parent >= 0 and self.spans[s.parent].name == parent_name
        ]


@contextlib.contextmanager
def patched(replacements):
    """Temporarily set ``(owner, attr, value)`` attributes; restore on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
