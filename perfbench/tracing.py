"""In-memory span tracer for the benchmark's traced runs.

A span is (name, start, end, parent). Spans nest by call order on the one
benchmark thread, so a span's self time is its duration minus the summed
durations of its direct children. Functions are traced by replacing them
where their callers look them up: every ``truncvar`` module attribute that
is the original function object gets the wrapper, so a call from
``truncvar.cli`` and a call from ``truncvar.optimal_approx`` are both seen.
No file of the package changes, and ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Records spans while ``active``; ``install`` wraps package functions."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self.round = None  # set by the run loop: which (cycle, request) is running
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, func, measure=None):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(idx)
            if measure is not None:
                try:
                    tracer.spans[idx].attrs = measure(tracer, args, result)
                except Exception:  # a changed signature loses the counts, not the call
                    pass
            return result

        return traced

    def install(self, layers) -> None:
        """Wrap each ``(span_name, module, attr, measure)`` at every binding.

        A function the package no longer has is skipped; its layer reads 0.
        """
        modules = [
            m for key, m in list(sys.modules.items())
            if key == "truncvar" or key.startswith("truncvar.")
        ]
        for name, modname, attr, measure in layers:
            orig = getattr(sys.modules.get(modname), attr, None)
            if orig is None:
                continue
            wrapped = self.wrap(name, orig, measure)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        self._installed.append((mod, key, orig))

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._installed):
            setattr(mod, key, orig)
        self._installed.clear()

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def layer_stats(spans: list[Span]) -> dict[str, LayerStats]:
    """Per span name: call count, inclusive time and self time."""
    child_s = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_s[s.parent] += s.end - s.start
    stats: dict[str, LayerStats] = {}
    for i, s in enumerate(spans):
        st = stats.setdefault(s.name, LayerStats())
        st.calls += 1
        st.total_s += s.end - s.start
        st.self_s += (s.end - s.start) - child_s[i]
    return stats


def has_ancestor(spans: list[Span], idx: int, name: str) -> bool:
    p = spans[idx].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False
