"""Spans, counters and gauges recorded around the benchmark's calls into anomkit.

A span is (name, start, end, parent). Names are `<module>.<function>` of the
anomkit call it wraps, or a root name (`fit`, `screen`) for one operation.
Everything stays in memory until the run ends. `NullTracer` is what the
untraced runs use: the same call sites, with nothing recorded.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = {}
        self.gauges = {}
        self._open = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else -1])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def set(self, name, value):
        self.gauges[name] = value

    def has(self, name):
        return (any(s[0] == name for s in self.spans) or name in self.counts
                or name in self.gauges)

    def total(self, name):
        """Summed duration of every span called `name`."""
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def coverage(self, root):
        """Share of the `root` spans' wall time covered by their direct children."""
        roots = {i: s[2] - s[1] for i, s in enumerate(self.spans) if s[0] == root}
        covered = sum(s[2] - s[1] for s in self.spans if s[3] in roots)
        wall = sum(roots.values())
        return covered / wall if wall > 0 else 0.0

    def records(self):
        return [{"name": n, "start": a, "end": b, "parent": p} for n, a, b, p in self.spans]


class NullTracer:
    def span(self, name):
        return nullcontext()

    def add(self, name, value):
        pass

    def set(self, name, value):
        pass
