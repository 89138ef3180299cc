"""Spans and counts recorded from the benchmark's own code.

A span is recorded around each call the benchmark makes into a public
function of the library (or into a CLI child process): name, start, end,
parent span and op id. Spans stay in memory until the run ends. Nothing
inside the library is instrumented.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class Tracer:
    """Span recorder for one run; ``enabled=False`` records no spans.

    Counts are kept either way, because they cost nothing measurable and
    the traced and untraced passes then run identical benchmark code.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.op: int | None = None
        self.spans: list[tuple[str, float, float, int | None, int | None]] = []
        self.counts: Counter = Counter()
        self.peaks: dict[str, int] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((name, 0.0, 0.0, parent, self.op))
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op)

    def wrap(self, name: str, fn):
        """``fn`` itself when disabled, else ``fn`` inside a span named ``name``."""
        if not self.enabled:
            return fn

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def peak(self, name: str, value: int) -> None:
        self.peaks[name] = max(self.peaks.get(name, 0), value)

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Per layer: total self time (duration minus the time its child
        spans cover) and number of spans. A span named ``layer:function``
        counts towards ``layer``. One caller and one thread, so child spans
        never overlap and their durations simply add up."""
        child_time = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for index, (name, start, end, _, _) in enumerate(self.spans):
            layer = name.partition(":")[0]
            totals[layer] += (end - start) - child_time[index]
            calls[layer] += 1
        return totals, calls

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                    )
                    + "\n"
                )
