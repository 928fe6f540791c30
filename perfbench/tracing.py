"""In-memory spans around the benchmark's calls into each layer.

A span records its name, start, end, parent span and op id. Spans stay in
memory while the run measures and are written out once, when it ends.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None, int]] = []
        self._stack: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str, op: int):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent, op))

    def durations(self, name: str) -> list[float]:
        return [end - start for _, n, start, end, _, _ in self.spans
                if n == name]

    def median(self, name: str) -> float:
        """Median duration in seconds of every span called ``name``."""
        d = self.durations(name)
        if not d:
            raise ValueError(f"no span named {name!r} was recorded")
        return statistics.median(d)

    def write(self, path: Path) -> None:
        with open(path, "w") as f:
            for sid, name, start, end, parent, op in sorted(self.spans):
                f.write(json.dumps({"id": sid, "name": name, "start": start,
                                    "end": end, "parent": parent,
                                    "op": op}) + "\n")
