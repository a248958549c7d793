"""In-memory spans around the benchmark's own calls into fractoid.

A span records its name, start, end, parent span and the pass (run id) it
belongs to, plus the counts its caller attaches at the same boundary.
Spans stay in memory until the run ends.  A disabled tracer records
nothing, so untraced passes pay only for entering a context manager.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.run_id = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, cpu: bool = False, memory: bool = False):
        """Time the body; yields a dict the caller fills with counts.

        cpu adds process CPU time (all threads), memory adds the tracemalloc
        peak of the body in MB.
        """
        counts: dict = {}
        if not self.enabled:
            yield counts
            return
        record = {"name": name, "run": self.run_id,
                  "parent": self._open[-1] if self._open else None,
                  "counts": counts}
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        if memory:
            tracemalloc.start()
        cpu0 = time.process_time()
        record["start"] = time.perf_counter()
        try:
            yield counts
        finally:
            record["end"] = time.perf_counter()
            if cpu:
                record["cpu_s"] = time.process_time() - cpu0
            if memory:
                record["peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
                tracemalloc.stop()
            self._open.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        out = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out

    def metrics(self) -> dict[str, float]:
        """Per-name totals: ``<name>.s`` (self time), ``.cpu_s``, ``.peak_mb``
        and ``.<count>`` for every attached count."""
        out: dict[str, float] = {}
        for span, self_s in zip(self.spans, self.self_times()):
            name = span["name"]
            values = {"s": self_s, **span["counts"]}
            for key in ("cpu_s", "peak_mb"):
                if key in span:
                    values[key] = span[key]
            for key, value in values.items():
                out[f"{name}.{key}"] = out.get(f"{name}.{key}", 0.0) + float(value)
        return out
