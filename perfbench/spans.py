"""In-memory spans recorded around the benchmark's calls into ipscale.

A span has a name, a start, an end, the span that encloses it and the id of
the operation it belongs to; counts recorded at the same boundary ride on
the span.  Nothing is written until the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op: str | None = None

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name, "op": self.op,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, "attrs": dict(attrs)}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec["attrs"]
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    @contextmanager
    def operation(self, op: str):
        prev, self.op = self.op, op
        try:
            with self.span(f"op.{op}"):
                yield
        finally:
            self.op = prev

    def seconds(self, name: str, op: str | None = None) -> float:
        """Summed duration of the spans with this name (optionally in one op)."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name and (op is None or s["op"] == op))

    def find(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def self_seconds(self) -> dict[str, float]:
        """Per span name: duration minus the time covered by child spans."""
        child = {}
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            own = s["end"] - s["start"] - child.get(s["id"], 0.0)
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out


def span_cost(n: int = 20_000) -> float:
    """Seconds one span adds to the code it wraps."""
    tracer = Tracer()
    t0 = time.perf_counter()
    for _ in range(n):
        with tracer.span("probe"):
            pass
    return (time.perf_counter() - t0) / n
