"""Spans recorded by the benchmark around its own calls into geamkit.

A span holds its name, start, end, parent span, operation id and the
dimension d of its inputs. Spans stay in memory and are written as JSONL
when the run ends. With the tracer disabled, span() returns a shared
no-op context, so the untraced run pays one attribute test per call.
"""

import contextlib
import json
import statistics
from time import perf_counter

_NULL = contextlib.nullcontext()
COST_SPANS = 20_000
COST_REPEATS = 5


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op = None
        self.spans = []
        self._open = []

    def span(self, name: str, d: int, **attrs):
        return self._record(name, d, attrs) if self.enabled else _NULL

    @contextlib.contextmanager
    def _record(self, name, d, attrs):
        span = {"id": len(self.spans), "name": name, "d": d, "op": self.op,
                "parent": self._open[-1]["id"] if self._open else None, **attrs}
        self.spans.append(span)
        self._open.append(span)
        span["start"] = perf_counter()
        try:
            yield
        finally:
            span["end"] = perf_counter()
            self._open.pop()

    def recorded(self) -> set:
        """(name, d) pairs with at least one span."""
        return {(s["name"], s["d"]) for s in self.spans}

    def durations_ms(self, name: str, d: int, **attrs) -> list[float]:
        return [(s["end"] - s["start"]) * 1e3 for s in self.spans
                if s["name"] == name and s["d"] == d
                and all(s.get(k) == v for k, v in attrs.items())]

    def median_ms(self, name: str, d: int, **attrs) -> float:
        values = self.durations_ms(name, d, **attrs)
        if not values:
            raise RuntimeError(f"no span {name} at d = {d}")
        return statistics.median(values)

    def write_jsonl(self, path, origin: float):
        """Times relative to origin, in seconds; self_s is the duration minus
        the time covered by child spans."""
        child_s = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_s[s["parent"]] = child_s.get(s["parent"], 0.0) + s["end"] - s["start"]
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                row = dict(s, start=s["start"] - origin, end=s["end"] - origin,
                           self_s=s["end"] - s["start"] - child_s.get(s["id"], 0.0))
                fh.write(json.dumps(row) + "\n")


def cost_s() -> float:
    """Seconds one recorded span adds to the call it wraps: the median over
    COST_REPEATS batches of COST_SPANS empty spans on a fresh tracer."""
    batches = []
    for _ in range(COST_REPEATS):
        tracer = Tracer()
        tracer.enabled = True
        start = perf_counter()
        for _ in range(COST_SPANS):
            with tracer.span("cost", 0):
                pass
        batches.append((perf_counter() - start) / COST_SPANS)
    return statistics.median(batches)
