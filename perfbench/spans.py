"""In-memory spans recorded by the benchmark around its calls into stabkit.

A span has a name, start and end (perf_counter seconds), the index of its
parent span, the op it belongs to and the number of calls it covers. Self
time is the span's duration minus the time its child spans cover.
"""
from __future__ import annotations

import json
from contextlib import nullcontext
from time import perf_counter

_NULL = nullcontext()


def no_span(name: str, calls: int = 1):
    """Span factory used with tracing off: records nothing."""
    return _NULL


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, op, calls]
        self.op = None
        self._open: list[int] = []

    def span(self, name: str, calls: int = 1) -> "_Span":
        return _Span(self, name, calls)

    def self_times(self) -> dict[str, tuple[float, int]]:
        """name -> (total self seconds, total calls)."""
        children: dict[int, list[tuple[float, float]]] = {}
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out: dict[str, tuple[float, int]] = {}
        for i, (name, start, end, _, _, calls) in enumerate(self.spans):
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(i, ())):
                c_start = max(c_start, reach)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            total, n = out.get(name, (0.0, 0))
            out[name] = (total + (end - start) - covered, n + calls)
        return out

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op", "calls")
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(dict(zip(keys, record))) + "\n")


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: Tracer, name: str, calls: int):
        parent = tracer._open[-1] if tracer._open else None
        self.tracer = tracer
        self.record = [name, 0.0, 0.0, parent, tracer.op, calls]

    def __enter__(self):
        self.tracer._open.append(len(self.tracer.spans))
        self.tracer.spans.append(self.record)
        self.record[1] = perf_counter()
        return self

    def __exit__(self, *exc):
        self.record[2] = perf_counter()
        self.tracer._open.pop()
        return False
