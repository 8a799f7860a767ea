"""In-memory spans recorded around calls into the program's layers.

A span has a name, a start, an end and the span that was open when it
started.  Self time is a span's duration minus the time its child spans
cover.  Hot loops (one span per insert) would fill memory with raw
spans, so every span is folded into per-name totals as it closes and
only the first ``keep`` raw spans are kept for the run artifact.

``NullTracer`` has the same interface and records nothing; the untraced
run uses it so its end-to-end numbers carry no tracing cost.
"""
from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    enabled = True

    def __init__(self, keep: int = 20_000) -> None:
        self.keep = keep
        #: closed spans as (id, name, start, end, parent id or -1)
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.dropped = 0
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        # open spans: [name, start, child time, raw-span id]
        self._stack: list[list] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1][3] if self._stack else -1
        sid = self._next_id
        self._next_id += 1
        frame = [name, time.perf_counter(), 0.0, sid]
        self._stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            dur = end - frame[1]
            self.total[name] = self.total.get(name, 0.0) + dur
            self.self_time[name] = self.self_time.get(name, 0.0) + dur - frame[2]
            self.calls[name] = self.calls.get(name, 0) + 1
            if self._stack:
                self._stack[-1][2] += dur
            if len(self.spans) < self.keep:
                self.spans.append((sid, name, frame[1], end, parent))
            else:
                self.dropped += 1

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def dump(self) -> dict:
        return {
            "per_name": {
                n: {"calls": self.calls[n], "total_s": self.total[n],
                    "self_s": self.self_time[n]}
                for n in sorted(self.total)
            },
            "spans": [
                {"id": i, "name": n, "start": s, "end": e, "parent": p}
                for i, n, s, e, p in self.spans
            ],
            "spans_dropped": self.dropped,
        }


class NullTracer:
    enabled = False

    @contextmanager
    def span(self, name: str):
        yield

    def wrap(self, name: str, fn):
        return fn

    def dump(self) -> dict:
        return {}
