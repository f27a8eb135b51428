"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, run id). Spans are kept in memory while
the workload runs and written out once it ends, so the trace adds no file
I/O to the timed code. Spans are only placed around the benchmark's own
calls into masksched's public functions; nothing inside the library is
instrumented.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    error: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Nested spans on one thread; a span's parent is the span open around it."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self.run_id)
        self.spans.append(record)
        self._open.append(record.id)
        try:
            yield record
        except BaseException:
            record.error = True
            raise
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover.

        Children of one span run one after another on the same thread, so
        their intervals never overlap and the covered time is their sum.
        """
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        return [s.duration - child_time[s.id] for s in self.spans]

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, errors, busy and self time (median, p90) in ms."""
        self_t = self.self_times()
        by_name: dict[str, list[int]] = {}
        for s in self.spans:
            by_name.setdefault(s.name, []).append(s.id)
        out = {}
        for name, ids in sorted(by_name.items()):
            busy = np.array([self.spans[i].duration for i in ids]) * 1000.0
            own = np.array([self_t[i] for i in ids]) * 1000.0
            out[name] = {
                "calls": len(ids),
                "errors": sum(self.spans[i].error for i in ids),
                "busy_ms_p50": float(np.median(busy)),
                "busy_ms_p90": float(np.percentile(busy, 90)),
                "busy_ms_total": float(busy.sum()),
                "self_ms_p50": float(np.median(own)),
                "self_ms_total": float(own.sum()),
            }
        return out

    def write(self, spans_path: str, summary_path: str) -> None:
        with open(spans_path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(self.summary(), fh, indent=1, sort_keys=True)
