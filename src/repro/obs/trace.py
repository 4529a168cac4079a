"""Structured tracing: nested spans over the pipeline's stages.

A :class:`Span` is one timed region of work — ``pipeline.run``, one
country's ``scan``, the ``crawl`` inside it, one geolocation step —
with a name, free-form tags and a list of child spans.  A
:class:`Tracer` hands out spans through a context manager, keeps a
per-thread stack so nesting is correct even when several threads trace
at once, and buffers every completed top-level span for export.

Zero-perturbation contract
--------------------------
Tracing must never change what the pipeline computes.  Spans therefore
draw **only** from :func:`time.perf_counter` — no RNG, no wall-clock
reads on the measurement path, no interaction with the fault layer's
simulated clock — and no measured value ever feeds back into pipeline
state.  The byte-identity suite (``tests/obs/``) holds every executor
to this.

Exports: :meth:`Tracer.to_dict` is the canonical JSON layout (nested
spans with seconds relative to the trace origin); :meth:`Tracer.to_chrome`
renders the same tree as Chrome ``trace_event`` complete events, so a
trace file drops straight into ``about://tracing`` / Perfetto.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from contextlib import contextmanager
from typing import Any, Iterator, Optional

#: Version marker written into every trace export.
TRACE_FORMAT_VERSION = 1


@dataclasses.dataclass
class Span:
    """One timed region of pipeline work.

    Times are raw :func:`time.perf_counter` readings; exports rebase
    them onto the trace origin so they are meaningful across processes.
    """

    name: str
    start_s: float
    end_s: float = 0.0
    tags: dict[str, Any] = dataclasses.field(default_factory=dict)
    children: list["Span"] = dataclasses.field(default_factory=list)

    @property
    def duration_s(self) -> float:
        """Elapsed seconds (0.0 while the span is still open)."""
        return max(0.0, self.end_s - self.start_s)

    def finish(self) -> "Span":
        """Close the span now (idempotent once closed)."""
        if self.end_s == 0.0:
            self.end_s = time.perf_counter()
        return self

    def child(self, name: str, **tags: Any) -> "Span":
        """Open a child span starting now."""
        span = Span(name=name, start_s=time.perf_counter(), tags=dict(tags))
        self.children.append(span)
        return span

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> Optional["Span"]:
        """First descendant (or self) with ``name``, depth-first."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def to_dict(self, origin_s: float) -> dict:
        """Nested JSON form with times relative to ``origin_s``."""
        return {
            "name": self.name,
            "start_s": round(self.start_s - origin_s, 6),
            "duration_s": round(self.duration_s, 6),
            "tags": dict(self.tags),
            "children": [child.to_dict(origin_s) for child in self.children],
        }


class Tracer:
    """Thread-safe span factory and buffer.

    Spans opened on the same thread nest through a thread-local stack;
    spans recorded elsewhere (a worker's scan scope) are grafted by
    :meth:`~repro.obs.Observability.absorb_scan`.  The buffer only ever
    grows by whole, finished top-level spans, so an export taken at any
    time is well-formed.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: Completed top-level spans, in completion order.
        self.roots: list[Span] = []
        #: perf_counter reading all exported times are relative to.
        self.origin_s = time.perf_counter()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **tags: Any) -> Iterator[Span]:
        """Open a span nested under the thread's current span."""
        span = Span(name=name, start_s=time.perf_counter(), tags=dict(tags))
        stack = self._stack()
        if stack:
            stack[-1].children.append(span)
        stack.append(span)
        try:
            yield span
        finally:
            span.finish()
            stack.pop()
            if not stack:
                with self._lock:
                    self.roots.append(span)

    def find(self, name: str) -> Optional[Span]:
        """First buffered span with ``name``, depth-first over roots."""
        for root in self.roots:
            found = root.find(name)
            if found is not None:
                return found
        return None

    # ------------------------------------------------------------- exports

    def to_dict(self) -> dict:
        """Canonical JSON layout: nested spans, seconds from origin."""
        return {
            "format": TRACE_FORMAT_VERSION,
            "spans": [root.to_dict(self.origin_s) for root in self.roots],
        }

    def to_chrome(self) -> dict:
        """The span tree as Chrome ``trace_event`` complete events.

        Every span becomes one ``"ph": "X"`` event with microsecond
        timestamps relative to the trace origin; load the file in
        ``about://tracing`` or https://ui.perfetto.dev to browse it.
        """
        events = []
        for root in self.roots:
            for span in root.walk():
                events.append({
                    "name": span.name,
                    "ph": "X",
                    "ts": round((span.start_s - self.origin_s) * 1e6, 1),
                    "dur": round(span.duration_s * 1e6, 1),
                    "pid": 0,
                    "tid": 0,
                    "args": dict(span.tags),
                })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


__all__ = ["TRACE_FORMAT_VERSION", "Span", "Tracer"]
