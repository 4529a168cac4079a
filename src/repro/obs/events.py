"""Structured observability events and a scoped hook to collect them.

:func:`emit` / :func:`collecting` form a per-thread collection scope.
Instrumented code deep in the analysis engine (index-table memo builds,
service-level memo hits) calls :func:`emit`; when no scope is active
this is a single thread-local read and a ``None`` check, cheap enough
for hot paths and — by the zero-perturbation rule — never influencing
what the instrumented code computes.  The serve request tracer opens a
scope around dispatch and folds whatever was emitted into the
request's span tags.  An event carries what happened, not when: the
span it is folded into holds the timing.
"""

from __future__ import annotations

import dataclasses
import threading
from contextlib import contextmanager
from typing import Any, Iterator, Optional


@dataclasses.dataclass(frozen=True)
class Event:
    """One observability event: a kind and a payload."""

    #: Dotted kind string (``"memo.build"``, ``"memo.hit"``).
    kind: str
    #: Free-form, JSON-ready details.
    payload: dict[str, Any]


_SCOPE = threading.local()


def emit(kind: str, **payload: Any) -> None:
    """Record an event into the thread's active collection scope.

    A no-op (one thread-local read) when no scope is active, so
    instrumentation points on warm paths cost almost nothing and never
    perturb what the instrumented code computes.
    """
    sink = getattr(_SCOPE, "sink", None)
    if sink is not None:
        sink.append(Event(kind=kind, payload=payload))


@contextmanager
def collecting(sink: Optional[list[Event]] = None
               ) -> Iterator[list[Event]]:
    """Collect every :func:`emit` on this thread into ``sink``.

    Scopes nest: the previous sink is restored on exit, so a traced
    request inside a traced request (or a test inside a test) keeps
    events where they belong.
    """
    if sink is None:
        sink = []
    previous = getattr(_SCOPE, "sink", None)
    _SCOPE.sink = sink
    try:
        yield sink
    finally:
        _SCOPE.sink = previous


__all__ = [
    "Event",
    "collecting",
    "emit",
]
