"""Request-scoped tracing for the serve layer.

When the gateway is started with a trace directory, every HTTP query
is executed under its own :class:`~repro.obs.Tracer` and the finished
span tree — the gateway's ``serve.request`` wrapping the service's
``parse``, ``dispatch`` and ``render`` (the JSON encoding of a missed
answer, or the hand-back of a stored body), with the dispatch span
tagged by the index-table memo builds and hits it triggered and by
where the body came from — is written to a
**bounded on-disk ring**: slot files ``request-NNNN.json`` reused
modulo the ring size, so an always-on server traces every request with
a hard cap on disk.  Each slot is replaced whole (a temp sibling and
``os.replace``), so a failed write leaves the slot's previous document.

Requests slower than the slow threshold are additionally appended to
``slow-queries.jsonl`` (append-only, one JSON object per line — the
file a human greps first when p99 moves).

Zero-perturbation contract: traced and untraced requests run the same
code, which opens its spans through :func:`null_span` when there is no
tracer; spans measure with monotonic clocks only, and nothing they
record feeds back into the response — traced responses are
byte-identical to untraced ones (``tests/serve/test_tracing.py`` holds
the gateway to this).
"""

from __future__ import annotations

import json
import pathlib
import threading
import time
from contextlib import nullcontext
from typing import Any, Optional, Union

from repro.io import open_replacement
from repro.obs import Tracer

PathLike = Union[str, pathlib.Path]

#: Version marker written into every per-request trace document.
REQUEST_TRACE_FORMAT_VERSION = 1

#: Default number of slot files in the on-disk ring.
DEFAULT_TRACE_RING = 128

#: Default slow-query threshold in milliseconds.
DEFAULT_SLOW_MS = 250.0

#: Name of the append-only slow-query log inside the trace directory.
SLOW_LOG_NAME = "slow-queries.jsonl"


def _slot_name(slot: int) -> str:
    return f"request-{slot:04d}.json"


class RequestTraceLog:
    """Bounded ring of per-request traces plus a slow-query log.

    Thread-safe: request threads finish at arbitrary times, so slot
    assignment, slot writes and slow-log appends all run under one
    lock.  Writes happen strictly *after* the response is computed
    (the gateway records once the answer bytes exist), so even a slow
    disk cannot perturb answers — only delay the connection close.
    """

    def __init__(self, directory: PathLike, *,
                 ring_size: int = DEFAULT_TRACE_RING,
                 slow_ms: float = DEFAULT_SLOW_MS) -> None:
        if ring_size < 1:
            raise ValueError(f"ring_size must be >= 1, got {ring_size}")
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.ring_size = ring_size
        self.slow_ms = slow_ms
        self.slow_log_path = self.directory / SLOW_LOG_NAME
        self._lock = threading.Lock()
        self._next_seq = 0

    # ----------------------------------------------------------- writing

    def record(self, endpoint: str, *, payload: Any, tracer: Tracer,
               duration_ms: float, status: int,
               error: Optional[dict] = None) -> pathlib.Path:
        """Persist one finished request trace; returns the slot path."""
        with self._lock:
            seq = self._next_seq
            self._next_seq += 1
        document = {
            "format": REQUEST_TRACE_FORMAT_VERSION,
            "seq": seq,
            "endpoint": endpoint,
            "payload": payload,
            "status": status,
            "duration_ms": round(duration_ms, 4),
            "error": error,
            "trace": tracer.to_dict(),
        }
        path = self.directory / _slot_name(seq % self.ring_size)
        body = json.dumps(document, sort_keys=True) + "\n"
        with self._lock:
            with open_replacement(path) as handle:
                handle.write(body)
            if duration_ms >= self.slow_ms:
                summary = {
                    "seq": seq,
                    "endpoint": endpoint,
                    "payload": payload,
                    "status": status,
                    "duration_ms": round(duration_ms, 4),
                    "slot": path.name,
                }
                with open(self.slow_log_path, "a",
                          encoding="utf-8") as handle:
                    handle.write(json.dumps(summary, sort_keys=True) + "\n")
        return path

    # ----------------------------------------------------------- reading

    @property
    def recorded(self) -> int:
        """Total requests recorded since this log was opened."""
        with self._lock:
            return self._next_seq

    def traces(self) -> list[dict]:
        """Every trace currently in the ring, oldest first by seq."""
        documents = []
        for path in sorted(self.directory.glob("request-*.json")):
            documents.append(
                json.loads(path.read_text(encoding="utf-8")))
        documents.sort(key=lambda doc: doc["seq"])
        return documents

    def slow_queries(self) -> list[dict]:
        """Parsed slow-query log entries, in append order."""
        if not self.slow_log_path.exists():
            return []
        entries = []
        for line in self.slow_log_path.read_text(
                encoding="utf-8").splitlines():
            if line.strip():
                entries.append(json.loads(line))
        return entries


def null_span(name: str, **tags) -> nullcontext:
    """Span stand-in for untraced requests (no scope allocated)."""
    return nullcontext()


def measure_ms(start_ns: int) -> float:
    """Monotonic milliseconds elapsed since a perf_counter_ns reading."""
    return max(0, time.perf_counter_ns() - start_ns) / 1e6


__all__ = [
    "DEFAULT_SLOW_MS",
    "DEFAULT_TRACE_RING",
    "REQUEST_TRACE_FORMAT_VERSION",
    "SLOW_LOG_NAME",
    "RequestTraceLog",
    "measure_ms",
    "null_span",
]
