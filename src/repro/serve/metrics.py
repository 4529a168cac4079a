"""Per-query metrics over one thread-safe :mod:`repro.obs` registry.

The serve layer has many request threads hitting one registry, so
:class:`ServiceMetrics` records straight into a
:class:`~repro.obs.ThreadSafeMetricsRegistry` — the locking lives in
the registry itself (one implementation, shared with anything else
that needs a fenced registry), not in a wrapper re-implementing every
mutator behind a second lock.  The only state the tracker still guards
itself is the in-flight counter, which is not a monoid value.  A
finished query's updates go in under one acquisition of the registry's
lock.

:meth:`ServiceMetrics.track` records everything a query produces:

* ``serve.requests`` and ``serve.requests.<endpoint>`` counters;
* ``serve.errors`` and ``serve.errors.<code>`` counters on failure;
* ``serve.latency_ms.<endpoint>`` histograms, bucketed to power-of-two
  millisecond upper bounds (1, 2, 4, ... ms) so they merge as monoids
  like every other histogram in the codebase;
* ``serve.latency_sum_ms.<endpoint>`` counters — exact millisecond
  sums that become the ``_sum`` series of the Prometheus histogram
  families (see :mod:`repro.obs.exposition`);
* ``serve.inflight.peak`` gauge — the high-water mark of concurrent
  in-flight queries (gauges merge by max, so a peak is the only
  faithful choice).

Latency is measured with :func:`time.perf_counter_ns`: monotonic, so a
wall-clock step (NTP, DST, a VM migration) can never produce a
negative or wildly inflated latency sample.  ``time.time()`` must not
appear in this module — durations are always differences of monotonic
readings.
"""

from __future__ import annotations

import contextlib
import threading
import time

from repro.obs import MetricsRegistry, ThreadSafeMetricsRegistry


def latency_bucket(milliseconds: float) -> int:
    """Power-of-two upper bound in ms: 0.7ms -> 1, 3ms -> 4, 9ms -> 16."""
    bucket = 1
    while bucket < milliseconds:
        bucket *= 2
    return bucket


class ServiceMetrics:
    """Request-thread metrics over one shared thread-safe registry."""

    def __init__(self) -> None:
        self.registry = ThreadSafeMetricsRegistry()
        self._inflight = 0
        self._inflight_lock = threading.Lock()

    @contextlib.contextmanager
    def track(self, endpoint: str):
        """Record one query: count, latency bucket, errors, inflight peak.

        A finished query is recorded under one acquisition of the
        registry's lock, the in-flight level it started at included (so
        the peak shows once the query that reached it has finished).
        Exceptions propagate after being counted, so the gateway still
        maps them to responses.
        """
        start_ns = time.perf_counter_ns()
        with self._inflight_lock:
            self._inflight += 1
            inflight = self._inflight
        code = None
        try:
            yield
        except Exception as exc:
            code = getattr(exc, "code", exc.__class__.__name__)
            raise
        finally:
            # max(0, ...) is belt and braces: perf_counter_ns is
            # monotonic by contract, so the guard only matters if a
            # platform clock is broken — and then we record 0, not a
            # negative latency.
            elapsed_ms = max(0, time.perf_counter_ns() - start_ns) / 1e6
            with self._inflight_lock:
                self._inflight -= 1
            registry = self.registry
            # The base class's mutators take no lock of their own.
            count = MetricsRegistry.count
            with registry._metrics_lock:
                MetricsRegistry.gauge(registry, "serve.inflight.peak",
                                      inflight)
                if code is not None:
                    count(registry, "serve.errors")
                    count(registry, f"serve.errors.{code}")
                count(registry, "serve.requests")
                count(registry, f"serve.requests.{endpoint}")
                MetricsRegistry.observe(registry,
                                        f"serve.latency_ms.{endpoint}",
                                        latency_bucket(elapsed_ms))
                count(registry, f"serve.latency_sum_ms.{endpoint}",
                      round(elapsed_ms, 6))

    def inflight(self) -> int:
        """Queries currently executing (for ``/healthz``)."""
        with self._inflight_lock:
            return self._inflight

    def snapshot(self) -> dict:
        """Point-in-time JSON-ready copy (the ``/metrics`` body)."""
        return self.registry.to_dict()


__all__ = ["ServiceMetrics", "latency_bucket"]
