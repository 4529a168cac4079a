"""Serve metrics clock discipline and the shared thread-safe registry."""

import inspect
import sys
import threading

import pytest

import repro.serve.metrics as metrics_module
from repro.obs import MetricsRegistry, ThreadSafeMetricsRegistry
from repro.serve.metrics import ServiceMetrics, latency_bucket


# ------------------------------------------------------ monotonic clock


def test_module_never_reads_the_wall_clock():
    # Durations must be differences of monotonic readings; a wall-clock
    # read creeping back in is exactly the regression this guards.
    # (AST-level so docstrings may still *mention* the rule.)
    import ast

    source = inspect.getsource(metrics_module)
    wall_reads = [
        node for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "time"
        and isinstance(node.value, ast.Name) and node.value.id == "time"
    ]
    assert wall_reads == []
    assert "perf_counter_ns" in source


def test_backwards_wall_clock_cannot_corrupt_latency(monkeypatch):
    # An NTP step or DST shift moves time.time() backwards; latency
    # accounting must not notice.
    wall = iter([1_000_000.0, 999_000.0, 998_000.0, 997_000.0])
    monkeypatch.setattr(metrics_module.time, "time",
                        lambda: next(wall), raising=True)
    tracker = ServiceMetrics()
    with tracker.track("summary"):
        pass
    snapshot = tracker.snapshot()
    assert snapshot["counters"]["serve.requests"] == 1
    assert snapshot["counters"]["serve.latency_sum_ms.summary"] >= 0
    buckets = snapshot["histograms"]["serve.latency_ms.summary"]
    assert sum(buckets.values()) == 1
    assert all(int(bound) >= 1 for bound in buckets)


def test_frozen_monotonic_clock_records_zero_not_negative(monkeypatch):
    readings = iter([5_000_000, 5_000_000])  # start == end
    monkeypatch.setattr(metrics_module.time, "perf_counter_ns",
                        lambda: next(readings), raising=True)
    tracker = ServiceMetrics()
    with tracker.track("summary"):
        pass
    assert tracker.snapshot()["counters"][
        "serve.latency_sum_ms.summary"] == 0


# ----------------------------------------------- the shared registry


def test_service_metrics_uses_the_shared_thread_safe_registry():
    tracker = ServiceMetrics()
    assert isinstance(tracker.registry, ThreadSafeMetricsRegistry)
    # No wrapper re-implementing mutators behind a second lock: the
    # tracker's only private lock guards the non-monoid inflight count.
    private_locks = [name for name, value in vars(tracker).items()
                     if "lock" in name.lower()]
    assert private_locks == ["_inflight_lock"]


def test_thread_safe_registry_is_the_same_monoid():
    safe = ThreadSafeMetricsRegistry()
    plain = MetricsRegistry()
    for registry in (safe, plain):
        registry.count("serve.requests", 3)
        registry.gauge("serve.inflight.peak", 2)
        registry.observe("serve.latency_ms.summary", 4, 5)
    assert safe.to_dict() == plain.to_dict()
    assert safe == plain


def test_thread_safe_merge_in_does_not_deadlock():
    # merge_in holds the registry lock while dispatching back through
    # the overridden mutators; a non-reentrant lock would hang here.
    safe = ThreadSafeMetricsRegistry()
    other = MetricsRegistry()
    other.count("serve.requests", 2)
    other.gauge("serve.inflight.peak", 9)
    other.observe("serve.latency_ms.summary", 1, 1)
    done = threading.Event()

    def merge():
        safe.merge_in(other)
        done.set()

    thread = threading.Thread(target=merge, daemon=True)
    thread.start()
    assert done.wait(timeout=10), "merge_in deadlocked"
    assert safe.counter("serve.requests") == 2


def test_concurrent_tracking_is_exact():
    # A tiny switch interval makes a thread switch inside an unlocked
    # read-modify-write of a counter likely, so a lost update shows.
    tracker = ServiceMetrics()

    def hammer():
        for _ in range(3000):
            with tracker.track("summary"):
                pass

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    snapshot = tracker.snapshot()
    assert snapshot["counters"]["serve.requests"] == 24000
    assert snapshot["counters"]["serve.requests.summary"] == 24000
    assert sum(snapshot["histograms"][
        "serve.latency_ms.summary"].values()) == 24000
    assert tracker.inflight() == 0
    assert snapshot["gauges"]["serve.inflight.peak"] >= 1


def test_errors_are_counted_and_reraised():
    tracker = ServiceMetrics()

    class Boom(Exception):
        code = "boom"

    with pytest.raises(Boom):
        with tracker.track("summary"):
            raise Boom()
    snapshot = tracker.snapshot()
    assert snapshot["counters"]["serve.errors"] == 1
    assert snapshot["counters"]["serve.errors.boom"] == 1
    # The failed query is still latency-accounted.
    assert snapshot["counters"]["serve.requests"] == 1


def test_latency_bucket_powers_of_two():
    assert latency_bucket(0.3) == 1
    assert latency_bucket(1.0) == 1
    assert latency_bucket(1.1) == 2
    assert latency_bucket(9.0) == 16
