"""Query-service throughput: closed-loop load against a warm service.

N client threads (``REPRO_BENCH_SERVE_THREADS``, default 8) each issue
``REPRO_BENCH_SERVE_ROUNDS`` (default 25) passes over a mixed query
workload against one in-process :class:`~repro.serve.DatasetService`
-- closed loop: every thread waits for its answer before sending the
next query, so sustained RPS is what a saturated synchronous client
pool actually gets, not an open-loop arrival-rate fiction.

The HTTP leg sends the same workload as GET requests to a loopback
gateway (``create_server``) over the same service: once from one client
on one keep-alive connection, sequentially, then from N closed-loop
clients, each on its own keep-alive connection.  Clients and server
share one interpreter, so the N-client latencies include waiting for
it.

Archived as ``BENCH_serve.json``: sustained RPS + p50/p95/p99 latency
per the whole workload and per endpoint, and under ``http`` the
sequential and N-client latency summaries, RPS and request count.
Gates:

* every concurrent response is byte-identical to the serial pass over
  the same service (the consistency guarantee under load), and so is
  every HTTP body;
* the served ``full`` report fragment equals the batch
  ``render_paper_report`` output byte-for-byte;
* the service's own request counter agrees with the generator.
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time
import urllib.parse
from concurrent.futures import ThreadPoolExecutor

from conftest import BENCH_SCALE, BENCH_SEED, write_bench_json

from repro.reporting.paper_report import render_paper_report
from repro.serve import DatasetService, create_server

THREADS = int(os.environ.get("REPRO_BENCH_SERVE_THREADS", "8"))
ROUNDS = int(os.environ.get("REPRO_BENCH_SERVE_ROUNDS", "25"))

#: The throughput workload leans on the cheap aggregate queries (the
#: realistic steady state); the expensive ``full`` report is checked
#: for byte-equality separately rather than skewing the latency mix.
WORKLOAD = [
    ("summary", {}),
    ("categories", {"country": "US"}),
    ("categories", {"country": "DE", "weighting": "bytes"}),
    ("crossborder", {"sources": "US,FR"}),
    ("crossborder", {"basis": "registration", "sources": "BR"}),
    ("providers", {"top": 10}),
    ("report", {"section": "summary"}),
    ("report", {"section": "providers"}),
]


def _canonical(result: dict) -> str:
    return json.dumps(result, sort_keys=True)


def _percentile(sorted_values: list, fraction: float) -> float:
    if not sorted_values:
        return 0.0
    position = int(round(fraction * (len(sorted_values) - 1)))
    return sorted_values[position]


def _latency_summary(latencies_ms: list) -> dict:
    ordered = sorted(latencies_ms)
    return {
        "p50_ms": round(_percentile(ordered, 0.50), 4),
        "p95_ms": round(_percentile(ordered, 0.95), 4),
        "p99_ms": round(_percentile(ordered, 0.99), 4),
        "max_ms": round(ordered[-1], 4) if ordered else 0.0,
        "count": len(ordered),
    }


def _run_clients(threads: int, expected: list, open_client) -> tuple:
    """``threads`` closed-loop clients, each making ``ROUNDS`` staggered
    passes over ``WORKLOAD``.

    ``open_client()`` returns one client's ``(ask, close)``:
    ``ask(position)`` answers ``WORKLOAD[position]``, compared against
    ``expected[position]``.  Returns (latencies in ms by workload
    position, duration in s, mismatched (client, position) pairs).
    """
    barrier = threading.Barrier(threads)
    mismatches: list = []

    def client(worker_id: int):
        ask, close = open_client()
        latencies = [[] for _ in WORKLOAD]
        try:
            barrier.wait()
            for round_number in range(ROUNDS):
                for offset in range(len(WORKLOAD)):
                    position = (worker_id + round_number + offset) \
                        % len(WORKLOAD)
                    start = time.perf_counter()
                    answer = ask(position)
                    latencies[position].append(
                        (time.perf_counter() - start) * 1000.0
                    )
                    if answer != expected[position]:
                        mismatches.append((worker_id, position))
        finally:
            close()
        return latencies

    started = time.perf_counter()
    with ThreadPoolExecutor(max_workers=threads) as pool:
        per_thread = list(pool.map(client, range(threads)))
    duration_s = time.perf_counter() - started
    by_position = [
        [ms for thread in per_thread for ms in thread[position]]
        for position in range(len(WORKLOAD))
    ]
    return by_position, duration_s, mismatches


def _http_leg(service: DatasetService, serial: list) -> dict:
    """``WORKLOAD`` over loopback HTTP, sequentially on one keep-alive
    connection and then from ``THREADS`` keep-alive clients."""
    paths = [f"/v1/{endpoint}?{urllib.parse.urlencode(query)}"
             for endpoint, query in WORKLOAD]
    expected = [answer.encode("utf-8") for answer in serial]
    server = create_server(service, workers=THREADS)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()

    def open_client():
        conn = http.client.HTTPConnection(*server.server_address[:2],
                                          timeout=30)

        def ask(position: int):
            conn.request("GET", paths[position])
            response = conn.getresponse()
            body = response.read()
            return body if response.status == 200 else None

        return ask, conn.close

    try:
        sequential, _, sequential_mismatches = _run_clients(
            1, expected, open_client)
        by_position, duration_s, mismatches = _run_clients(
            THREADS, expected, open_client)
    finally:
        server.shutdown()
        server.server_close()  # not close(): the service stays open
        thread.join(timeout=5)
    assert not sequential_mismatches and not mismatches, \
        f"HTTP bodies diverged from serial: " \
        f"{(sequential_mismatches + mismatches)[:5]}"
    latencies = [ms for position in by_position for ms in position]
    return {
        "sequential": _latency_summary(
            [ms for position in sequential for ms in position]),
        "latency": _latency_summary(latencies),
        "rps": round(len(latencies) / duration_s if duration_s else 0.0,
                     2),
        "requests": len(latencies),
        "identical_to_serial": True,
    }


def test_serve_throughput(bench_dataset, report):
    service = DatasetService(bench_dataset)

    # Serial reference pass: the byte-identity baseline and the warmup
    # (after this, every memoized table is hot -- steady state).
    serial = [_canonical(service.query(endpoint, payload))
              for endpoint, payload in WORKLOAD]
    served_full = service.query("report", {"section": "full"})["text"]
    assert served_full == render_paper_report(bench_dataset)
    warmup_requests = len(WORKLOAD) + 1

    def open_client():
        def ask(position: int) -> str:
            endpoint, payload = WORKLOAD[position]
            return _canonical(service.query(endpoint, payload))

        return ask, lambda: None

    by_position, duration_s, mismatches = _run_clients(
        THREADS, serial, open_client)

    assert not mismatches, \
        f"concurrent responses diverged from serial: {mismatches[:5]}"

    all_latencies = [ms for position in by_position for ms in position]
    total_requests = len(all_latencies)
    assert total_requests == THREADS * ROUNDS * len(WORKLOAD)

    snapshot = service.metrics_snapshot()
    assert snapshot["counters"]["serve.requests"] == \
        total_requests + warmup_requests

    http_leg = _http_leg(service, serial)
    assert http_leg["requests"] == total_requests
    assert service.metrics_snapshot()["counters"]["serve.requests"] == \
        snapshot["counters"]["serve.requests"] \
        + http_leg["sequential"]["count"] + http_leg["requests"]

    rps = total_requests / duration_s if duration_s else 0.0
    payload = {
        "scale": BENCH_SCALE,
        "seed": BENCH_SEED,
        "threads": THREADS,
        "rounds": ROUNDS,
        "requests": total_requests,
        "duration_s": round(duration_s, 4),
        "rps": round(rps, 2),
        "latency": _latency_summary(all_latencies),
        "endpoints": {
            f"{endpoint}:{json.dumps(query, sort_keys=True)}":
                _latency_summary(by_position[position])
            for position, (endpoint, query) in enumerate(WORKLOAD)
        },
        "inflight_peak": snapshot["gauges"]["serve.inflight.peak"],
        "identical_to_serial": True,
        "http": http_leg,
    }
    write_bench_json("serve", payload)
    report("serve_throughput", json.dumps(payload, indent=2))

    assert rps > 0
    assert payload["latency"]["p99_ms"] >= payload["latency"]["p50_ms"]
