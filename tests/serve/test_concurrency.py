"""Concurrency soak: many threads, mixed query types, answers
bit-identical to a serial pass over the same warm service."""

from __future__ import annotations

import json
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.serve import DatasetService

THREADS = 8
ROUNDS = 5

MIXED_QUERIES = [
    ("summary", {}),
    ("categories", {"country": "BR"}),
    ("categories", {"country": "US", "weighting": "bytes"}),
    ("crossborder", {"sources": "BR,FR"}),
    ("crossborder", {"basis": "registration"}),
    ("providers", {"top": 5}),
    ("report", {"section": "summary"}),
    ("report", {"section": "full"}),
]


def _canonical(result: dict) -> str:
    return json.dumps(result, sort_keys=True)


def test_soak_matches_serial(tiny_dataset):
    # A dedicated service so the soak starts from a cold index: the
    # first wave of threads races the index build and every memoized
    # table, which is exactly the historical failure mode.  The serial
    # reference answers come from a *separate* service — answering them
    # on the soaked one would warm every memo and let fully-memoized
    # queries finish too fast to ever overlap.
    import dataclasses

    reference = DatasetService(dataclasses.replace(tiny_dataset))
    serial = [_canonical(reference.query(endpoint, payload))
              for endpoint, payload in MIXED_QUERIES]
    service = DatasetService(dataclasses.replace(tiny_dataset))

    barrier = threading.Barrier(THREADS)

    def worker(worker_id: int):
        barrier.wait()
        answers = []
        for round_number in range(ROUNDS):
            # Stagger starting offsets so different threads hit
            # different endpoints at the same instant.
            for offset in range(len(MIXED_QUERIES)):
                position = (worker_id + round_number + offset) \
                    % len(MIXED_QUERIES)
                endpoint, payload = MIXED_QUERIES[position]
                answers.append(
                    (position, _canonical(service.query(endpoint, payload)))
                )
        return answers

    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        all_answers = list(pool.map(worker, range(THREADS)))

    for answers in all_answers:
        for position, answer in answers:
            assert answer == serial[position]

    snapshot = service.metrics_snapshot()
    expected = THREADS * ROUNDS * len(MIXED_QUERIES)
    assert snapshot["counters"]["serve.requests"] == expected
    # Whether the soak *observably* overlapped is scheduler-dependent
    # (memoized queries can finish within one GIL slice);
    # test_inflight_peak_tracks_concurrency asserts the peak gauge
    # deterministically.


def test_bytes_soak_from_a_cold_memo_matches_serial(tiny_dataset):
    """The soak over the gateway's entry point: a cold index and an empty
    memo, and every thread sends the queries in one order, so the first
    requests of each query race each other to build its tables and to
    store its body.  Every body equals the serial encoded answer, and
    the memo ends with one body per query, its byte count their sum (a
    body counted twice breaks it).  A short switch interval makes the
    threads interleave inside the memo's check-then-store."""
    import dataclasses
    import sys

    from repro.serve.service import _entry_bytes

    reference = DatasetService(dataclasses.replace(tiny_dataset))
    serial = [_canonical(reference.query(endpoint, payload)).encode("utf-8")
              for endpoint, payload in MIXED_QUERIES]
    service = DatasetService(dataclasses.replace(tiny_dataset))

    barrier = threading.Barrier(THREADS)

    def worker(worker_id: int):
        barrier.wait()
        bodies = []
        for _ in range(ROUNDS):
            for position, (endpoint, payload) in enumerate(MIXED_QUERIES):
                bodies.append(
                    (position, service.query_bytes(endpoint, payload)))
        return bodies

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            all_bodies = list(pool.map(worker, range(THREADS), timeout=120))
    finally:
        sys.setswitchinterval(interval)

    for bodies in all_bodies:
        for position, body in bodies:
            assert body == serial[position]
    assert sorted(service._bodies.values()) == sorted(serial)
    assert service._memo_bytes == sum(
        _entry_bytes(request, body)
        for (_, request), body in service._bodies.items())
    assert service.metrics_snapshot()["counters"]["serve.requests"] == \
        THREADS * ROUNDS * len(MIXED_QUERIES)


def test_inflight_peak_tracks_concurrency(tiny_dataset):
    """Two queries held inside the service at once must register as an
    inflight peak of 2 — synchronized with a barrier, not timing."""
    import dataclasses

    service = DatasetService(dataclasses.replace(tiny_dataset))
    inside = threading.Barrier(2, timeout=10)
    original = service._handlers["summary"]

    def stalling(request):
        inside.wait()  # both workers are now inside metrics.track
        return original(request)

    service._handlers["summary"] = stalling
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(lambda _: service.query("summary", {}),
                                range(2)))
    assert results[0] == results[1]
    assert service.metrics_snapshot()["gauges"]["serve.inflight.peak"] >= 2


def test_gateway_soak_matches_serial(base_url):
    from .conftest import http_get

    urls = [
        f"{base_url}/v1/summary",
        f"{base_url}/v1/categories?country=FR",
        f"{base_url}/v1/crossborder?sources=US",
        f"{base_url}/v1/providers?top=3",
        f"{base_url}/v1/report?section=global",
    ]
    serial = [_canonical(http_get(url)[1]) for url in urls]

    def worker(worker_id: int):
        results = []
        for offset in range(len(urls) * 2):
            position = (worker_id + offset) % len(urls)
            status, body = http_get(urls[position])
            assert status == 200
            results.append((position, _canonical(body)))
        return results

    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        for results in pool.map(worker, range(THREADS)):
            for position, body in results:
                assert body == serial[position]
