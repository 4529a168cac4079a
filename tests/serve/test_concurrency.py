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
