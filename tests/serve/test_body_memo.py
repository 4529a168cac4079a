"""The service's memo of encoded answers: what it stores, its byte cap,
concurrent first requests, and the metrics of requests it answers."""

from __future__ import annotations

import http.client
import itertools
import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.serve import DatasetService, create_server
from repro.serve import service as service_module
from repro.serve.schemas import CrossborderRequest

#: Every ordering of every non-empty subset of the dataset's countries:
#: 15 distinct ``crossborder`` requests.
_ORDERS = [order for size in (1, 2, 3)
           for order in itertools.permutations(("BR", "US", "FR"), size)]


def _encoded(dataset, endpoint: str, payload) -> bytes:
    """The oracle: the body a fresh service builds for ``payload``."""
    return DatasetService(dataset).query_bytes(endpoint, payload)


def _sources(count: int, variant: int) -> list:
    """``count`` codes cycling through the ``variant``-th of
    :data:`_ORDERS`: a long list that validates to that ordering."""
    order = _ORDERS[variant]
    return [order[index % len(order)] for index in range(count)]


def test_an_entry_is_charged_its_body_and_its_request(tiny_dataset):
    service = DatasetService(tiny_dataset)
    payload = {"sources": _sources(1000, 14)}
    body = service.query_bytes("crossborder", payload)
    assert body == _encoded(tiny_dataset, "crossborder", payload)
    request = CrossborderRequest.from_mapping(payload)
    assert request.sources == _ORDERS[14]
    # Each source is a string object of its own in the key: counted.
    assert service._memo_bytes == \
        service_module._entry_bytes(request, body) > len(body) + 3 * 40


def test_repeated_sources_are_stored_once(tiny_dataset):
    """170,000 spellings of one code (~1 MiB of JSON) validate to one
    source: the key, the echoed list and the entry hold it once."""
    service = DatasetService(tiny_dataset)
    payload = {"sources": ["BR", "br", "Br", "bR"] * 42_500}
    body = service.query_bytes("crossborder", payload)
    assert CrossborderRequest.from_mapping(payload).sources == ("BR",)
    assert json.loads(body)["sources"] == ["BR"]
    assert body == _encoded(tiny_dataset, "crossborder", {"sources": "BR"})
    ((_, request),) = service._bodies
    assert request.sources == ("BR",)
    assert service._memo_bytes < len(body) + 1000


def test_long_requests_stop_being_stored_at_the_cap(tiny_dataset,
                                                    monkeypatch):
    """Distinct long ``sources`` POSTs until the memo refuses one: what it
    holds never passes the cap, and every answer is still the body a
    fresh service builds, stored or not."""
    service = DatasetService(tiny_dataset)
    # Room for the first four requests' entries.
    monkeypatch.setattr(service_module, "BODY_MEMO_BYTES", sum(
        service_module._entry_bytes(
            CrossborderRequest.from_mapping({"sources": _ORDERS[variant]}),
            _encoded(tiny_dataset, "crossborder",
                     {"sources": _ORDERS[variant]}))
        for variant in range(4)))
    server = create_server(service, workers=2)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    conn = http.client.HTTPConnection(*server.server_address[:2],
                                      timeout=30)
    refused = []
    try:
        for variant in range(12):
            payload = {"sources": _sources(60_000, variant)}
            held = len(service._bodies)
            conn.request("POST", "/v1/crossborder",
                         body=json.dumps(payload))
            response = conn.getresponse()
            body = response.read()
            assert response.status == 200
            assert body == _encoded(tiny_dataset, "crossborder", payload)
            assert service._memo_bytes <= service_module.BODY_MEMO_BYTES
            if len(service._bodies) == held:
                refused.append(payload)
                if len(refused) == 2:
                    break
        assert refused, "the flood never reached the cap"
        assert len(service._bodies) == 4
        # A refused request is answered again, and still not stored.
        held = dict(service._bodies)
        conn.request("POST", "/v1/crossborder", body=json.dumps(refused[0]))
        response = conn.getresponse()
        assert response.read() == _encoded(tiny_dataset, "crossborder",
                                           refused[0])
        assert service._bodies == held
    finally:
        conn.close()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def test_the_cap_admits_an_entry_that_fills_it_exactly(tiny_dataset,
                                                       monkeypatch):
    service = DatasetService(tiny_dataset)
    payloads = [{"sources": _sources(50, variant)} for variant in range(3)]
    sizes = [service_module._entry_bytes(
        CrossborderRequest.from_mapping(payload),
        _encoded(tiny_dataset, "crossborder", payload))
        for payload in payloads]
    monkeypatch.setattr(service_module, "BODY_MEMO_BYTES",
                        sizes[0] + sizes[1])
    for payload in payloads:
        assert service.query_bytes("crossborder", payload) == \
            _encoded(tiny_dataset, "crossborder", payload)
    assert len(service._bodies) == 2
    assert service._memo_bytes == sizes[0] + sizes[1]
    # A small answer that would pass the cap is refused as well.
    service.query_bytes("summary", {})
    assert len(service._bodies) == 2


def test_keys_are_the_endpoint_and_the_validated_request(tiny_dataset):
    service = DatasetService(tiny_dataset)
    answers = {
        ("providers", "3"): service.query_bytes("providers", {"top": "3"}),
        ("providers", 3): service.query_bytes("providers", {"top": 3}),
        ("providers", 4): service.query_bytes("providers", {"top": 4}),
        ("categories", "BR"): service.query_bytes("categories",
                                                  {"country": "BR"}),
        ("categories", "FR"): service.query_bytes("categories",
                                                  {"country": "FR"}),
    }
    # "3" and 3 validate to one request: one entry, one body.
    assert answers[("providers", "3")] == answers[("providers", 3)]
    assert len(service._bodies) == 4
    assert answers[("providers", 3)] == _encoded(tiny_dataset, "providers",
                                                 {"top": 3})
    assert answers[("providers", 4)] == _encoded(tiny_dataset, "providers",
                                                 {"top": 4})
    assert answers[("categories", "FR")] == _encoded(
        tiny_dataset, "categories", {"country": "FR"})
    assert answers[("categories", "BR")] != answers[("categories", "FR")]


def test_a_stored_body_is_sent_without_running_the_handler(tiny_dataset):
    service = DatasetService(tiny_dataset)
    built = service.query_bytes("report", {"section": "summary"})

    def refuse(request):
        raise AssertionError("the handler ran for a stored body")

    service._handlers["report"] = refuse
    assert service.query_bytes("report", {"section": "summary"}) == built


def test_concurrent_first_requests_store_one_body(tiny_dataset):
    """Two requests inside the handler of one key at once: both answer
    the same bytes, one body is stored, and it is counted once."""
    service = DatasetService(tiny_dataset)
    expected = _encoded(tiny_dataset, "providers", {"top": 5})
    inside = threading.Barrier(2, timeout=10)
    original = service._handlers["providers"]

    def stalling(request):
        inside.wait()  # both requests missed and are computing
        return original(request)

    service._handlers["providers"] = stalling
    with ThreadPoolExecutor(max_workers=2) as pool:
        bodies = list(pool.map(
            lambda _: service.query_bytes("providers", {"top": 5}),
            range(2)))
    assert bodies[0] == bodies[1] == expected
    assert len(service._bodies) == 1
    request = service_module.QUERY_ENDPOINTS["providers"].from_mapping(
        {"top": 5})
    assert service._memo_bytes == service_module._entry_bytes(request,
                                                              bodies[0])


@pytest.mark.parametrize("hits", [1, 7])
def test_every_stored_answer_is_counted_and_timed(tiny_dataset, hits):
    service = DatasetService(tiny_dataset)
    service.query_bytes("categories", {"country": "US"})  # builds

    def counts() -> tuple:
        snapshot = service.metrics_snapshot()
        return (snapshot["counters"]["serve.requests"],
                snapshot["counters"]["serve.requests.categories"],
                sum(snapshot["histograms"][
                    "serve.latency_ms.categories"].values()))

    before = counts()
    for _ in range(hits):
        service.query_bytes("categories", {"country": "US"})
    assert counts() == tuple(count + hits for count in before)
