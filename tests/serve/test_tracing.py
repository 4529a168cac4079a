"""Request-scoped serve tracing: byte-identity, the on-disk ring, and
the slow-query log."""

import contextlib
import dataclasses
import json
import os
import threading
import urllib.request

import pytest

from repro.io import open_replacement
from repro.obs import Tracer
from repro.serve import DatasetService, RequestTraceLog, create_server
from repro.serve import tracing
from repro.serve.tracing import SLOW_LOG_NAME

from tests.serve.conftest import http_get


@pytest.fixture()
def traced_server(service, tmp_path):
    trace_log = RequestTraceLog(tmp_path / "traces", ring_size=4,
                                slow_ms=10_000.0)
    server = create_server(service, workers=4, trace_log=trace_log)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server, trace_log
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def _raw_get(base_url: str, path: str) -> bytes:
    with urllib.request.urlopen(base_url + path) as response:
        return response.read()


def _url(server) -> str:
    host, port = server.server_address[:2]
    return f"http://{host}:{port}"


# ----------------------------------------------------- zero perturbation


def test_traced_responses_are_byte_identical(service, traced_server,
                                             http_server):
    """The tentpole contract: tracing must not change a single byte."""
    traced, _ = traced_server
    paths = [
        "/v1/summary",
        "/v1/categories?country=BR&weighting=bytes",
        "/v1/providers?top=5",
        "/v1/report?section=summary",
        "/v1/trends",
    ]
    for path in paths:
        plain = _raw_get(_url(http_server), path)
        for _ in range(2):  # cold memo and warm memo
            assert _raw_get(_url(traced), path) == plain


def test_service_level_tracing_preserves_results(service):
    untraced = service.query("summary", {})
    traced = service.query("summary", {}, tracer=Tracer())
    assert traced == untraced


# ------------------------------------------------------- trace contents


def test_trace_documents_cover_the_request_phases(traced_server):
    server, log = traced_server
    _raw_get(_url(server), "/v1/providers?top=3")
    assert _wait_for(log, 1) == 1

    (document,) = log.traces()
    assert document["format"] == 1
    assert document["seq"] == 0
    assert document["endpoint"] == "providers"
    assert document["payload"] == {"top": "3"}
    assert document["status"] == 200
    assert document["error"] is None
    assert document["duration_ms"] > 0
    (request_span,) = document["trace"]["spans"]
    assert request_span["name"] == "serve.request"
    assert request_span["tags"]["endpoint"] == "providers"
    assert [child["name"] for child in request_span["children"]] == \
        ["parse", "dispatch", "render"]


def test_query_opens_parse_and_dispatch_under_the_caller_s_span(service):
    tracer = Tracer()
    with tracer.span("outer"):
        service.query("summary", {}, tracer=tracer)
    (outer,) = tracer.roots
    assert [child.name for child in outer.children] == ["parse", "dispatch"]


def test_dispatch_span_tags_memo_activity(service):
    # trends memoizes at the service level: the first traced call
    # builds the table, later ones hit it.
    service._trend_report = None  # reset the memo for a cold build
    cold = Tracer()
    service.query("trends", {}, tracer=cold)
    warm = Tracer()
    service.query("trends", {}, tracer=warm)

    def dispatch_tags(tracer):
        return tracer.find("dispatch").tags

    assert "trend_report" in dispatch_tags(cold)["memo_builds"]
    assert dispatch_tags(warm)["memo_builds"] == []
    assert dispatch_tags(warm)["memo_hits"] >= 1


def test_cold_crossborder_names_the_index_flow_tables(tiny_dataset):
    # A fresh dataset object gets its own cold index.
    service = DatasetService(dataclasses.replace(tiny_dataset))
    cold = Tracer()
    service.query("crossborder", {"sources": "BR"}, tracer=cold)
    assert {"_build_crossborder", "_build_flow_table",
            "_build_flow_slices"} <= set(
        cold.find("dispatch").tags["memo_builds"])
    warm = Tracer()
    service.query("crossborder", {"sources": "BR"}, tracer=warm)
    assert warm.find("dispatch").tags["memo_builds"] == []


def _wait_for(log, count, timeout_s=5.0):
    # Traces are written after the response bytes go out, so the
    # client can get its answer a beat before the record lands.
    import time

    deadline = time.monotonic() + timeout_s
    while log.recorded < count and time.monotonic() < deadline:
        time.sleep(0.01)
    return log.recorded


def test_gateway_records_every_request(traced_server):
    server, log = traced_server
    for _ in range(3):
        _raw_get(_url(server), "/v1/summary")
    assert _wait_for(log, 3) == 3
    assert all(doc["endpoint"] == "summary" for doc in log.traces())


def test_gateway_traces_errors_with_status(traced_server):
    server, log = traced_server
    status, _ = http_get(f"{_url(server)}/v1/categories?country=ZZ")
    assert status == 404
    _wait_for(log, 1)
    document = log.traces()[-1]
    assert document["status"] == 404
    assert document["error"]["code"] == "unknown-country"
    (request_span,) = document["trace"]["spans"]
    assert [child["name"] for child in request_span["children"]] == \
        ["parse", "dispatch", "render"]


# ------------------------------------------------------------- the ring


def test_ring_reuses_slots(tmp_path):
    log = RequestTraceLog(tmp_path, ring_size=3)
    for i in range(8):
        log.record(f"ep{i}", payload={}, tracer=Tracer(),
                   duration_ms=1.0, status=200)
    slots = sorted(p.name for p in tmp_path.glob("request-*.json"))
    assert slots == ["request-0000.json", "request-0001.json",
                     "request-0002.json"]
    # The ring holds the newest 3 documents, oldest first.
    assert [doc["seq"] for doc in log.traces()] == [5, 6, 7]
    assert log.recorded == 8


@contextlib.contextmanager
def _torn_write(path):
    """``open_replacement`` whose write stops half-way with an error."""
    with open_replacement(path) as handle:
        class Torn:
            def write(self, text):
                handle.write(text[:len(text) // 2])
                raise OSError("disk full")

        yield Torn()


def _failing_replace(src, dst):
    raise OSError("disk full")


@pytest.mark.parametrize("failure", ["write", "replace"])
def test_failed_slot_write_keeps_the_previous_document(tmp_path,
                                                       monkeypatch,
                                                       failure):
    log = RequestTraceLog(tmp_path, ring_size=1)
    log.record("first", payload={}, tracer=Tracer(), duration_ms=1.0,
               status=200)
    if failure == "write":
        monkeypatch.setattr(tracing, "open_replacement", _torn_write)
    else:
        monkeypatch.setattr(os, "replace", _failing_replace)
    with pytest.raises(OSError, match="disk full"):
        log.record("second", payload={}, tracer=Tracer(), duration_ms=1.0,
                   status=200)
    monkeypatch.undo()
    assert [path.name for path in tmp_path.iterdir()] == ["request-0000.json"]
    assert [doc["endpoint"] for doc in log.traces()] == ["first"]


def test_ring_size_must_be_positive(tmp_path):
    with pytest.raises(ValueError, match="ring_size"):
        RequestTraceLog(tmp_path, ring_size=0)


# ----------------------------------------------------------- slow log


def test_slow_requests_are_appended_to_the_slow_log(tmp_path):
    log = RequestTraceLog(tmp_path, ring_size=2, slow_ms=5.0)
    log.record("fast", payload={}, tracer=Tracer(),
               duration_ms=1.0, status=200)
    log.record("slow", payload={"n": 1}, tracer=Tracer(),
               duration_ms=80.0, status=200)
    log.record("slower", payload={}, tracer=Tracer(),
               duration_ms=90.0, status=500)

    entries = log.slow_queries()
    assert [e["endpoint"] for e in entries] == ["slow", "slower"]
    assert entries[0] == {"seq": 1, "endpoint": "slow", "payload": {"n": 1},
                          "status": 200, "duration_ms": 80.0,
                          "slot": "request-0001.json"}
    # Append-only: the slow log survives ring-slot reuse.
    raw = (tmp_path / SLOW_LOG_NAME).read_text()
    assert len(raw.splitlines()) == 2
    assert all(json.loads(line) for line in raw.splitlines())


def test_no_slow_log_file_until_something_is_slow(tmp_path):
    log = RequestTraceLog(tmp_path, ring_size=2, slow_ms=1000.0)
    log.record("fast", payload={}, tracer=Tracer(),
               duration_ms=1.0, status=200)
    assert not (tmp_path / SLOW_LOG_NAME).exists()
    assert log.slow_queries() == []
