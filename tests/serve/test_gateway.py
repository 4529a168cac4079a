"""HTTP gateway behavior: JSON endpoints, structured 4xx errors,
byte-equality between what travels over the wire and the service, the
wire itself (one write per response, keep-alive, idle release) and the
gateway's own request-head parser and response heads."""

from __future__ import annotations

import email.utils
import hashlib
import http.client
import json
import platform
import socket
import statistics
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler

import pytest

from repro.reporting import render_report_section
from repro.serve import DatasetHTTPServer, create_server, gateway

from .conftest import http_get, http_post, raw_exchange, read_response
from .test_pinned_answers import PINNED_ANSWERS


def test_healthz(base_url, tiny_dataset):
    status, body = http_get(f"{base_url}/healthz")
    assert status == 200
    assert body["status"] == "ok"
    assert body["countries"] == len(tiny_dataset.countries)
    assert body["records"] > 0


def test_metrics_endpoint_reflects_traffic(base_url):
    before = http_get(f"{base_url}/metrics")[1]
    http_get(f"{base_url}/v1/summary")
    status, after = http_get(f"{base_url}/metrics")
    assert status == 200
    assert after["counters"]["serve.requests.summary"] == \
        before["counters"].get("serve.requests.summary", 0) + 1


def test_get_and_post_answer_identically(base_url):
    get_status, get_body = http_get(
        f"{base_url}/v1/categories?country=BR&weighting=bytes"
    )
    post_status, post_body = http_post(
        f"{base_url}/v1/categories", {"country": "BR", "weighting": "bytes"}
    )
    assert get_status == post_status == 200
    assert get_body == post_body


def test_report_fragment_matches_batch_bytes(base_url, tiny_dataset):
    status, body = http_get(f"{base_url}/v1/report?section=providers")
    assert status == 200
    assert body["text"] == render_report_section(tiny_dataset, "providers")


def test_unknown_country_is_404_with_error_object(base_url):
    status, body = http_get(f"{base_url}/v1/categories?country=ZZ")
    assert status == 404
    assert body["error"]["code"] == "unknown-country"
    assert body["error"]["field"] == "country"


def test_bad_section_is_400_with_error_object(base_url):
    status, body = http_get(f"{base_url}/v1/report?section=appendix")
    assert status == 400
    assert body["error"]["code"] == "bad-choice"
    assert body["error"]["field"] == "section"


def test_unknown_field_is_400(base_url):
    status, body = http_post(f"{base_url}/v1/summary", {"surprise": 1})
    assert status == 400
    assert body["error"]["code"] == "unknown-field"


def test_malformed_json_body_is_400(base_url):
    status, body = http_post(f"{base_url}/v1/summary", b"{not json")
    assert status == 400
    assert body["error"]["code"] == "bad-json"


def test_non_object_json_body_is_400(base_url):
    status, body = http_post(f"{base_url}/v1/summary", b"[1, 2]")
    assert status == 400
    assert body["error"]["code"] == "bad-type"


def test_unknown_endpoint_is_404(base_url):
    status, body = http_get(f"{base_url}/v1/everything")
    assert status == 404
    assert body["error"]["code"] == "unknown-endpoint"


def test_unknown_path_is_404(base_url):
    status, body = http_get(f"{base_url}/nope")
    assert status == 404
    assert body["error"]["code"] == "not-found"


def test_keepalive_serves_sequential_requests(http_server):
    # One connection, twenty requests: a wrong Content-Length wedges or
    # truncates the next response, and a response split over two
    # writes waits ~40 ms for the client's delayed ACK (Nagle).
    conn = http.client.HTTPConnection(*http_server.server_address[:2],
                                      timeout=10)
    latencies_ms = []
    try:
        conn.connect()
        first_socket = conn.sock
        for _ in range(20):
            started = time.perf_counter()
            conn.request("GET", "/v1/summary")
            response = conn.getresponse()
            payload = json.loads(response.read())
            latencies_ms.append((time.perf_counter() - started) * 1e3)
            assert response.status == 200
            assert "summary" in payload
            assert conn.sock is first_socket
    finally:
        conn.close()
    assert statistics.median(latencies_ms) < 10, latencies_ms


def test_refused_post_body_is_consumed_on_keepalive(http_server):
    # A 404 POST must still read its body: the next request on the
    # connection starts where the body ends.
    conn = http.client.HTTPConnection(*http_server.server_address[:2],
                                      timeout=3)
    try:
        conn.request("POST", "/nope", body=b'{"top": 3}')
        response = conn.getresponse()
        assert response.status == 404
        assert json.loads(response.read())["error"]["code"] == "not-found"
        first_socket = conn.sock
        conn.request("GET", "/healthz")
        response = conn.getresponse()
        assert response.status == 200
        assert json.loads(response.read())["status"] == "ok"
        assert conn.sock is first_socket
    finally:
        conn.close()


def test_negative_content_length_is_400(http_server):
    # rfile.read(-1) would read to EOF: a keep-alive client never sees
    # an answer.
    status, headers, body = raw_exchange(
        http_server.server_address,
        b"POST /v1/summary HTTP/1.1\r\nHost: t\r\n"
        b"Content-Length: -1\r\n\r\n{}")
    assert status == 400
    assert json.loads(body)["error"]["code"] == "bad-request"
    assert headers["Connection"] == "close"


@pytest.mark.parametrize("method", [b"GET", b"POST"])
@pytest.mark.parametrize("length, status, code", [
    (b"-1", 400, "bad-request"),
    (b"five", 400, "bad-request"),
    (str(gateway.MAX_BODY_BYTES + 1).encode(), 413, "too-large"),
], ids=["negative", "not-a-number", "too-large"])
def test_unusable_content_length_is_refused_and_closes(http_server, method,
                                                       length, status, code):
    got, headers, body = raw_exchange(
        http_server.server_address,
        method + b" /v1/summary HTTP/1.1\r\nHost: t\r\n"
        b"Content-Length: " + length + b"\r\n\r\n{}")
    assert got == status
    assert json.loads(body)["error"]["code"] == code
    assert headers["Connection"] == "close"


def test_get_body_is_consumed_on_keepalive(http_server, service):
    # An unread body would prefix the next request line ("helloGET ...")
    # and be answered 501.
    expected = json.dumps(service.query("summary", {}),
                          sort_keys=True).encode("utf-8")
    with socket.create_connection(http_server.server_address,
                                  timeout=3) as sock, \
            sock.makefile("rb") as stream:
        sock.sendall(b"GET /v1/summary HTTP/1.1\r\nHost: t\r\n"
                     b"Content-Length: 5\r\n\r\nhello"
                     b"GET /v1/summary HTTP/1.1\r\nHost: t\r\n\r\n")
        for _ in range(2):
            status, headers, body = read_response(stream)
            assert (status, body) == (200, expected)
            assert "Connection" not in headers


@pytest.mark.parametrize("method", [b"GET", b"POST"])
def test_chunked_body_is_refused_and_closes(http_server, method):
    # Answering it as an empty query would parse the chunks ("2", "{}",
    # "0") as the next request.
    with socket.create_connection(http_server.server_address,
                                  timeout=3) as sock, \
            sock.makefile("rb") as stream:
        sock.sendall(method + b" /v1/summary HTTP/1.1\r\nHost: t\r\n"
                     b"Transfer-Encoding: chunked\r\n\r\n"
                     b"2\r\n{}\r\n0\r\n\r\n")
        status, headers, body = read_response(stream)
        assert status == 411
        assert headers["Connection"] == "close"
        assert json.loads(body)["error"]["code"] == "length-required"
        assert stream.read() == b""  # nothing after it was answered


def test_deeply_nested_json_body_is_400(http_server):
    # Under MAX_BODY_BYTES, but json.loads raises RecursionError on it.
    nested = b"[" * 100_000
    status, _, body = raw_exchange(
        http_server.server_address,
        b"POST /v1/summary HTTP/1.1\r\nHost: t\r\nContent-Length: "
        + str(len(nested)).encode() + b"\r\n\r\n" + nested)
    assert status == 400
    assert json.loads(body)["error"]["code"] == "bad-json"


def test_query_string_integer_that_int_refuses_is_400(base_url):
    for top in ("--5", "\u00b2", "9" * 5000):
        status, body = http_get(
            f"{base_url}/v1/providers?top={urllib.parse.quote(top)}")
        assert status == 400
        assert body["error"] == {
            "code": "bad-type", "field": "top",
            "message": "field 'top' must be an integer"}


# ------------------------------------------------------------ the wire


@pytest.fixture()
def spied_server(service):
    """A gateway recording each socket write's size and whether the
    accepted socket has TCP_NODELAY set."""
    writes, nodelay = [], []

    class SpiedHandler(gateway._Handler):
        def setup(self):
            super().setup()
            nodelay.append(self.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY))
            send = self.wfile.write

            def write(data):
                writes.append(len(data))
                return send(data)

            self.wfile.write = write

    server = DatasetHTTPServer(("127.0.0.1", 0), SpiedHandler, service,
                               workers=2)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server, writes, nodelay
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


@pytest.mark.parametrize("request_line, status, content_type", [
    (b"GET /v1/summary", 200, "application/json"),
    (b"GET /metrics?format=prometheus", 200, "text/plain"),
    (b"GET /v1/categories?country=ZZ", 404, "application/json"),
], ids=["json", "prometheus", "request-error"])
def test_every_response_leaves_in_one_write(spied_server, request_line,
                                            status, content_type):
    server, writes, nodelay = spied_server
    request = request_line + b" HTTP/1.1\r\nHost: t\r\n" \
        b"Connection: close\r\n\r\n"
    with socket.create_connection(server.server_address, timeout=3) as sock:
        sock.sendall(request)
        raw = b""
        while chunk := sock.recv(1 << 16):
            raw += chunk
    head, _, body = raw.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 %d " % status)
    assert f"Content-Type: {content_type}".encode() in head
    assert body
    assert writes == [len(raw)]
    assert nodelay == [1]


@pytest.mark.parametrize("request_bytes, status, code", [
    (b"PUT /v1/summary HTTP/1.1\r\nHost: t\r\n\r\n", 501,
     "unsupported-method"),
    (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\nHost: t\r\n\r\n", 414,
     "uri-too-long"),
], ids=["put", "long-request-line"])
def test_stdlib_errors_are_json_in_one_write(spied_server, request_bytes,
                                             status, code):
    server, writes, _ = spied_server
    got, headers, body = raw_exchange(server.server_address, request_bytes)
    assert got == status
    assert headers["Content-Type"] == "application/json"
    assert headers["Connection"] == "close"
    assert json.loads(body)["error"]["code"] == code
    assert len(writes) == 1


def test_idle_keepalive_connection_is_released(service, monkeypatch):
    # One worker thread, held by an idle keep-alive connection: the
    # next client is served once the idle connection times out.
    monkeypatch.setattr(gateway, "IDLE_TIMEOUT_S", 0.5)
    server = create_server(service, workers=1)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    address = server.server_address[:2]
    idle = http.client.HTTPConnection(*address, timeout=10)
    waiting = http.client.HTTPConnection(*address, timeout=3)
    try:
        idle.request("GET", "/healthz")
        assert idle.getresponse().read()
        started = time.perf_counter()
        waiting.request("GET", "/healthz")
        response = waiting.getresponse()
        assert response.status == 200
        assert json.loads(response.read())["status"] == "ok"
        assert time.perf_counter() - started < 0.5 + 2.0
    finally:
        idle.close()
        waiting.close()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


# ------------------------------------------------------- the request head

#: Sent after each request on the same connection: it is answered only
#: if the answers before it left the connection open.
FOLLOW_UP = b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"

#: A request sent as another request's body: answered as a request of
#: its own wherever the gateway frames that body too short.
SMUGGLED = b"GET /v1/providers?top=2 HTTP/1.1\r\nHost: t\r\n\r\n"


def read_answers(address, request: bytes) -> list:
    """Every answer to ``request`` then :data:`FOLLOW_UP` on one
    connection, read to EOF without ``http.client``: (status line,
    [(name, value), ...], body) each.  An HTTP/0.9 answer, a body
    alone up to EOF, has the status line None."""
    answers = []
    with socket.create_connection(address, timeout=3) as sock, \
            sock.makefile("rb") as stream:
        sock.sendall(request + FOLLOW_UP)
        while line := stream.readline():
            if not line.startswith(b"HTTP/1.1 "):
                answers.append((None, [], line + stream.read()))
                break
            fields = []
            while (field := stream.readline()) != b"\r\n":
                name, _, value = field.decode("latin-1").partition(":")
                fields.append((name, value.strip()))
            length = int(dict(fields).get("Content-Length", 0))
            answers.append((line.decode("latin-1").rstrip("\r\n"), fields,
                            stream.read(length)))
    return answers


def _head(lines: bytes, body: bytes = b"", *,
          request_line: bytes = b"POST /v1/summary HTTP/1.1") -> bytes:
    """A request: ``request_line``, ``Host`` and the field ``lines``,
    then a ``Content-Length`` framing ``body``."""
    return (request_line + b"\r\nHost: t\r\n" + lines
            + b"Content-Length: %d\r\n\r\n" % len(body) + body)


#: (request, its answers before EOF): each a (status, what) pair, the
#: status None for an HTTP/0.9 answer.  ``what`` is the error code of
#: an error body, or the endpoint whose answer the body is.
HEAD_RULES = {
    "99-field-lines": (
        b"GET /v1/summary HTTP/1.1\r\nHost: t\r\n" + b"X: y\r\n" * 98
        + b"\r\n", [(200, "summary"), (200, "healthz")]),
    "100-field-lines": (
        b"GET /v1/summary HTTP/1.1\r\nHost: t\r\n" + b"X: y\r\n" * 99
        + b"\r\n", [(431, "headers-too-large")]),
    "101-field-lines": (
        b"GET /v1/summary HTTP/1.1\r\n" + b"X: y\r\n" * 101 + b"\r\n",
        [(431, "headers-too-large")]),
    "65537-byte-field-line": (
        b"GET /v1/summary HTTP/1.1\r\nX: " + b"a" * 65_532 + b"\r\n\r\n",
        [(431, "headers-too-large")]),
    "65536-byte-field-line": (
        b"GET /v1/summary HTTP/1.1\r\nX: " + b"a" * 65_531 + b"\r\n\r\n",
        [(200, "summary"), (200, "healthz")]),
    "empty-request-line": (b"\r\n", []),
    "HTTP/2.0": (b"GET /v1/summary HTTP/2.0\r\nHost: t\r\n\r\n",
                 [(None, "unsupported-version")]),
    "HTTX/1.1": (b"GET /v1/summary HTTX/1.1\r\nHost: t\r\n\r\n",
                 [(None, "bad-request")]),
    "HTTP/1.1.1": (b"GET /v1/summary HTTP/1.1.1\r\nHost: t\r\n\r\n",
                   [(None, "bad-request")]),
    "four-words": (b"GET /v1/summary x HTTP/1.1\r\nHost: t\r\n\r\n",
                   [(400, "bad-request")]),
    "two-word-get": (b"GET /v1/summary\r\nHost: t\r\n\r\n",
                     [(None, "summary")]),
    # A body-only answer ends at EOF, so the connection closes.
    "two-word-get-keep-alive": (
        b"GET /v1/summary\r\nHost: t\r\nConnection: keep-alive\r\n\r\n",
        [(None, "summary")]),
    "two-word-post": (b"POST /v1/summary\r\nHost: t\r\n\r\n",
                      [(None, "bad-request")]),
    "double-slash": (b"GET //v1/summary HTTP/1.1\r\nHost: t\r\n\r\n",
                     [(200, "summary"), (200, "healthz")]),
    "no-colon": (_head(b"bogus\r\n", b"{}"), [(400, "bad-request")]),
    "space-before-colon": (_head(b"X-A : b\r\n", b"{}"),
                           [(400, "bad-request")]),
    "obs-fold": (_head(b"X-A: b\r\n c\r\n", b"{}"), [(400, "bad-request")]),
    "bare-cr": (_head(b"X-A: b\rc\r\n", b"{}"), [(400, "bad-request")]),
    "empty-name": (_head(b": b\r\n", b"{}"),
                   [(200, "summary"), (200, "healthz")]),
    "bare-lf": (b"POST /v1/summary HTTP/1.1\nHost: t\nContent-Length: 2"
                b"\n\n{}", [(200, "summary"), (200, "healthz")]),
    "HTTP/1.0": (_head(b"", request_line=b"GET /v1/summary HTTP/1.0"),
                 [(200, "summary")]),
    "HTTP/1.0-keep-alive": (
        _head(b"Connection: keep-alive\r\n",
              request_line=b"GET /v1/summary HTTP/1.0"),
        [(200, "summary"), (200, "healthz")]),
    "HTTP/1.1-close": (_head(b"Connection: close\r\n",
                             request_line=b"GET /v1/summary HTTP/1.1"),
                       [(200, "summary")]),
    "expect-100-continue": (_head(b"Expect: 100-continue\r\n", b"{}"),
                            [(100, None), (200, "summary"), (200, "healthz")]),
}


@pytest.mark.parametrize("request_bytes, expected", HEAD_RULES.values(),
                         ids=HEAD_RULES)
def test_each_head_rule_keeps_its_answer(http_server, service, request_bytes,
                                         expected):
    answers = read_answers(http_server.server_address, request_bytes)
    summary = json.dumps(service.query("summary", {}),
                         sort_keys=True).encode("utf-8")
    got = []
    for status_line, fields, body in answers:
        status = None if status_line is None else int(status_line.split()[1])
        if status == 100:
            what = None
        elif body == summary:
            what = "summary"
        elif "error" in json.loads(body):
            what = json.loads(body)["error"]["code"]
            # A refused head closes: the answer says so unless it is
            # an HTTP/0.9 one, which has no head.
            assert status is None or ("Connection", "close") in fields
        else:
            what = "healthz" if json.loads(body)["status"] == "ok" else body
        got.append((status, what))
    assert got == expected


@pytest.mark.parametrize("target", ["/v1/summary", "/v1/providers?top=2",
                                    "/v1/categories?country=ZZ", "/healthz"])
def test_head_answers_the_get_head_and_keeps_the_connection(http_server,
                                                            target):
    with socket.create_connection(http_server.server_address,
                                  timeout=3) as sock, \
            sock.makefile("rb") as stream:
        sock.sendall(b"GET %s HTTP/1.1\r\nHost: t\r\n\r\n"
                     b"HEAD %s HTTP/1.1\r\nHost: t\r\n\r\n"
                     % (target.encode(), target.encode()) + FOLLOW_UP)
        get_status, get_headers, get_body = read_response(stream)
        status, headers, body = read_response(stream, method="HEAD")
        follow_status, _, follow_body = read_response(stream)
        assert stream.read() == b""
    assert (status, body) == (get_status, b"")
    assert get_body and "Connection" not in headers
    assert headers["Content-Type"] == get_headers["Content-Type"]
    assert headers["Content-Length"] == str(len(get_body))
    assert follow_status == 200
    assert json.loads(follow_body)["status"] == "ok"


@pytest.mark.parametrize("fields, body", [
    (b"Content-Length: 2\r\nContent-Length: %d\r\n" % (2 + len(SMUGGLED)),
     b"{}" + SMUGGLED),
    (b"bogus\r\nContent-Length: %d\r\n" % len(SMUGGLED), SMUGGLED),
    (b"X-A : b\r\nContent-Length: %d\r\n" % len(SMUGGLED), SMUGGLED),
], ids=["repeated-content-length", "no-colon", "space-before-colon"])
def test_a_request_body_is_never_answered_as_a_request(http_server, fields,
                                                       body):
    # A proxy framing the body by the other Content-Length (or reading
    # every field line) sees one request; so does the gateway now.
    request = b"POST /v1/summary HTTP/1.1\r\nHost: t\r\n" + fields \
        + b"\r\n" + body
    ((status_line, head, answer),) = read_answers(
        http_server.server_address, request)
    assert status_line == "HTTP/1.1 400 Bad Request"
    assert ("Connection", "close") in head
    assert json.loads(answer)["error"]["code"] == "bad-request"


@pytest.mark.parametrize("request_line, status_line, content_type, close", [
    (b"GET /v1/summary", "HTTP/1.1 200 OK", "application/json", False),
    (b"GET /v1/categories?country=ZZ", "HTTP/1.1 404 Not Found",
     "application/json", False),
    (b"PUT /v1/summary", "HTTP/1.1 501 Not Implemented", "application/json",
     True),
    (b"GET /metrics?format=prometheus", "HTTP/1.1 200 OK",
     "text/plain; version=0.0.4; charset=utf-8", False),
], ids=["answer", "request-error", "refusal", "prometheus"])
def test_response_heads_keep_their_fields_and_order(
        http_server, request_line, status_line, content_type, close):
    started = time.time()
    (got_line, fields, body), *_ = read_answers(
        http_server.server_address,
        request_line + b" HTTP/1.1\r\nHost: t\r\n\r\n")
    assert got_line == status_line
    assert [name for name, _ in fields] == (
        ["Server", "Date"] + ["Connection"] * close
        + ["Content-Type", "Content-Length"])
    values = dict(fields)
    assert values["Server"] == f"BaseHTTP/0.6 Python/{platform.python_version()}"
    date = email.utils.parsedate_to_datetime(values["Date"])
    assert values["Date"].endswith(" GMT")
    assert int(started) - 1 <= date.timestamp() <= time.time() + 1
    assert values.get("Connection", "close") == "close"
    assert values["Content-Type"] == content_type
    assert values["Content-Length"] == str(len(body))


def test_the_date_is_formatted_once_a_second(http_server, monkeypatch):
    formatted = []

    def formatdate(*args, **kwargs):
        formatted.append(args)
        return email.utils.formatdate(*args, **kwargs)

    monkeypatch.setattr(gateway, "formatdate", formatdate)
    started = int(time.time())
    lines = {http_server.date_line() for _ in range(1000)}
    assert len(formatted) == len(lines) <= int(time.time()) - started + 1
    for line in lines:
        assert line.startswith(b"Date: ") and line.endswith(b" GMT\r\n")


def test_no_request_takes_the_stdlib_head_path(http_server, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the http.server head path ran")

    monkeypatch.setattr(http.client, "parse_headers", refuse)
    monkeypatch.setattr(BaseHTTPRequestHandler, "send_response", refuse)
    monkeypatch.setattr(BaseHTTPRequestHandler, "send_header", refuse)
    requests = b"".join(
        _head(b"", json.dumps(payload).encode("utf-8"),
              request_line=b"POST /v1/%s HTTP/1.1" % endpoint.encode())
        for endpoint, payload, _ in PINNED_ANSWERS)
    answers = read_answers(http_server.server_address, requests)
    assert [(line, hashlib.sha256(body).hexdigest())
            for line, _, body in answers[:-1]] == [
        ("HTTP/1.1 200 OK", digest) for _, _, digest in PINNED_ANSWERS]
    assert json.loads(answers[-1][2])["status"] == "ok"
