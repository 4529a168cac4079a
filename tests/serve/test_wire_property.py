"""Wire property: whatever raw HTTP/1.0 or HTTP/1.1 request a client
sends, the gateway answers with a status line, a JSON body (Prometheus
text aside), an ``error.code`` on every non-200, and never a 500 or a
dropped connection -- and it keeps answering afterwards.  A request on
a connection the first answer left open is answered as itself (the
first request's body, whatever its framing, was consumed or refused);
a connection the answer closes carries nothing more.  A head with a
repeated ``Content-Length`` or a line without a colon answers 400 and
closes.  Lines end in CRLF or a bare LF; HTTP/1.0 stays open only with
``Connection: keep-alive``, HTTP/1.1 unless it sends ``close``.

Only versions that parse are drawn: for an unparseable one the gateway
answers as HTTP/0.9, which has no status line.
"""

from __future__ import annotations

import dataclasses
import json
import socket
import string
import threading
import urllib.parse
from typing import Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.exposition import PROMETHEUS_CONTENT_TYPE
from repro.serve import QUERY_ENDPOINTS, create_server

from .conftest import raw_exchange, read_response

#: Request fields of every endpoint, plus /metrics' ``format``.
FIELDS = ("country", "weighting", "sources", "basis", "top", "section",
          "format")
TOKEN = string.ascii_letters + string.digits + "-_.~"
#: Printable ASCII: what a header value may carry.
HEADER_TEXT = st.text(alphabet=string.printable.strip(), max_size=40)
#: Sent after the drawn request on a connection its answer left open.
SECOND_REQUEST = b"GET /v1/providers?top=2 HTTP/1.1\r\nHost: t\r\n\r\n"


@dataclasses.dataclass(frozen=True)
class RawRequest:
    method: str
    target: str
    version: str = "HTTP/1.1"
    accept: Optional[str] = None
    body: Optional[bytes] = None
    #: ``exact``, a negative number, or a non-numeric string.
    length: str = "exact"
    transfer_encoding: Optional[str] = None
    #: A second ``Content-Length`` value, sent after the first.
    repeated_length: Optional[str] = None
    #: A field line without a colon, sent after ``Host``.
    no_colon: Optional[str] = None
    connection: Optional[str] = None
    newline: str = "\r\n"

    @property
    def malformed(self) -> bool:
        """Whether the head is one the gateway refuses with 400."""
        return self.no_colon is not None or (
            self.body is not None and self.repeated_length is not None)

    @property
    def keep_alive(self) -> bool:
        """Whether the request leaves its connection open."""
        if self.connection is not None:
            return self.connection == "keep-alive"
        return self.version == "HTTP/1.1"

    def encode(self) -> bytes:
        lines = [f"{self.method} {self.target} {self.version}", "Host: t"]
        if self.no_colon is not None:
            lines.append(self.no_colon)
        if self.connection is not None:
            lines.append(f"Connection: {self.connection}")
        if self.accept is not None:
            lines.append(f"Accept: {self.accept}")
        if self.transfer_encoding is not None:
            lines.append(f"Transfer-Encoding: {self.transfer_encoding}")
        if self.body is not None:
            length = (str(len(self.body)) if self.length == "exact"
                      else self.length)
            lines.append(f"Content-Length: {length}")
            if self.repeated_length is not None:
                lines.append(f"Content-Length: {self.repeated_length}")
        head = self.newline.join(lines + ["", ""]).encode("latin-1")
        return head + (self.body or b"")


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=10)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=6),
                      children, max_size=3),
    max_leaves=8,
)
bodies = st.one_of(
    json_values.map(lambda value: json.dumps(value).encode("utf-8")),
    st.binary(max_size=64),
    st.integers(min_value=1, max_value=100_000).map(lambda n: b"[" * n),
)
lengths = st.one_of(
    st.just("exact"),
    st.integers(max_value=-1).map(str),
    st.text(alphabet=string.ascii_letters + "+-. ", min_size=1,
            max_size=6),
)


@st.composite
def raw_requests(draw) -> RawRequest:
    method = draw(st.sampled_from(["GET", "POST", "HEAD", "PUT", "DELETE"])
                  | st.text(alphabet=string.ascii_uppercase, min_size=1,
                            max_size=8))
    path = draw(st.one_of(
        st.sampled_from(["/healthz", "/metrics"]),
        st.sampled_from(sorted(QUERY_ENDPOINTS)).map(lambda e: f"/v1/{e}"),
        st.text(alphabet=TOKEN, max_size=12).map(lambda t: f"/v1/{t}"),
        st.text(max_size=20).map(lambda t: "/" + urllib.parse.quote(t)),
    ))
    query = draw(st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=8),
                                 st.text(max_size=12), max_size=3))
    body = draw(st.none() | bodies)
    repeated_length = None
    if body is not None:
        repeated_length = draw(st.none() | st.just(str(len(body)))
                               | st.integers(min_value=0).map(str))
    return RawRequest(
        method=method,
        target=path + ("?" + urllib.parse.urlencode(query) if query else ""),
        version=draw(st.sampled_from(["HTTP/1.0", "HTTP/1.1"])),
        accept=draw(st.none() | st.sampled_from(
            ["application/json", "text/plain", "*/*"]) | HEADER_TEXT),
        body=body,
        length=draw(lengths) if body is not None else "exact",
        transfer_encoding=draw(st.none() | st.sampled_from(
            ["chunked", "gzip, chunked", "identity"]) | HEADER_TEXT),
        repeated_length=repeated_length,
        no_colon=draw(st.none() | st.text(alphabet=TOKEN + " ", min_size=1,
                                          max_size=12)),
        connection=draw(st.sampled_from([None, "keep-alive", "close"])),
        newline=draw(st.sampled_from(["\r\n", "\n"])),
    )


@pytest.fixture(scope="module")
def wire_server(service):
    server = create_server(service, workers=4)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


@settings(max_examples=400, deadline=None)
@given(request=raw_requests())
@example(request=RawRequest("PUT", "/v1/summary"))
@example(request=RawRequest("POST", "/v1/summary", body=b"{}", length="-1"))
@example(request=RawRequest("POST", "/v1/summary", body=b"[" * 100_000))
@example(request=RawRequest("GET", "/v1/providers?top=--5"))
@example(request=RawRequest("GET", "/v1/summary", body=b"hello"))
@example(request=RawRequest("POST", "/v1/summary",
                            body=b"2\r\n{}\r\n0\r\n\r\n",
                            transfer_encoding="chunked"))
@example(request=RawRequest("POST", "/v1/summary", body=b"{}" + SECOND_REQUEST,
                            length="2",
                            repeated_length=str(2 + len(SECOND_REQUEST))))
@example(request=RawRequest("POST", "/v1/summary", body=SECOND_REQUEST,
                            no_colon="bogus"))
@example(request=RawRequest("POST", "/v1/summary", body=b"{}", newline="\n"))
@example(request=RawRequest("GET", "/v1/summary", version="HTTP/1.0",
                            connection="keep-alive"))
@example(request=RawRequest("GET", "/v1/summary", connection="close"))
def test_every_request_gets_a_structured_answer(wire_server, service,
                                                request):
    address = wire_server.server_address[:2]
    with socket.create_connection(address, timeout=3) as sock, \
            sock.makefile("rb") as stream:
        sock.sendall(request.encode())
        status, headers, body = read_response(stream, method=request.method)
        assert status == 200 or 400 <= status < 500 or status == 501, status
        if request.malformed:
            assert status == 400
            assert headers["Connection"] == "close"
        if request.method == "HEAD":
            assert body == b""
        elif headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE:
            assert status == 200
            assert body.decode("utf-8").endswith("\n")
        else:
            assert headers["Content-Type"] == "application/json"
            answer = json.loads(body)
            if status != 200:
                assert isinstance(answer["error"]["code"], str)

        # A connection stays open if the request asked for it and the
        # answer does not say otherwise.
        if request.keep_alive and headers.get("Connection") != "close":
            sock.sendall(SECOND_REQUEST)
            status, _, body = read_response(stream)
            assert status == 200
            assert body == json.dumps(service.query("providers", {"top": "2"}),
                                      sort_keys=True).encode("utf-8")
        else:
            assert stream.read() == b""  # nothing more was answered

    status, _, body = raw_exchange(address, b"GET /healthz HTTP/1.1\r\n"
                                            b"Host: t\r\n\r\n")
    assert status == 200
    assert json.loads(body)["status"] == "ok"
