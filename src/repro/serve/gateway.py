"""Stdlib HTTP gateway over a :class:`~repro.serve.service.DatasetService`.

Endpoints::

    GET  /healthz                     liveness + dataset identity (JSON)
    GET  /metrics                     per-query counters/latency/inflight
                                      (JSON by default; Prometheus text
                                      via ?format=prometheus or an
                                      Accept: text/plain header)
    GET  /v1/<endpoint>?a=b&c=d       query-string parameters (JSON)
    POST /v1/<endpoint>  {...}        JSON-body parameters (JSON)

``<endpoint>`` is one of the :data:`~repro.serve.schemas.QUERY_ENDPOINTS`
names.  GET and POST validate identically (the schemas coerce
query-string forms), so ``curl`` one-liners and programmatic clients
see the same behavior; ``HEAD`` answers as ``GET`` does, head only.
Every client error is a structured body ``{"error": {"code",
"message"[, "field"]}}`` with a 4xx status; unexpected server failures
answer 500 with code ``internal`` and no traceback leakage.

The request head: :class:`_Handler` reads the request line and the
header fields itself into a dict of lower-cased names (the first of a
repeated field wins) and writes each response head itself; no request
reaches ``http.client.parse_headers``, the ``email`` parser,
``send_response`` or ``send_header``.  The gateway reads five fields:
``Content-Length``, ``Transfer-Encoding``, ``Connection``, ``Expect``
and ``Accept``.  It refuses, in the same error shape, with one stable
code per status, and closing the connection: an unsupported method
(501), an over-long request line (414), a header line over 65,536
bytes or 100 header lines or more (431), an ``HTTP/2`` or later
version (505), and a malformed request line or header block (400).  A
header block is malformed if a line has no colon, or anything but
visible ASCII before it (whitespace before the colon, an obs-fold
continuation line), if a line holds a bare CR, or if
``Content-Length`` is repeated: a proxy could frame such a request
differently and read its body as a second request.  A request body
the gateway cannot frame closes the connection too: a
``Content-Length`` that is unusable (400) or too large (413), or any
``Transfer-Encoding`` (411, ``length-required``).  The end of such a
body is unknown, so nothing after it can be read as the next request.
GET and POST both read their body before answering: a keep-alive
connection's next request starts where the body ends.  As in
``http.server``, a line may end in CRLF or a bare LF, HTTP/1.0 closes
after its answer unless it asks for ``Connection: keep-alive``, and a
two-word request line is HTTP/0.9: a GET, answered with its body only,
after which the connection closes whatever its ``Connection`` field
says (a body-only answer ends only at EOF).

Answers: a query's 200 body comes from
:meth:`~repro.serve.service.DatasetService.query_bytes`, which encodes
an answer once and hands a repeated request the stored bytes.  The
gateway encodes only error bodies, ``/healthz`` and ``/metrics``.

Tracing: with a trace log, the request runs under its own
:class:`~repro.obs.Tracer`.  The gateway opens ``serve.request``
around the service's ``parse``, ``dispatch`` and ``render`` spans
(``render`` encodes a missed answer or hands back a stored one); for
an error it opens the ``render`` span around the error body itself.
Without a trace log the same code runs its spans through
:func:`~repro.serve.tracing.null_span`.

Wire: every response -- status line, headers and body -- leaves in one
socket write, and accepted connections set TCP_NODELAY.  Two writes
would let Nagle hold the second until the client's delayed ACK
(~40 ms per keep-alive request).  The head keeps ``http.server``'s
bytes -- status line, ``Server``, ``Date``, an optional ``Connection:
close``, ``Content-Type``, ``Content-Length`` -- and its ``Date`` is
formatted at most once a second.

Concurrency: ``ThreadingHTTPServer`` spawns unboundedly by default, so
:class:`DatasetHTTPServer` routes connections through a bounded
``ThreadPoolExecutor``.  A keep-alive connection holds its pool thread
for its whole life, so ``--workers N`` caps concurrent connections,
and excess connections queue instead of piling up threads.  A
connection idle for :data:`IDLE_TIMEOUT_S` is closed, which frees its
thread for a queued one and bounds how long shutdown waits.
Responses carry accurate ``Content-Length`` so HTTP/1.1 keep-alive
works for closed-loop load generators.
"""

from __future__ import annotations

import json
import re
import time
import urllib.parse
from concurrent.futures import ThreadPoolExecutor
from email.utils import formatdate
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Mapping, Optional

from repro.obs import Tracer
from repro.obs.exposition import PROMETHEUS_CONTENT_TYPE, render_prometheus
from repro.serve.errors import RequestError
from repro.serve.service import DatasetService
from repro.serve.tracing import RequestTraceLog, measure_ms, null_span

#: Largest accepted request body; queries are tiny, anything bigger is
#: a client bug or abuse.
MAX_BODY_BYTES = 1 << 20

#: Seconds a connection may sit idle (or stall mid-request) before the
#: gateway closes it and frees its pool thread.
IDLE_TIMEOUT_S = 5.0

#: The error code of each status answered through ``send_error``:
#: refused request lines and heads, and unframeable request bodies.
SEND_ERROR_CODES = {
    HTTPStatus.BAD_REQUEST: "bad-request",
    HTTPStatus.LENGTH_REQUIRED: "length-required",
    HTTPStatus.REQUEST_ENTITY_TOO_LARGE: "too-large",
    HTTPStatus.REQUEST_URI_TOO_LONG: "uri-too-long",
    HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE: "headers-too-large",
    HTTPStatus.NOT_IMPLEMENTED: "unsupported-method",
    HTTPStatus.HTTP_VERSION_NOT_SUPPORTED: "unsupported-version",
}

#: Longest request or header line, and most lines in a head (its blank
#: line included): ``http.server``'s limits.
_MAX_LINE_BYTES = 65536
_MAX_HEAD_LINES = 100

#: A header field line: a name of visible ASCII but ``:``, the colon,
#: optional blanks, then the value up to a CRLF or bare LF (or EOF).
#: A line that does not match -- no colon, whitespace or a control byte
#: before it, an obs-fold continuation, a bare CR -- is refused.
_FIELD_LINE = re.compile(r"([!-9;-~]*):[ \t]*([^\r\n]*)\r?\n?")

#: Each status's line and the ``Server`` header that follows it.
_STATUS_HEADS = {
    status.value: b"HTTP/1.1 %d %s\r\nServer: %s %s\r\n" % (
        status.value, status.phrase.encode("latin-1"),
        BaseHTTPRequestHandler.server_version.encode("latin-1"),
        BaseHTTPRequestHandler.sys_version.encode("latin-1"))
    for status in HTTPStatus
}


class DatasetHTTPServer(ThreadingHTTPServer):
    """A ``ThreadingHTTPServer`` with a bounded connection-thread pool."""

    daemon_threads = True

    def __init__(self, address, handler_class, service: DatasetService,
                 *, workers: int = 8,
                 trace_log: Optional[RequestTraceLog] = None) -> None:
        super().__init__(address, handler_class)
        self.service = service
        #: When set, every /v1 request runs under its own Tracer and
        #: lands in the bounded on-disk trace ring (plus the slow-query
        #: log past its threshold).  None means requests run untraced.
        self.trace_log = trace_log
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="serve"
        )
        #: (second, its ``Date`` header line), replaced whole so that a
        #: request thread never reads one second's number with another
        #: second's line.
        self._date = (0, b"")

    def date_line(self) -> bytes:
        """This second's ``Date`` header line, formatted once a second."""
        second = int(time.time())
        current = self._date
        if current[0] != second:
            current = self._date = (second, b"Date: %s\r\n" % formatdate(
                second, usegmt=True).encode("ascii"))
        return current[1]

    def process_request(self, request, client_address) -> None:
        # Submit to the bounded pool instead of one-thread-per-request.
        self._pool.submit(self.process_request_thread,
                          request, client_address)

    def server_close(self) -> None:
        super().server_close()
        self._pool.shutdown(wait=False)

    def close(self) -> None:
        """Stop accepting, drop the pool, release the dataset."""
        self.server_close()
        self.service.close()


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # stdlib's StreamRequestHandler sets TCP_NODELAY on each connection.
    disable_nagle_algorithm = True
    server: DatasetHTTPServer

    @property
    def timeout(self) -> float:
        """The connection's socket timeout: :data:`IDLE_TIMEOUT_S`.

        On expiry stdlib's ``handle_one_request`` closes the connection.
        """
        return IDLE_TIMEOUT_S

    # ------------------------------------------------------------- head

    def parse_request(self) -> bool:
        """Parse ``raw_requestline`` and the header fields after it.

        Sets ``command``, ``path``, ``request_version``, ``headers`` (a
        dict of lower-cased names) and ``close_connection`` as
        ``http.server`` does; returns False once a refusal is sent, or
        for an empty request line.
        """
        self.command = None
        self.request_version = "HTTP/0.9"  # until the version parses
        self.close_connection = True
        requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        words = requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            version = words[-1]
            major, dot, minor = version[5:].partition(".")
            if not (version.startswith("HTTP/") and dot
                    and major.isdecimal() and minor.isdecimal()
                    and len(major) <= 10 and len(minor) <= 10):
                self.send_error(HTTPStatus.BAD_REQUEST,
                                f"Bad request version ({version!r})")
                return False
            number = int(major), int(minor)
            if number >= (2, 0):
                self.send_error(HTTPStatus.HTTP_VERSION_NOT_SUPPORTED,
                                f"Invalid HTTP version ({version[5:]})")
                return False
            self.close_connection = number < (1, 1)
            self.request_version = version
        if not 2 <= len(words) <= 3:
            self.send_error(HTTPStatus.BAD_REQUEST,
                            f"Bad request syntax ({requestline!r})")
            return False
        command, path = words[:2]
        if len(words) == 2:
            self.close_connection = True
            if command != "GET":
                self.send_error(HTTPStatus.BAD_REQUEST,
                                f"Bad HTTP/0.9 request type ({command!r})")
                return False
        # A target starting "//" would read as a scheme-relative URL.
        self.command = command
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path

        headers = {}
        for _ in range(_MAX_HEAD_LINES):
            line = self.rfile.readline(_MAX_LINE_BYTES + 1)
            if len(line) > _MAX_LINE_BYTES:
                self.send_error(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                                "Line too long")
                return False
            if line in (b"\r\n", b"\n", b""):
                break
            field = _FIELD_LINE.fullmatch(str(line, "iso-8859-1"))
            if field is None:
                self.send_error(HTTPStatus.BAD_REQUEST,
                                "malformed header line")
                return False
            name, value = field.groups()
            name = name.lower()
            if name == "content-length" and name in headers:
                self.send_error(HTTPStatus.BAD_REQUEST,
                                "repeated Content-Length")
                return False
            if name and name not in headers:  # ": x" names nothing
                headers[name] = value
        else:
            self.send_error(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                            "Too many headers")
            return False
        self.headers = headers

        connection = headers.get("connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif (connection == "keep-alive"
              and self.request_version != "HTTP/0.9"):
            self.close_connection = False
        # The version compares as a string, as in http.server.
        if (headers.get("expect", "").lower() == "100-continue"
                and self.request_version >= "HTTP/1.1"):
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        return True

    # --------------------------------------------------------- plumbing

    def log_message(self, format: str, *args) -> None:
        # Per-request stderr chatter off; /metrics is the signal.
        pass

    def _send(self, status: int, body: bytes,
              content_type: bytes = b"application/json", *,
              close: bool = False) -> None:
        """Write one response -- status line, headers, body -- at once."""
        if close:
            self.close_connection = True
        if self.request_version == "HTTP/0.9":  # 0.9 answers have no head
            self.wfile.write(body)
            return
        head = b"%s%s%sContent-Type: %s\r\nContent-Length: %d\r\n\r\n" % (
            _STATUS_HEADS[status], self.server.date_line(),
            b"Connection: close\r\n" if close else b"", content_type,
            len(body))
        self.wfile.write(head if self.command == "HEAD" else head + body)

    def _send_json(self, status: int, payload: dict, *,
                   close: bool = False) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._send(status, body, close=close)

    def _send_error_json(self, error: RequestError) -> None:
        self._send_json(error.status, {"error": error.to_dict()})

    def send_error(self, code: int, message: Optional[str] = None,
                   explain: Optional[str] = None) -> None:
        """Answer a refused request in the JSON error shape and close.

        ``http.server``'s ``handle_one_request`` calls this for a method
        without a ``do_*`` (501) and an over-long request line (414);
        :meth:`parse_request` and :meth:`_read_body` for the rest.
        """
        status = HTTPStatus(code)
        error = RequestError(SEND_ERROR_CODES.get(status, "http-error"),
                             message or status.phrase)
        self._send_json(status, {"error": error.to_dict()}, close=True)

    def _read_body(self) -> Optional[bytes]:
        """The request body; None (answered, closing) if it cannot be
        framed by its ``Content-Length``."""
        if "transfer-encoding" in self.headers:
            self.send_error(HTTPStatus.LENGTH_REQUIRED,
                            "Transfer-Encoding is not supported; "
                            "send Content-Length")
            return None
        length = self.headers.get("content-length")
        if length is None:
            return b""
        try:
            size = int(length)
        except ValueError:
            size = -1
        if size < 0:
            self.send_error(HTTPStatus.BAD_REQUEST, "invalid Content-Length")
            return None
        if size > MAX_BODY_BYTES:
            self.send_error(HTTPStatus.REQUEST_ENTITY_TOO_LARGE,
                            "request body too large")
            return None
        return self.rfile.read(size)

    # ---------------------------------------------------------- methods

    def do_GET(self) -> None:
        # Read and drop any body: a keep-alive connection's next
        # request starts where it ends.
        if self._read_body() is None:
            return
        target = urllib.parse.urlsplit(self.path)
        path = target.path
        if path == "/healthz":
            self._send_json(200, self.server.service.healthz())
        elif path == "/metrics":
            self._send_metrics(target.query)
        elif path.startswith("/v1/"):
            self._answer(path[len("/v1/"):], _query_params(target.query))
        else:
            self._send_error_json(RequestError(
                "not-found", f"no such path {path!r}; queries live under "
                f"/v1/<endpoint>", status=404))

    # ``_send`` writes a HEAD answer's head alone.
    do_HEAD = do_GET

    def do_POST(self) -> None:
        raw = self._read_body()
        if raw is None:
            return
        path = urllib.parse.urlsplit(self.path).path
        if not path.startswith("/v1/"):
            self._send_error_json(RequestError(
                "not-found",
                "POST queries live under /v1/<endpoint>", status=404))
            return
        try:
            payload = _json_object(raw)
        except RequestError as exc:
            self._send_error_json(exc)
            return
        self._answer(path[len("/v1/"):], payload)

    def _send_metrics(self, query: str) -> None:
        """Answer /metrics with content negotiation.

        Explicit ``?format=json|prometheus`` wins; otherwise an
        ``Accept`` header asking for ``text/plain`` (a Prometheus
        scraper) gets exposition text, and everything else keeps the
        original JSON body for backward compatibility.
        """
        requested = _query_params(query).get("format")
        if requested is None:
            accept = self.headers.get("accept", "")
            requested = ("prometheus"
                         if "text/plain" in accept
                         and "application/json" not in accept
                         else "json")
        if requested == "json":
            self._send_json(200, self.server.service.metrics_snapshot())
        elif requested == "prometheus":
            self._send(
                200,
                render_prometheus(
                    self.server.service.metrics_snapshot()).encode("utf-8"),
                PROMETHEUS_CONTENT_TYPE.encode("latin-1"),
            )
        else:
            self._send_error_json(RequestError(
                "bad-format",
                f"unknown metrics format {requested!r}; expected "
                f"'json' or 'prometheus'", field="format"))

    def _answer(self, endpoint: str, payload: Mapping) -> None:
        """Answer one query; with a trace log, trace it into the ring.

        The trace is written only after the answer has been sent, so
        tracing adds no latency before the bytes.
        """
        trace_log = self.server.trace_log
        tracer = None if trace_log is None else Tracer()
        span = null_span if tracer is None else tracer.span
        start_ns = time.perf_counter_ns()
        status, error = 200, None
        with span("serve.request", endpoint=endpoint):
            try:
                body = self.server.service.query_bytes(endpoint, payload,
                                                       tracer=tracer)
            except RequestError as exc:
                error = exc
            except Exception:
                error = RequestError("internal", "internal server error",
                                     status=500)
            if error is not None:
                status = error.status
                with span("render"):
                    body = json.dumps({"error": error.to_dict()},
                                      sort_keys=True).encode("utf-8")
        self._send(status, body)
        if trace_log is not None:
            trace_log.record(endpoint, payload=dict(payload), tracer=tracer,
                             duration_ms=measure_ms(start_ns), status=status,
                             error=None if error is None else error.to_dict())


def _query_params(query: str) -> dict:
    """A query string's fields; the last of a repeated field wins."""
    return dict(urllib.parse.parse_qsl(query, keep_blank_values=True))


def _json_object(raw: bytes) -> Mapping:
    """A POST body's JSON object; an empty body is an empty query."""
    if not raw:
        return {}
    try:
        payload = json.loads(raw)
    except (ValueError, RecursionError):  # RecursionError: deep nesting
        raise RequestError("bad-json", "request body is not valid JSON")
    if not isinstance(payload, dict):
        raise RequestError("bad-type", "request body must be an object")
    return payload


def create_server(service: DatasetService, *, host: str = "127.0.0.1",
                  port: int = 0, workers: int = 8,
                  trace_log: Optional[RequestTraceLog] = None
                  ) -> DatasetHTTPServer:
    """Bind a gateway for ``service``; ``port=0`` picks a free port.

    The caller runs ``serve_forever()`` (typically on a thread) and
    ``close()`` when done -- closing the server also closes the
    service's backing store.  Pass a :class:`RequestTraceLog` to trace
    every request into its bounded on-disk ring.
    """
    return DatasetHTTPServer((host, port), _Handler, service,
                             workers=workers, trace_log=trace_log)


__all__ = ["DatasetHTTPServer", "IDLE_TIMEOUT_S", "MAX_BODY_BYTES",
           "create_server"]
