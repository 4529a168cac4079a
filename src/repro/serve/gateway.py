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
see the same behavior.  Every client error is a structured body
``{"error": {"code", "message"[, "field"]}}`` with a 4xx status;
unexpected server failures answer 500 with code ``internal`` and no
traceback leakage.

Errors that ``http.server`` raises itself before a handler runs (an
unsupported method answers 501, an over-long request line 414, too
many or too long headers 431, a malformed request line 400) use the
same error shape, with one stable code per status, and close the
connection as stdlib does.  So does a request body the gateway cannot
frame: a ``Content-Length`` that is unusable (400) or too large (413),
or any ``Transfer-Encoding`` (411, ``length-required``).  The end of
such a body is unknown, so nothing after it can be read as the next
request.  GET and POST both read their body before answering: a
keep-alive connection's next request starts where the body ends.

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
(~40 ms per keep-alive request).

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
import time
import urllib.parse
from concurrent.futures import ThreadPoolExecutor
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

#: The error code of each status answered through ``send_error``: the
#: errors ``http.server`` raises itself, and unframeable request bodies.
SEND_ERROR_CODES = {
    HTTPStatus.BAD_REQUEST: "bad-request",
    HTTPStatus.LENGTH_REQUIRED: "length-required",
    HTTPStatus.REQUEST_ENTITY_TOO_LARGE: "too-large",
    HTTPStatus.REQUEST_URI_TOO_LONG: "uri-too-long",
    HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE: "headers-too-large",
    HTTPStatus.NOT_IMPLEMENTED: "unsupported-method",
    HTTPStatus.HTTP_VERSION_NOT_SUPPORTED: "unsupported-version",
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

    # --------------------------------------------------------- plumbing

    def log_message(self, format: str, *args) -> None:
        # Per-request stderr chatter off; /metrics is the signal.
        pass

    def _send(self, status: int, body: bytes, content_type: str, *,
              close: bool = False) -> None:
        """Write one response -- status line, headers, body -- at once."""
        self.send_response(status)
        if close:
            self.send_header("Connection", "close")
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        # What end_headers() would send on its own, joined to the body.
        head = b""
        if self.request_version != "HTTP/0.9":  # 0.9 answers have no head
            head = b"".join(self._headers_buffer) + b"\r\n"
            self._headers_buffer = []
        self.wfile.write(head if self.command == "HEAD" else head + body)

    def _send_json(self, status: int, payload: dict, *,
                   close: bool = False) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._send(status, body, "application/json", close=close)

    def _send_error_json(self, error: RequestError) -> None:
        self._send_json(error.status, {"error": error.to_dict()})

    def send_error(self, code: int, message: Optional[str] = None,
                   explain: Optional[str] = None) -> None:
        """Answer an error in the JSON error shape and close.

        ``http.server`` calls this for requests it refuses before a
        ``do_*`` method runs.  Statuses that carry no body (1xx, 204,
        205, 304) keep stdlib's headers-only answer.
        """
        status = HTTPStatus(code)
        if status < 200 or status in (HTTPStatus.NO_CONTENT,
                                      HTTPStatus.RESET_CONTENT,
                                      HTTPStatus.NOT_MODIFIED):
            super().send_error(code, message, explain)
            return
        error = RequestError(SEND_ERROR_CODES.get(status, "http-error"),
                             message or status.phrase)
        self._send_json(status, {"error": error.to_dict()}, close=True)

    def _read_body(self) -> Optional[bytes]:
        """The request body; None (answered, closing) if it cannot be
        framed by its ``Content-Length``."""
        if "Transfer-Encoding" in self.headers:
            self.send_error(HTTPStatus.LENGTH_REQUIRED,
                            "Transfer-Encoding is not supported; "
                            "send Content-Length")
            return None
        length = self.headers.get("Content-Length")
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

    def _query_params(self) -> dict:
        parsed = urllib.parse.urlsplit(self.path)
        return {
            key: values[-1]
            for key, values in urllib.parse.parse_qs(
                parsed.query, keep_blank_values=True
            ).items()
        }

    def _endpoint(self) -> Optional[str]:
        path = urllib.parse.urlsplit(self.path).path
        if path.startswith("/v1/"):
            return path[len("/v1/"):]
        return None

    # ---------------------------------------------------------- methods

    def do_GET(self) -> None:
        # Read and drop any body: a keep-alive connection's next
        # request starts where it ends.
        if self._read_body() is None:
            return
        path = urllib.parse.urlsplit(self.path).path
        if path == "/healthz":
            self._send_json(200, self.server.service.healthz())
            return
        if path == "/metrics":
            self._send_metrics()
            return
        endpoint = self._endpoint()
        if endpoint is None:
            self._send_error_json(RequestError(
                "not-found", f"no such path {path!r}; queries live under "
                f"/v1/<endpoint>", status=404))
            return
        self._answer(endpoint, self._query_params())

    def do_POST(self) -> None:
        raw = self._read_body()
        if raw is None:
            return
        endpoint = self._endpoint()
        if endpoint is None:
            self._send_error_json(RequestError(
                "not-found",
                "POST queries live under /v1/<endpoint>", status=404))
            return
        try:
            payload = _json_object(raw)
        except RequestError as exc:
            self._send_error_json(exc)
            return
        self._answer(endpoint, payload)

    def _send_metrics(self) -> None:
        """Answer /metrics with content negotiation.

        Explicit ``?format=json|prometheus`` wins; otherwise an
        ``Accept`` header asking for ``text/plain`` (a Prometheus
        scraper) gets exposition text, and everything else keeps the
        original JSON body for backward compatibility.
        """
        requested = self._query_params().get("format")
        if requested is None:
            accept = self.headers.get("Accept", "")
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
                PROMETHEUS_CONTENT_TYPE,
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
        self._send(status, body, "application/json")
        if trace_log is not None:
            trace_log.record(endpoint, payload=dict(payload), tracer=tracer,
                             duration_ms=measure_ms(start_ns), status=status,
                             error=None if error is None else error.to_dict())


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
