"""Serve-layer fixtures: one warm service + one live gateway.

The service wraps the shared session ``tiny_dataset`` (BR/US/FR), so
index build cost is paid once; on-disk forms (jsonl, store) are
written once per session for the load-path equivalence tests.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro import Pipeline, SyntheticWorld, WorldConfig
from repro.io import save_dataset
from repro.serve import DatasetService, create_server
from repro.store import write_store


@pytest.fixture(scope="session")
def tiny_jsonl(tmp_path_factory, tiny_dataset):
    path = tmp_path_factory.mktemp("serve") / "tiny.jsonl"
    save_dataset(tiny_dataset, path)
    return path


@pytest.fixture(scope="session")
def serve_store_dir(tmp_path_factory, tiny_dataset):
    path = tmp_path_factory.mktemp("serve") / "tiny.store"
    write_store(tiny_dataset, path)
    return path


@pytest.fixture(scope="session")
def faulted_dataset():
    """A small faulted run: degraded records and a fault report."""
    world = SyntheticWorld.generate(WorldConfig(
        seed=11, scale=0.05, countries=("BR", "US"), fault_rate=0.3,
    ))
    return Pipeline(world).run()


@pytest.fixture(scope="session")
def service(tiny_dataset) -> DatasetService:
    """A warm service over the shared in-memory dataset."""
    return DatasetService(tiny_dataset)


@pytest.fixture()
def http_server(service):
    server = create_server(service, workers=4)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    # server_close, not close(): the session-scoped service stays warm.
    server.server_close()
    thread.join(timeout=5)


@pytest.fixture()
def base_url(http_server) -> str:
    host, port = http_server.server_address[:2]
    return f"http://{host}:{port}"


def http_get(url: str):
    """(status, parsed JSON body) of a GET, errors included."""
    try:
        with urllib.request.urlopen(url) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as exc:
        return exc.code, json.load(exc)


def http_post(url: str, payload) -> tuple:
    """(status, parsed JSON body) of a POST, errors included."""
    data = payload if isinstance(payload, bytes) else \
        json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as exc:
        return exc.code, json.load(exc)


def read_response(stream, *, method: str = "GET") -> tuple:
    """(status, headers, body) of the next response on ``stream``, a
    socket's binary file, read by its ``Content-Length`` so the stream
    stays positioned at the response after it."""
    version, status, _ = stream.readline().decode("latin-1").split(" ", 2)
    assert version == "HTTP/1.1", version
    headers = http.client.parse_headers(stream)
    length = 0 if method == "HEAD" else int(headers["Content-Length"])
    return int(status), headers, stream.read(length)


def raw_exchange(address, request: bytes, *, method: str = "GET",
                 timeout: float = 3.0) -> tuple:
    """(status, headers, body) of raw ``request`` bytes sent on a fresh
    socket; a server that hangs raises TimeoutError after ``timeout``."""
    with socket.create_connection(address, timeout=timeout) as sock, \
            sock.makefile("rb") as stream:
        sock.sendall(request)
        return read_response(stream, method=method)
