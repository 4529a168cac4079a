"""Concurrent analysis query service.

The batch path (``repro-gov report``) re-opens and re-indexes a
dataset per invocation; this package is the long-running twin: load a
dataset once (jsonl export or columnar store directory), keep its
:class:`~repro.analysis.engine.AnalysisIndex` warm (built from the
records, or attached over the store's shards), and answer
parameterized queries from many concurrent clients.

Split gateway/service style:

* :class:`DatasetService` (``service.py``) -- the query engine: typed
  request dataclasses (``schemas.py``) validated into one handler per
  endpoint, each returning its JSON-ready answer dict, and a bounded
  memo of each request's encoded body for the gateway; structured
  validation errors (``errors.py``); per-query counters/latency
  histograms/in-flight gauge on a thread-safe :mod:`repro.obs`
  registry (``metrics.py``);
* :func:`create_server` (``gateway.py``) -- a stdlib
  ``ThreadingHTTPServer`` JSON gateway over a bounded worker pool,
  exposing each query plus ``/healthz`` and ``/metrics``, with
  optional per-request traces (``tracing.py``);
* :func:`open_any_dataset` (``loader.py``) -- one loader for both
  on-disk dataset forms, shared with the CLI.

Consistency guarantee: every response is computed from the same index
tables and formatting helpers as the batch report path, so report
fragments are byte-identical to ``repro-gov report`` output and all
numeric answers equal their ``repro.analysis`` counterparts -- under
any number of concurrent clients (the index memoizes under locks; see
the engine's concurrency contract).
"""

from repro.serve.errors import RequestError, ServeError
from repro.serve.gateway import DatasetHTTPServer, create_server
from repro.serve.loader import LoadedDataset, open_any_dataset
from repro.serve.metrics import ServiceMetrics
from repro.serve.schemas import (
    CategoryMixRequest,
    CrossborderRequest,
    ProvidersRequest,
    QUERY_ENDPOINTS,
    ReportRequest,
    SummaryRequest,
)
from repro.serve.service import DatasetService
from repro.serve.tracing import (
    DEFAULT_SLOW_MS,
    DEFAULT_TRACE_RING,
    RequestTraceLog,
)

__all__ = [
    "CategoryMixRequest",
    "CrossborderRequest",
    "DEFAULT_SLOW_MS",
    "DEFAULT_TRACE_RING",
    "DatasetHTTPServer",
    "DatasetService",
    "LoadedDataset",
    "ProvidersRequest",
    "QUERY_ENDPOINTS",
    "ReportRequest",
    "RequestError",
    "RequestTraceLog",
    "ServeError",
    "ServiceMetrics",
    "SummaryRequest",
    "create_server",
    "open_any_dataset",
]
