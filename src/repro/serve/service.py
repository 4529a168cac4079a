"""The query engine behind the gateway.

:class:`DatasetService` loads a dataset once (or adopts an
already-loaded one), forces the analysis index warm, and answers typed
queries from any number of threads: one table maps each endpoint to
the handler that takes its validated request and returns the
JSON-ready answer dict.  Every answer is computed by the
same :mod:`repro.analysis` functions and :mod:`repro.reporting`
renderers as the batch path, which is what makes service responses
byte-identical to ``repro-gov report`` output -- concurrency safety
comes from the index's locked memoization (see the engine's
concurrency contract), not from copies.

Encoded answers: the dataset never changes while it is served, so a
request has one answer.  :meth:`DatasetService.query_bytes`, the entry
point the gateway uses, keeps the encoded 200 body of each validated
request (keyed by the endpoint and the frozen request the schema
returns) and hands a repeated request those bytes without running its
handler again.  The memo is filled only by requests, never evicts, and
stores nothing that would take what it holds past
:data:`BODY_MEMO_BYTES`; error answers are never stored.
:meth:`DatasetService.query` decodes the same bytes, so the dict an
in-process caller gets is the body the gateway sends.

Validation layering: the schemas reject structurally bad requests
before the service sees them; the service adds the semantic checks
that need the dataset (is this country in the sample?) and raises the
same :class:`~repro.serve.errors.RequestError` with ``status=404``.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import threading
from typing import Mapping, Optional, Sequence, Union

from repro.analysis.engine import ensure_index
from repro.core.dataset import GovernmentHostingDataset
from repro.obs import events as obs_events
from repro.obs.trace import Tracer
from repro.serve.errors import RequestError
from repro.serve.loader import LoadedDataset, open_any_dataset
from repro.serve.metrics import ServiceMetrics
from repro.serve.schemas import (
    QUERY_ENDPOINTS,
    CategoryMixRequest,
    CrossborderRequest,
    ProvidersRequest,
    ReportRequest,
    SummaryRequest,
    TrendsRequest,
)
from repro.serve.tracing import null_span

#: Cap on the bytes the memo of encoded answers keeps alive: each
#: stored body plus its request's field values (:func:`_entry_bytes`).
#: An entry that would take the total past it is sent but not stored,
#: and nothing is ever evicted.  The cap counts bytes, not entries,
#: because answers differ in size by orders of magnitude; a
#: ``crossborder`` request holds each source once, so its key and the
#: list its answer echoes are bounded by the dataset's countries.  At
#: scale 0.05 the largest answer of the benchmark mix (the full report)
#: is ~3.8 KB, the whole cross-border table ~7.3 KB, and 1,900 distinct
#: ``providers`` and ``crossborder`` answers take ~1.7 MB, so 16 MiB
#: keeps every answer of any realistic mix of repeated queries, while
#: the most a flood of distinct requests can pin is a quarter of the
#: ~70 MB resident set of a server over that dataset.
BODY_MEMO_BYTES = 16 << 20


class DatasetService:
    """Thread-safe queries over one warm dataset.

    Construct from an in-memory dataset, a :class:`LoadedDataset`, or
    via :meth:`open` from a path.  The constructor eagerly builds the
    analysis index and its summary table, so the first client request
    never pays the build cost and concurrent first requests cannot
    race an unbuilt index.
    """

    def __init__(self, source: Union[GovernmentHostingDataset,
                                     LoadedDataset], *,
                 history: Sequence[Union[GovernmentHostingDataset,
                                         LoadedDataset]] = ()) -> None:
        if isinstance(source, LoadedDataset):
            self._loaded: Optional[LoadedDataset] = source
            dataset = source.dataset
        else:
            self._loaded = None
            dataset = source
        self._dataset = dataset
        #: Earlier snapshots of the same series, oldest first; the
        #: served dataset is the latest.  The ``trends`` endpoint
        #: computes its curves over ``history + [dataset]`` (a single
        #: snapshot yields the degenerate one-point report).
        self._history: tuple[LoadedDataset, ...] = tuple(
            item for item in history if isinstance(item, LoadedDataset)
        )
        self._history_datasets: tuple[GovernmentHostingDataset, ...] = tuple(
            item.dataset if isinstance(item, LoadedDataset) else item
            for item in history
        )
        self._trend_report = None
        self._trend_lock = threading.Lock()
        self._index = ensure_index(dataset)
        self._index.summary()  # warm the hot table up front
        self.metrics = ServiceMetrics()
        #: Endpoint name -> handler of its validated request; the keys
        #: are the :data:`QUERY_ENDPOINTS` names.
        self._handlers = {
            "summary": self.summary,
            "categories": self.category_mix,
            "crossborder": self.crossborder,
            "providers": self.providers,
            "report": self.report,
            "trends": self.trends,
        }
        #: (endpoint, validated request) -> encoded 200 body; inserts
        #: and the bytes they hold (:func:`_entry_bytes`) are counted
        #: under the lock.
        self._bodies: dict[tuple, bytes] = {}
        self._memo_bytes = 0
        self._bodies_lock = threading.Lock()
        self._closed = False
        self._close_lock = threading.Lock()

    @classmethod
    def open(cls, path) -> "DatasetService":
        """Load a jsonl export or store directory and serve it."""
        return cls(open_any_dataset(path))

    # ----------------------------------------------------------- queries

    def query(self, endpoint: str, payload: Mapping, *,
              tracer: Optional[Tracer] = None) -> dict:
        """The answer of :meth:`query_bytes`, decoded: a fresh
        JSON-ready dict, so mutating it never changes a later answer.
        """
        return json.loads(self.query_bytes(endpoint, payload, tracer=tracer))

    def query_bytes(self, endpoint: str, payload: Mapping, *,
                    tracer: Optional[Tracer] = None) -> bytes:
        """Validate ``payload`` against ``endpoint``'s schema and answer
        with the body the gateway sends.

        Raises :class:`RequestError` for anything the client got wrong;
        errors are never stored.  The body is
        ``json.dumps(answer, sort_keys=True)`` in UTF-8.  A request
        whose (endpoint, validated request) already has a stored body
        gets those bytes without its handler running; a miss runs the
        handler, encodes the answer and stores the body while the memo's
        total stays within :data:`BODY_MEMO_BYTES`.  With ``tracer`` the
        spans are ``parse`` (the validation), ``dispatch`` (the lookup,
        and on a miss the handler) and ``render`` (on a miss the
        encoding; on a hit it only hands back the stored bytes), nested
        in whatever span the caller has open.  ``dispatch`` is tagged
        ``body``: ``"hit"`` or ``"built"``, ``memo_builds`` (the index
        tables the handler built, empty when every table was warm) and
        ``memo_hits`` (the hits reported).  Tracing is measurement only
        and never changes the answer (held by ``tests/serve``).
        """
        try:
            schema = QUERY_ENDPOINTS[endpoint]
        except KeyError:
            raise RequestError(
                "unknown-endpoint",
                f"unknown endpoint {endpoint!r}; expected one of "
                f"{', '.join(sorted(QUERY_ENDPOINTS))}",
                status=404,
            ) from None
        if not isinstance(payload, Mapping):
            raise RequestError("bad-type", "request body must be an object")
        span = null_span if tracer is None else tracer.span
        with self.metrics.track(endpoint):
            with span("parse"):
                request = schema.from_mapping(payload)
            key = (endpoint, request)
            with span("dispatch") as dispatch, \
                    obs_events.collecting() as events:
                body = self._bodies.get(key)
                if body is None:
                    answer = self._handlers[endpoint](request)
                if dispatch is not None:
                    dispatch.tags["memo_builds"] = sorted(
                        event.payload.get("table", "?") for event in events
                        if event.kind == "memo.build")
                    dispatch.tags["memo_hits"] = sum(
                        1 for event in events if event.kind == "memo.hit")
                    dispatch.tags["body"] = "built" if body is None else "hit"
            with span("render"):
                if body is None:
                    body = self._remember(key, json.dumps(
                        answer, sort_keys=True).encode("utf-8"))
        return body

    def _remember(self, key: tuple, body: bytes) -> bytes:
        """Store ``body`` under ``key`` if the memo has room for it.

        Returns the body to send: the one already stored when a
        concurrent miss of the same key stored first (the bytes are
        equal either way).
        """
        size = _entry_bytes(key[1], body)
        with self._bodies_lock:
            stored = self._bodies.get(key)
            if stored is not None:
                return stored
            if self._memo_bytes + size <= BODY_MEMO_BYTES:
                self._bodies[key] = body
                self._memo_bytes += size
        return body

    def summary(self, request: SummaryRequest) -> dict:
        return {"summary": dict(vars(self._index.summary()))}

    def category_mix(self, request: CategoryMixRequest) -> dict:
        from repro.analysis.hosting import fractions_of_counts

        country = self._known_country(request.country)
        counts = self._index.category_counts().get(country)
        if counts is None:
            # In the sample but produced no records (fully faulted):
            # an all-zero mix, same as fractions over empty tallies.
            from repro.categories import CATEGORY_ORDER

            counts = ((0,) * len(CATEGORY_ORDER),) * 2
        url_counts, byte_sums = counts
        tallies = byte_sums if request.weighting == "bytes" else url_counts
        return {
            "country": country,
            "weighting": request.weighting,
            "mix": {str(category): fraction for category, fraction
                    in fractions_of_counts(tallies).items()},
            "url_count": int(sum(url_counts)),
            "byte_count": int(sum(byte_sums)),
        }

    def crossborder(self, request: CrossborderRequest) -> dict:
        sources = [self._known_country(code, field="sources")
                   for code in request.sources]
        rows = self._index.crossborder_flow_table(request.basis)
        if sources:
            # The table is sorted by source, so a source set is a
            # concatenation of contiguous slices -- walking the (unique)
            # sources in order preserves the full table's ordering.
            slices = self._index.crossborder_flow_slices(request.basis)
            rows = [row for source in sorted(sources)
                    if source in slices
                    for row in rows[slice(*slices[source])]]
        return {
            "basis": request.basis,
            "sources": sources,
            "flows": [{"source": source, "destination": destination,
                       "url_count": urls, "byte_count": byte_count}
                      for source, destination, urls, byte_count in rows],
        }

    def providers(self, request: ProvidersRequest) -> dict:
        from repro.analysis.providers import global_provider_footprints

        return {
            "top": request.top,
            "providers": [
                {"asn": fp.asn, "name": fp.name,
                 "country_count": fp.country_count,
                 "countries": list(fp.countries)}
                for fp in global_provider_footprints(self._index)[:request.top]
            ],
        }

    def report(self, request: ReportRequest) -> dict:
        from repro.reporting import render_report_section

        return {"section": request.section,
                "text": render_report_section(self._index, request.section)}

    def trends(self, request: TrendsRequest) -> dict:
        report = self._trends()
        payload = report.to_dict()
        answer = {"snapshot_count": report.snapshot_count, "report": payload}
        if request.country is not None:
            country = request.country.upper()
            if country not in report.third_party_series:
                raise RequestError(
                    "unknown-country",
                    f"country {request.country!r} has no measurements "
                    "in this series",
                    field="country", status=404,
                )
            payload["hhi_series"] = {
                country: payload["hhi_series"][country]
            }
            payload["third_party_series"] = {
                country: payload["third_party_series"][country]
            }
            payload["migrations"] = [
                migration for migration in payload["migrations"]
                if migration["country"] == country
            ]
            answer["country"] = country
        return answer

    def _trends(self):
        """The series' TrendReport, computed at most once."""
        report = self._trend_report
        if report is None:
            with self._trend_lock:
                report = self._trend_report
                if report is None:
                    from repro.analysis.longitudinal import compute_trends

                    obs_events.emit("memo.build", table="trend_report")
                    snapshots = list(self._history_datasets)
                    snapshots.append(self._index)
                    report = compute_trends(snapshots)
                    self._trend_report = report
                    return report
        obs_events.emit("memo.hit", table="trend_report")
        return report

    # ------------------------------------------------------------ health

    def healthz(self) -> dict:
        """Liveness payload: dataset identity plus load."""
        payload = {
            "status": "ok",
            "countries": len(self._dataset.countries),
            "records": self._index.record_count,
            "inflight": self.metrics.inflight(),
        }
        if self._history_datasets:
            payload["snapshots"] = len(self._history_datasets) + 1
        if self._loaded is not None:
            payload["dataset"] = str(self._loaded.path)
            payload["kind"] = self._loaded.kind
        return payload

    def metrics_snapshot(self) -> dict:
        return self.metrics.snapshot()

    def close(self) -> None:
        """Release the backing store, if the service owns one."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
            if self._loaded is not None:
                self._loaded.close()
            for loaded in self._history:
                loaded.close()

    def __enter__(self) -> "DatasetService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ----------------------------------------------------------- helpers

    def _known_country(self, code: str, *, field: str = "country") -> str:
        normalized = code.upper()
        if normalized not in self._dataset.countries:
            raise RequestError(
                "unknown-country",
                f"country {code!r} is not in this dataset",
                field=field, status=404,
            )
        return normalized


def _entry_bytes(request, body: bytes) -> int:
    """The bytes a memo entry keeps alive: its body, and each field
    value of its request (a tuple field's items included)."""
    size = len(body)
    for field in dataclasses.fields(request):
        value = getattr(request, field.name)
        size += sys.getsizeof(value)
        if isinstance(value, tuple):
            size += sum(map(sys.getsizeof, value))
    return size


__all__ = ["BODY_MEMO_BYTES", "DatasetService"]
