"""The query engine behind the gateway.

:class:`DatasetService` loads a dataset once (or adopts an
already-loaded one), forces the analysis index warm, and answers typed
queries from any number of threads.  Every answer is computed by the
same :mod:`repro.analysis` functions and :mod:`repro.reporting`
renderers as the batch path, which is what makes service responses
byte-identical to ``repro-gov report`` output -- concurrency safety
comes from the index's locked memoization (see the engine's
concurrency contract), not from copies.

Validation layering: the schemas reject structurally bad requests
before the service sees them; the service adds the semantic checks
that need the dataset (is this country in the sample?) and raises the
same :class:`~repro.serve.errors.RequestError` with ``status=404``.
"""

from __future__ import annotations

import dataclasses
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
    CategoryMixResponse,
    CrossborderRequest,
    CrossborderResponse,
    FlowEntry,
    ProviderEntry,
    ProvidersRequest,
    ProvidersResponse,
    ReportRequest,
    ReportResponse,
    SummaryRequest,
    SummaryResponse,
    TrendsRequest,
    TrendsResponse,
)


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
        #: Per-basis FlowEntry renderings of the index's sorted flow
        #: table, built once under the lock -- the /v1/crossborder tail
        #: came from every first-hit-per-thread re-sorting and
        #: re-wrapping the whole table.
        self._flow_entries: dict[str, tuple[FlowEntry, ...]] = {}
        self._flow_lock = threading.Lock()
        self._closed = False
        self._close_lock = threading.Lock()

    @classmethod
    def open(cls, path) -> "DatasetService":
        """Load a jsonl export or store directory and serve it."""
        return cls(open_any_dataset(path))

    # ----------------------------------------------------------- queries

    def query(self, endpoint: str, payload: Mapping, *,
              tracer: Optional[Tracer] = None) -> dict:
        """Validate ``payload`` against ``endpoint``'s schema and answer.

        The single entry point used by the gateway and the benchmark
        harness; raises :class:`RequestError` for anything the client
        got wrong.  With ``tracer`` the same parse -> dispatch -> render
        sequence runs under a ``serve.request`` span tree; tracing is
        measurement only and never changes the answer bytes (the
        zero-perturbation contract, held by ``tests/serve``).
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
        with self.metrics.track(endpoint):
            if tracer is None:
                request = schema.from_mapping(payload)
                return self._dispatch(request).to_dict()
            return self._traced_query(endpoint, schema, payload, tracer)

    def _traced_query(self, endpoint: str, schema, payload: Mapping,
                      tracer: Tracer) -> dict:
        """The traced twin of the :meth:`query` body.

        The dispatch span collects the memo events the analysis layer
        emits (index-table builds, flow/trend memo hits) into its tags:
        an empty ``memo_builds`` list means the request was served
        entirely from warm tables.
        """
        with tracer.span("serve.request", endpoint=endpoint):
            with tracer.span("parse"):
                request = schema.from_mapping(payload)
            with tracer.span("dispatch") as dispatch_span:
                with obs_events.collecting() as collected:
                    response = self._dispatch(request)
                dispatch_span.tags["memo_builds"] = sorted(
                    event.payload.get("table", "?") for event in collected
                    if event.kind == "memo.build"
                )
                dispatch_span.tags["memo_hits"] = sum(
                    1 for event in collected if event.kind == "memo.hit"
                )
            with tracer.span("render"):
                return response.to_dict()

    def _dispatch(self, request):
        if isinstance(request, SummaryRequest):
            return self.summary(request)
        if isinstance(request, CategoryMixRequest):
            return self.category_mix(request)
        if isinstance(request, CrossborderRequest):
            return self.crossborder(request)
        if isinstance(request, ProvidersRequest):
            return self.providers(request)
        if isinstance(request, ReportRequest):
            return self.report(request)
        if isinstance(request, TrendsRequest):
            return self.trends(request)
        raise AssertionError(f"unhandled request {request!r}")

    def summary(self, request: SummaryRequest) -> SummaryResponse:
        return SummaryResponse(
            summary=dataclasses.asdict(self._index.summary())
        )

    def category_mix(self, request: CategoryMixRequest
                     ) -> CategoryMixResponse:
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
        mix = fractions_of_counts(tallies)
        return CategoryMixResponse(
            country=country,
            weighting=request.weighting,
            mix={str(category): fraction
                 for category, fraction in mix.items()},
            url_count=int(sum(url_counts)),
            byte_count=int(sum(byte_sums)),
        )

    def crossborder(self, request: CrossborderRequest
                    ) -> CrossborderResponse:
        sources = tuple(self._known_country(code, field="sources")
                        for code in request.sources)
        entries = self._flow_table(request.basis)
        if sources:
            # The table is sorted by source, so a source set is a
            # concatenation of contiguous slices -- walking unique
            # sources in order preserves the full-table ordering the
            # filtering path produced.
            slices = self._index.crossborder_flow_slices(request.basis)
            parts = []
            for source in sorted(set(sources)):
                span = slices.get(source)
                if span is not None:
                    parts.append(entries[span[0]:span[1]])
            entries = tuple(entry for part in parts for entry in part)
        return CrossborderResponse(basis=request.basis, sources=sources,
                                   flows=entries)

    def _flow_table(self, basis: str) -> tuple[FlowEntry, ...]:
        """The full FlowEntry rendering of ``basis``, built at most once."""
        entries = self._flow_entries.get(basis)
        if entries is None:
            with self._flow_lock:
                entries = self._flow_entries.get(basis)
                if entries is None:
                    obs_events.emit("memo.build", table="flow_entries",
                                    basis=basis)
                    entries = tuple(
                        FlowEntry(source=s, destination=d,
                                  url_count=u, byte_count=b)
                        for s, d, u, b
                        in self._index.crossborder_flow_table(basis)
                    )
                    self._flow_entries[basis] = entries
                    return entries
        obs_events.emit("memo.hit", table="flow_entries", basis=basis)
        return entries

    def providers(self, request: ProvidersRequest) -> ProvidersResponse:
        from repro.analysis.providers import global_provider_footprints

        entries = tuple(
            ProviderEntry(asn=fp.asn, name=fp.name,
                          country_count=fp.country_count,
                          countries=fp.countries)
            for fp in global_provider_footprints(self._index)[:request.top]
        )
        return ProvidersResponse(top=request.top, providers=entries)

    def report(self, request: ReportRequest) -> ReportResponse:
        from repro.reporting import render_report_section

        return ReportResponse(
            section=request.section,
            text=render_report_section(self._index, request.section),
        )

    def trends(self, request: TrendsRequest) -> TrendsResponse:
        report = self._trends()
        payload = report.to_dict()
        country = None
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
        return TrendsResponse(
            snapshot_count=report.snapshot_count,
            country=country,
            report=payload,
        )

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


__all__ = ["DatasetService"]
