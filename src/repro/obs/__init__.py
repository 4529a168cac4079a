"""Deterministic tracing, metrics and run manifests for the pipeline.

``repro.obs`` is the observability layer: pass an
:class:`Observability` to :class:`~repro.core.pipeline.Pipeline` and a
run records a nested span tree (``pipeline.run`` -> per-country
``scan`` -> ``crawl``/``filter``/``resolve``/``geolocate`` ->
per-geolocation-step), a merged :class:`MetricsRegistry` (cache,
faults, crawl/filter tallies, the Section 3.5 geolocation funnel) and
enough context for a :class:`RunManifest` that makes any exported
artifact traceable to the run that produced it.

The layer is **zero-perturbation** by design: a run with observability
on produces a dataset and report byte-identical to one with it off,
under every executor, faulted or not, cold or warm cache.  The
instrumentation only reads ``time.perf_counter`` and counts values the
pipeline already computed — it never draws from an RNG, touches the
fault layer's simulated clock, or feeds a measurement back into
pipeline state.  ``tests/obs/test_zero_perturbation.py`` enforces this
across the whole executor/fault/cache matrix.

Per-worker metric shards merge on the driver as commutative monoids
(:meth:`MetricsRegistry.merge`), the same algebra as the pipeline's
footprint/validation/fault reductions, so serial and process runs
yield identical merged metrics.  A worker process holds no
:class:`Observability`: an observed task records into a fresh
:class:`ScanObs` that travels back with its partial, so observing a run
never changes which world a worker builds.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence

from repro.obs.events import Event
from repro.obs.manifest import (
    MANIFEST_FORMAT_VERSION,
    SUPPORTED_MANIFEST_FORMATS,
    RunManifest,
    manifest_path_for,
    tool_version,
)
from repro.obs.metrics import (
    MetricsRegistry,
    ThreadSafeMetricsRegistry,
    merge_metrics,
)
from repro.obs.exposition import PROMETHEUS_CONTENT_TYPE, render_prometheus
from repro.obs.registry import (
    ManifestDiff,
    RegisteredRun,
    RegistryError,
    RunRegistry,
    diff_manifests,
    diff_runs,
)
from repro.obs.scan import FUNNEL_STEPS, ScanObs, funnel_metrics
from repro.obs.trace import TRACE_FORMAT_VERSION, Span, Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cache import ScanCache
    from repro.exec.partials import CountryPartial
    from repro.faults.report import FaultReport

#: Heartbeat callback: (country, seconds, completed, expected-or-None).
ProgressCallback = Callable[[str, float, int, Optional[int]], None]


class Observability:
    """One run's tracer, metrics registry and scan-scope collector.

    The driver's pipeline owns one instance per observed run.  Worker
    processes hold none: an observed task records into a fresh
    :class:`ScanObs` that is shipped back with its partial, and the
    *driver* absorbs the scopes in submission order — keeping
    long-lived worker pools from accumulating state.
    """

    def __init__(self, progress: Optional[ProgressCallback] = None) -> None:
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        self.progress = progress
        #: Number of scans the current run will perform (set by the
        #: pipeline before the fan-out; feeds the progress heartbeat).
        self.expected_scans: Optional[int] = None
        self._lock = threading.Lock()
        self._absorbed = 0
        #: Span under which absorbed scan scopes nest (the run's scan
        #: phase span while a run is active).
        self._scan_parent: Optional[Span] = None

    # -------------------------------------------------------- scan scopes

    def scan_scope(self, country: str) -> ScanObs:
        """Open the per-country scope one scan records into."""
        return ScanObs(country)

    def absorb_scan(self, scope: ScanObs) -> None:
        """Fold one finished scan scope into the run's trace + metrics.

        Thread-safe; metric absorption is a commutative merge, so the
        registry is deterministic no matter which shard finishes first.
        """
        scope.finish()
        with self._lock:
            self.metrics.merge_in(scope.metrics)
            parent = self._scan_parent
            if parent is not None:
                parent.children.append(scope.root)
            else:
                self.tracer.roots.append(scope.root)
            self._absorbed += 1
            completed = self._absorbed
        if self.progress is not None:
            self.progress(scope.country, scope.duration_s, completed,
                          self.expected_scans)

    # --------------------------------------------------------- run phases

    @contextmanager
    def run_scope(self, executor: str, countries: int) -> Iterator[Span]:
        """The root ``pipeline.run`` span of one driver-side run."""
        self.expected_scans = countries
        with self.tracer.span("pipeline.run", executor=executor,
                              countries=countries) as span:
            try:
                yield span
            finally:
                self._scan_parent = None
                self.expected_scans = None

    @contextmanager
    def phase(self, name: str, **tags) -> Iterator[Span]:
        """One driver-side stage span (``scan``/``merge``/``finalize``).

        The ``scan`` phase additionally becomes the graft point for
        absorbed per-country scopes while it is open.
        """
        with self.tracer.span(name, **tags) as span:
            if name == "scan":
                self._scan_parent = span
            try:
                yield span
            finally:
                if name == "scan":
                    self._scan_parent = None
                    # Scopes were grafted in the caller's country order;
                    # canonical country order keeps the tree shape
                    # independent of it.
                    span.children.sort(
                        key=lambda child: str(child.tags.get("country", ""))
                    )

    # ----------------------------------------------------- driver metrics

    def record_partials(self, partials: Sequence["CountryPartial"]) -> None:
        """Metrics derivable from the partials themselves.

        These cover cache hits too (a warm start runs no scan scopes),
        and replay in canonical order, so they are executor- and
        cache-state-independent.
        """
        metrics = self.metrics
        for partial in partials:
            metrics.count("filter.discarded_urls", partial.discarded_url_count)
            metrics.count("resolve.unresolved_hostnames",
                          len(partial.unresolved_hostnames))
            metrics.count("directory.landing_urls", partial.landing_count)
            metrics.observe_all("crawl.depth", partial.depth_histogram)
        funnel_metrics(partials, metrics)

    def record_faults(self, report: "FaultReport") -> None:
        """Fold the run's merged fault accounting into the metrics."""
        total = report.total()
        if total.injected == 0:
            return
        metrics = self.metrics
        metrics.count("faults.injected", total.injected)
        metrics.count("faults.retried", total.retried)
        metrics.count("faults.recovered", total.recovered)
        metrics.count("faults.degraded", total.degraded)
        metrics.count("faults.backoff_ms", total.backoff_ms)

    def record_cache(self, cache: "ScanCache") -> None:
        """Fold the run's cache accounting into the metrics."""
        stats = cache.stats
        metrics = self.metrics
        metrics.count("cache.hits", stats.hits)
        metrics.count("cache.misses", stats.misses)
        metrics.count("cache.stores", stats.stores)
        metrics.count("cache.evicted", stats.evicted)
        metrics.count("cache.bytes_read", stats.bytes_read)
        metrics.count("cache.bytes_written", stats.bytes_written)
        metrics.count("cache.time_saved_s", round(stats.time_saved_s, 6))


__all__ = [
    "FUNNEL_STEPS",
    "MANIFEST_FORMAT_VERSION",
    "PROMETHEUS_CONTENT_TYPE",
    "SUPPORTED_MANIFEST_FORMATS",
    "TRACE_FORMAT_VERSION",
    "Event",
    "ManifestDiff",
    "MetricsRegistry",
    "Observability",
    "RegisteredRun",
    "RegistryError",
    "RunManifest",
    "RunRegistry",
    "ScanObs",
    "Span",
    "ThreadSafeMetricsRegistry",
    "Tracer",
    "diff_manifests",
    "diff_runs",
    "funnel_metrics",
    "manifest_path_for",
    "merge_metrics",
    "render_prometheus",
    "tool_version",
]
