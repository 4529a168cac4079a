"""End-to-end measurement pipeline (Section 3).

Runs the full methodology over a synthetic world:

1. compile the per-country government directory (Section 3.1);
2. crawl landing pages seven levels deep through in-country VPN
   vantages, producing HAR archives (Section 3.2);
3. filter internal government URLs via TLD/domain/SAN heuristics
   (Section 3.3);
4. resolve hostnames and annotate with WHOIS data; classify network
   ownership (Section 3.4);
5. geolocate and validate every server address (Section 3.5);
6. classify hosting categories and assemble the dataset (Sections 4-5).

Execution is split into a per-country **phase 1** (steps 1-5, no
cross-country data dependency) and a cheap **phase 2** (step 6, which
needs every AS's cross-country footprint).  Phase 1 fans out over any
:class:`~repro.exec.ExecutionStrategy`; the two cross-country
reductions — provider footprints and Table 4 validation stats — are
merged deterministically on the driver, so parallel runs are
bit-identical to serial ones.

A country's partial does not depend on which other countries its world
holds, so a pipeline built from a config generates only the countries
the cache misses; a world never scans a country it did not generate.

Phase 2 (:func:`assemble`) is a pure function of the partials: the
ownership verdict is the one phase 1 recorded, and the footprint is the
union of the given partials' own, so a dataset never depends on what
the pipeline ran before.
"""

from __future__ import annotations

import functools
import logging
import time
from contextlib import nullcontext
from typing import TYPE_CHECKING, Callable, ContextManager, Optional, Sequence, Union

from repro.core.classification import ProviderFootprint, categorize
from repro.core.dataset import (
    CountryDataset,
    GovernmentHostingDataset,
    HostRow,
    HostTable,
)
from repro.core.geolocation import GeoVerdict, Geolocator
from repro.core.urlfilter import FilterVia
from repro.datagen.config import WorldConfig
from repro.exec.base import ExecutionStrategy, scan_keyed
from repro.exec.partials import (
    CountryPartial,
    HostAnnotation,
    UrlObservation,
    merge_faults,
    merge_footprints,
    merge_validation,
)
from repro.exec.serial import SerialExecutor
from repro.faults.plan import FaultPlan
from repro.faults.report import FaultReport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cache import ScanCache
    from repro.datagen.generator import SyntheticWorld
    from repro.obs import Observability
    from repro.obs.scan import ScanObs

logger = logging.getLogger(__name__)


def _null_span(name: str, **tags) -> nullcontext:
    """Span stand-in for uninstrumented scans (no scope allocated)."""
    return nullcontext()


def _host_table(
    partial: CountryPartial, footprint: ProviderFootprint
) -> HostTable:
    """One country's host table from its phase-1 partial.

    Each host row is the partial's annotation plus the category, which
    is computed once per host against the merged footprint.  The URL
    rows are the partial's own tuples, so the cost is per host, not per
    URL; reading them decodes a cached partial's bulk.
    """
    country = partial.country
    hosts = [
        HostRow(
            hostname, note.address, note.asn, note.organization,
            note.registered_country, note.gov_operated,
            categorize(note.gov_operated, note.asn, note.registered_country,
                       country, footprint),
            note.server_country, note.anycast, note.validation,
        )
        for hostname, note in partial.hosts.items()
    ]
    return HostTable(hosts, partial.urls)


def assemble(
    partials: Sequence[CountryPartial],
    phase: Callable[..., ContextManager] = _null_span,
) -> GovernmentHostingDataset:
    """Phase 2: merge the partials, then defer each country's host table.

    ``partials`` must be in canonical country order.  Footprints,
    Table 4 validation and fault reports are merged once; each
    country's deferred host table categorizes against that one merged
    footprint, so a partial's bulk is read only when its host table is.
    ``phase`` opens the ``merge`` and ``finalize`` spans.
    """
    with phase("merge"):
        footprint = merge_footprints(partials)
        validation = merge_validation(partials)
        faults = merge_faults(partials)
    with phase("finalize"):
        countries = {
            partial.country: CountryDataset(
                country=partial.country,
                landing_count=partial.landing_count,
                load_table=functools.partial(_host_table, partial, footprint),
                discarded_url_count=partial.discarded_url_count,
                unresolved_hostnames=partial.unresolved_hostnames,
                depth_histogram=partial.depth_histogram,
            )
            for partial in partials
        }
    return GovernmentHostingDataset(
        countries=countries, validation=validation, faults=faults,
    )


class Pipeline:
    """Drives the full methodology over a synthetic world.

    Built from a world, a pipeline scans in it.  Built from a config, it
    holds no world: each scan wave of :meth:`run` generates one over the
    countries the wave scans (:func:`~repro.exec.base.plan_wave`).  The
    fault plan, vantage ranks and seed always come from :attr:`config`.
    """

    def __init__(
        self,
        source: Union["SyntheticWorld", WorldConfig],
        geolocator: Optional[Geolocator] = None,
        obs: Optional["Observability"] = None,
    ) -> None:
        world = None if isinstance(source, WorldConfig) else source
        if world is None and geolocator is not None:
            raise ValueError("a custom geolocator needs the world it "
                             "locates in: build the pipeline from it")
        #: The config that alone identifies (and reproduces) the scans.
        self.config: WorldConfig = source if world is None else world.config
        #: The world this pipeline was built from and scans in (None:
        #: built from a config).
        self.world = world
        #: Observability sink (None: no tracing/metrics).  Purely
        #: read-side instrumentation — a run with ``obs`` set produces a
        #: byte-identical dataset to one without (tested per executor).
        self.obs = obs
        #: Wall seconds of the most recent phase-1 scan per country,
        #: recorded by every executor (process shards ship theirs back).
        #: Feeds the cache's per-entry cost accounting and the progress
        #: heartbeat; never serialized into datasets.
        self.scan_seconds: dict[str, float] = {}
        #: The fault-injection plan the config asks for ("no faults"
        #: unless ``fault_rate`` is set).
        self.fault_plan = FaultPlan.from_config(self.config)
        #: Whether the config alone reproduces this pipeline's scans, so
        #: they may be served from a persistent cache or rebuilt in
        #: worker processes.  A custom geolocator's behavior is opaque:
        #: its partials can be neither keyed nor rebuilt from the config.
        self.supports_caching = geolocator is None
        #: The world the substrates below are bound to.
        self._scanning: Optional["SyntheticWorld"] = None
        if world is not None:
            self._bind(world, geolocator)

    def _bind(self, world: "SyntheticWorld",
              geolocator: Optional[Geolocator] = None) -> None:
        """Scan in ``world``'s substrates from now on, under this
        pipeline's config; a scan wave binds a config-built pipeline to
        the world it generated for it.  The scan stack loads here, so a
        run whose every scan the cache serves never imports it."""
        from repro.core.asclassify import GovernmentASClassifier
        from repro.core.crawler import Crawler
        from repro.core.infrastructure import InfrastructureMapper
        from repro.datagen.seeds import derive_rng
        from repro.measure.atlas import AtlasClient
        from repro.netsim.latency import LatencyModel
        from repro.world.cities import all_location_codes

        self._scanning = world
        self.crawler = Crawler(world.web)
        self.mapper = InfrastructureMapper(world.resolver, world.whois)
        self.ownership = GovernmentASClassifier(
            world.peeringdb, world.whois, world.websearch
        )
        seed = self.config.seed
        self.atlas = AtlasClient(
            fabric=world.fabric,
            latency=LatencyModel(derive_rng(seed, "pipeline", "latency")),
            country_codes=all_location_codes(),
            rng=derive_rng(seed, "pipeline", "atlas"),
        )
        self.geolocator = geolocator or Geolocator(
            ipinfo=world.ipinfo,
            manycast=world.manycast,
            atlas=self.atlas,
            hoiho=world.hoiho,
            ipmap=world.ipmap,
        )

    # ------------------------------------------------------------------ runs

    def scan_partial(
        self, code: str, scope: Optional["ScanObs"] = None
    ) -> CountryPartial:
        """Phase 1 for one country: crawl, filter, map, geolocate.

        Returns a picklable :class:`CountryPartial` holding everything
        except hosting categories, which need the cross-country
        footprint barrier (phase 2).

        With fault injection on, the scan runs over an unreliable
        substrate: the VPN exit may flap (retried, then re-selected to
        an alternate in-country exit) and DNS/WHOIS lookups may fail
        (hostnames degrade into the unresolved tally).

        The scan records spans and counters into ``scope`` when one is
        given (a worker process ships it back with the partial); an
        observed pipeline opens its own scope otherwise, and absorbs the
        scan's scope into :attr:`obs`.  A scope reads results the scan
        computed anyway, so observed and bare scans are identical.
        """
        code = code.upper()
        world = self._scanning
        if world is None:
            raise RuntimeError("a pipeline built from a config scans in the "
                               "worlds run() generates; build it from a "
                               "world to scan one country alone")
        from repro.core.gathering import compile_directory
        from repro.core.urlfilter import GovernmentUrlFilter
        from repro.faults.session import FaultSession

        started = time.perf_counter()
        session = (
            FaultSession(self.fault_plan, code)
            if self.fault_plan.enabled
            else None
        )
        obs = self.obs
        if scope is None and obs is not None:
            scope = obs.scan_scope(code)
        span = scope.span if scope is not None else _null_span
        with span("directory"):
            directory = compile_directory(world, code)
        if session is not None:
            vantage = session.select_vantage(world.vpn, code)
        else:
            vantage = world.vpn.vantage_for(code)
        with span("crawl") as crawl_span:
            crawl = self.crawler.crawl(list(directory.landing_urls), vantage)
        with span("filter") as filter_span:
            # The filter decides per hostname, so every per-URL tally
            # below is a sum over hostnames.
            url_counts = crawl.hostname_counts()
            via_of = GovernmentUrlFilter(
                directory, world.certificates).verdicts(url_counts)
        with span("resolve") as resolve_span:
            infrastructure = self.mapper.map_hosts(
                via_of, vantage, faults=session)
        discarded = len(crawl.urls) - sum(
            url_counts[hostname] for hostname in via_of)
        if scope is not None:
            metrics = scope.metrics
            crawl_span.tags.update(pages=crawl.page_loads,
                                   urls=len(crawl.urls),
                                   failed=len(crawl.failed_urls))
            metrics.count("crawl.page_loads", crawl.page_loads)
            metrics.count("crawl.fetched_urls", len(crawl.urls))
            metrics.count("crawl.failed_urls", len(crawl.failed_urls))
            accepted = len(crawl.urls) - discarded
            filter_span.tags.update(accepted=accepted, discarded=discarded)
            metrics.count("filter.accepted_urls", accepted)
            for via in FilterVia:
                metrics.count(f"filter.via.{via.value}", sum(
                    url_counts[hostname]
                    for hostname, accepted_by in via_of.items()
                    if accepted_by is via))
            resolve_span.tags.update(
                hosts=len(infrastructure),
                unresolved=len(via_of) - len(infrastructure))
            metrics.count("resolve.resolved_hosts", len(infrastructure))

        footprint = ProviderFootprint()
        hosts: dict[str, HostAnnotation] = {}
        verdicts: list[GeoVerdict] = []
        is_government = self.ownership.is_government
        locate = self.geolocator.locate
        geolocate_cm = (scope.span("geolocate", hosts=len(infrastructure))
                        if scope is not None else nullcontext())
        #: Wall seconds and address counts per Section 3.5 step, keyed
        #: by the verdict's ``source`` (observability only).
        step_seconds: dict[str, float] = {}
        step_counts: dict[str, int] = {}
        with geolocate_cm:
            for hostname, info in infrastructure.items():
                if scope is not None:
                    lookup_started = time.perf_counter()
                # Faulted verdicts are memoized on this country's session,
                # fault-free ones in the geolocator's shared caches.
                verdict = locate(info.address, code, faults=session)
                if scope is not None:
                    step = verdict.source or "unresolved"
                    step_seconds[step] = (step_seconds.get(step, 0.0)
                                          + time.perf_counter() - lookup_started)
                    step_counts[step] = step_counts.get(step, 0) + 1
                verdicts.append(verdict)
                footprint.observe(info.asn, code)
                hosts[hostname] = HostAnnotation(
                    address=info.address,
                    asn=info.asn,
                    organization=info.organization,
                    registered_country=info.registered_country,
                    gov_operated=is_government(info.asn, faults=session),
                    server_country=verdict.country,
                    anycast=verdict.anycast,
                    validation=verdict.method,
                )
            if scope is not None:
                scope.geolocation_steps(step_seconds, step_counts)
                scope.metrics.count("geo.lookups", len(infrastructure))

        # One pass over the crawl: a row for every URL on a resolved
        # government hostname.
        row_via = {hostname: via_of[hostname] for hostname in hosts}
        urls: list[UrlObservation] = []
        append = urls.append
        for url, (entry, depth) in crawl.urls.items():
            via = row_via.get(entry.hostname)
            if via is not None:
                append((url, entry.hostname, entry.size_bytes, via, depth))

        self.scan_seconds[code] = time.perf_counter() - started
        if scope is not None and session is not None:
            scope.metrics.count("faults.operations",
                                session.episodes_evaluated)
        if obs is not None:
            obs.absorb_scan(scope)

        return CountryPartial(
            country=code,
            landing_count=directory.landing_count,
            discarded_url_count=discarded,
            # Sorted, as the filter's verdicts are.
            unresolved_hostnames=[hostname for hostname in via_of
                                  if hostname not in infrastructure],
            depth_histogram=crawl.depth_histogram(),
            hosts=hosts,
            urls=urls,
            verdicts=tuple(verdicts),
            footprint=footprint,
            faults=session.report if session is not None else FaultReport(),
        )

    def run(
        self,
        countries: Optional[Sequence[str]] = None,
        executor: Optional[ExecutionStrategy] = None,
        cache: Optional["ScanCache"] = None,
    ) -> GovernmentHostingDataset:
        """Run the full pipeline and assemble the dataset.

        ``executor`` selects the execution strategy for the per-country
        work (default: :class:`~repro.exec.SerialExecutor`).  Every
        strategy yields an identical dataset; callers that pass their
        own executor also own its lifetime (call ``close()`` when done,
        the pool is reusable across runs).

        ``cache`` enables warm starts: phase-1 partials are served from
        the :class:`~repro.cache.ScanCache` where valid and only the
        misses are scanned, in one wave, then stored back
        (:func:`~repro.exec.scan_keyed`).  Warm runs are byte-identical
        to cold ones under every executor; the cache's ``stats`` record
        what the run hit, missed and saved.
        """
        codes = ([c.upper() for c in countries] if countries
                 else self.config.country_codes())
        if self.world is not None:
            from repro.core.gathering import compile_directory

            # Checked before dispatch, so every executor (and a cache
            # holding the country's key) answers alike.
            for code in codes:
                compile_directory(self.world, code)
        strategy = executor or SerialExecutor()
        obs = self.obs
        logger.info("pipeline run: %d countries via %s", len(codes),
                    strategy.name)

        run_cm = (obs.run_scope(strategy.name, len(codes))
                  if obs is not None else nullcontext())
        phase = obs.phase if obs is not None else _null_span
        with run_cm:
            # Phase 1: independent per-country scans, fanned out
            # (warm-started from the cache when one is given).
            with phase("scan", cached=cache is not None):
                if cache is None:
                    partials = strategy.scan([(self, codes)])[0]
                else:
                    # Imported here, so an uncached run (and `import
                    # repro`) never loads repro.cache.
                    from repro.cache.fingerprint import scan_keys

                    keys = scan_keys(self.config, codes)
                    found, _, _ = scan_keyed(
                        strategy, {key: (self, code)
                                   for key, code in zip(keys, codes)}, cache,
                    )
                    partials = [found[key] for key in keys]

            dataset = assemble(partials, phase=phase)

        if obs is not None:
            # Driver-side metrics: replayed from the partials in
            # canonical order (covers cache hits, executor-independent).
            obs.record_partials(partials)
            obs.record_faults(dataset.faults)
            if cache is not None:
                obs.record_cache(cache)
        logger.info("pipeline run finished: %d countries", len(codes))
        return dataset


__all__ = ["Pipeline", "assemble"]
